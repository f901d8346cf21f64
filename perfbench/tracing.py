"""Spans around the calls into each layer, recorded from outside ``src``.

``Tracer.install`` swaps every listed library function, in every
``nestotope`` module namespace that holds it, for a wrapper that records
a span (name, start, end, parent span, request id) and, after the span
has closed, the layer's work counts.  Counting can be slow (the boundary
nonzeros are recomputed), so the tracer keeps a virtual clock that stops
while counts are taken: spans and request times exclude that work.

The program is single-threaded and has no queues, so a layer never
waits for another; there is no per-layer wait time to report.
"""

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "nestohedron", "cellcomplex", "smallcover",
          "subdivision", "realization")


def _count_faces(counts, args, p):
    counts["nestohedron.faces"] += sum(p.f_counts())
    counts["nestohedron.vertices"] += len(p.vertices)


def _count_homology(counts, args, prof):
    c = args[0]
    counts["cellcomplex.boundary_nnz"] += sum(
        len(c.boundary_entries(k)) for k in range(1, c.n + 1))


def _count_glue(counts, args, glued):
    c = glued.complex
    counts["smallcover.top_cells"] += c.n_cells(c.n)


def _count_subdivision(counts, args, y):
    c = y.complex
    counts["subdivision.top_cells"] += c.n_cells(c.n)


def _count_star(counts, args, cert):
    counts["subdivision.cells_checked"] += cert.cells_checked


def _count_closure(counts, args, sets):
    counts["realization.closure_perms"] += sum(len(s) for s in sets.values())


def _count_covering(counts, args, cert):
    counts["realization.certificates"] += 1
    counts["realization.full_certificates"] += cert.mode == "full"


# span name -> ([(module, function), ...], count hook or None).  Span names
# start with their layer.  Functions the benchmark calls directly and that
# do little work (spec parsers, matrix constructors) get spans too, so
# that uncovered time is the benchmark's own.
SPANS = {
    "graphs.building_set": ([("graphs", "graph_building_set")], None),
    "graphs.from_spec": ([("graphs", "graph_from_spec")], None),
    "nestohedron.face_poset": ([("nestohedron", "face_poset")], _count_faces),
    "nestohedron.check_simple_and_flag":
        ([("nestohedron", "check_simple_and_flag")], None),
    "nestohedron.face_vectors": ([("nestohedron", "face_vectors")], None),
    "nestohedron.vertex_coordinates":
        ([("nestohedron", "all_vertex_coordinates")], None),
    "nestohedron.pi_degree": ([("nestohedron", "pi_degree")], None),
    "cellcomplex.homology": ([("cellcomplex", "homology")], _count_homology),
    "cellcomplex.homology_z2": ([("cellcomplex", "homology_z2")], None),
    "cellcomplex.orient": ([("cellcomplex", "orient")], None),
    "cellcomplex.to_json": ([("cellcomplex", "complex_to_json_dict")], None),
    "cellcomplex.from_spec":
        ([("cellcomplex", "pseudomanifold_from_spec")], None),
    "smallcover.glue": ([("smallcover", "small_cover"),
                         ("smallcover", "real_moment_angle"),
                         ("smallcover", "orientation_cover_via_eta")],
                        _count_glue),
    "smallcover.lambda": ([("smallcover", "lambda_can"),
                           ("smallcover", "lambda_from_spec")], None),
    "subdivision.subdivide":
        ([("subdivision", "subdivide_pseudomanifold")], _count_subdivision),
    "subdivision.star_check":
        ([("subdivision", "condition_star_check")], _count_star),
    "subdivision.lemma": ([("subdivision", "lemma_subdivision"),
                           ("subdivision", "verify_lemma_conditions")], None),
    "realization.sigma": ([("realization", "build_sigma_system")], None),
    "realization.closure":
        ([("realization", "enumerate_involution_sets")], _count_closure),
    "realization.covering":
        ([("realization", "build_covering")], _count_covering),
}

# Complexes handed to these spans add their cell count to cellcomplex.cells,
# once per complex and request.
_COMPLEX_ARG = ("cellcomplex.homology", "cellcomplex.homology_z2",
                "cellcomplex.orient", "cellcomplex.to_json")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, request]
        self.stack = []
        self.request = None
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self._paused_ns = 0
        self._seen_complexes = set()
        self._origins = {}       # id(exception) -> (exception, layer it left first)
        self._installed = []

    def now(self):
        """Virtual clock: wall time minus the time spent counting."""
        return time.perf_counter_ns() - self._paused_ns

    def start_request(self, rid):
        """Spans are recorded only while a request (rid not None) runs."""
        self.request = rid
        self._seen_complexes = set()
        self._origins = {}

    def fail(self, exc):
        """Count a failed request in the layer of the innermost span its
        exception left.  Exceptions the library catches itself, and those
        raised outside every span, count nowhere."""
        origin = self._origins.get(id(exc))
        if origin is not None and origin[0] is exc:
            self.errors[origin[1]] += 1

    def install(self):
        for name, (targets, hook) in SPANS.items():
            for module, attr in targets:
                original = getattr(sys.modules["nestotope." + module], attr)
                wrapper = self._wrap(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "nestotope":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed = []

    def _wrap(self, name, fn, hook):
        tracer = self
        layer = name.split(".")[0]
        takes_complex = name in _COMPLEX_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:   # outside a request: the oracle
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            idx = len(tracer.spans)
            span = [name, tracer.now(), None, parent, tracer.request]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # The innermost span sees the exception first; keeping it
                # in the dict also keeps its id from being reused.
                tracer._origins.setdefault(id(exc), (exc, layer))
                raise
            finally:
                span[2] = tracer.now()
                tracer.stack.pop()
            paused = time.perf_counter_ns()
            if takes_complex and id(args[0]) not in tracer._seen_complexes:
                tracer._seen_complexes.add(id(args[0]))
                tracer.counts["cellcomplex.cells"] += args[0].total_cells()
            if hook is not None:
                hook(tracer.counts, args, result)
            tracer._paused_ns += time.perf_counter_ns() - paused
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def covered_s(self):
        """Time inside top-level spans, i.e. inside some layer."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None) / 1e9

    def write(self, path, origin_ns):
        rows = [[name, start - origin_ns, end - origin_ns, parent, rid]
                for name, start, end, parent, rid in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request"], "spans": rows}, fh)
