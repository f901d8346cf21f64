"""Request catalogues, seeded request lists, the jobs themselves and the
exact oracle that checks every result.

A request is one user job: the same public library calls the matching
``nestotope`` subcommand or verify suite makes.  Each workload runs a
fixed number of requests per request class and unit; the seed only picks
the random parts (the 6-vertex graph of each cost stratum, vertex
relabellings, GF(2) base changes, request order), so every seed runs
about the same amount of work and every commit runs the same requests
for a given seed.

Import this module only after ``src`` is on ``sys.path``.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from nestotope import (
    cellcomplex,
    formulas,
    graphs,
    nestohedron,
    realization,
    smallcover,
    subdivision,
)
from nestotope.errors import OMEGA_BUDGET, ValidationError

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Per unit: (class, entry, count).  Entries are strings; "E:<n>:<u>-<v>,..."
# names a graph by its edge list.  The counts put the median and the tail
# percentile inside different classes, away from the edges between classes
# (see README.md).
HOMOLOGY_MIX = [
    ("cover", "path:3/can", 20),
    ("cover", "star:3/can", 20),
    ("cover", "complete:3/can", 20),
    ("cover", "complete:3/tomei", 20),
    ("eta", "path:3", 6),
    ("eta", "complete:3", 6),
    ("rma", "path:3", 4),
    ("rma", "complete:3", 2),
    ("cover", "path:4/can", 9),
    ("cover", "path:4/star", 9),
    ("cover", "star:4/can", 1),
    ("cover", "cycle:4/can", 1),
    ("cover", "complete:4/can", 1),
    ("cover", "complete:4/tomei", 1),
]

COVERING_MIX = [
    ("realize", "sphere:1/path:2/default", 16),
    ("certify", "sphere:3/star:4", 25),
    ("realize", "sphere:2/path:3/1000", 11),
    ("certify", "sphere:3/cycle:4", 1),
    ("realize", "torus7/path:3/1000", 1),
    ("realize", "sphere:2/path:3/default", 1),
    ("realize", "sphere:2/complete:3/1000", 1),
    ("certify", "sphere:4/star:5", 1),
]

# glue-z2: every connected graph on 3 and 4 vertices (from expected.json)
# plus these three 4-dimensional ones.
GLUE_LARGE = ["path:5", "star:5", "cycle:5"]
GLUE_PER_UNIT = {3: 45, 4: 10, 5: 1}

# poset: the 6-vertex classes sorted by recorded cost and cut into strata;
# each unit takes one seeded random member of every stratum, and two of
# each of the POSET_TAIL_STRATA costliest, so that the tail percentile falls
# near the middle of those twenty.  Every 5-vertex class runs three times per
# unit, so that the median falls inside the block of cheap pi_degree jobs.
POSET_STRATUM = 4
POSET_TAIL_STRATA = 10
PI_PER_CLASS = 3

WORKLOADS = ("poset", "homology", "glue-z2", "covering")

KNOWN_EXCLUSIONS = [
    "realize sphere:3/star:4: involution_closure grows without bound because "
    "CLOSURE_BUDGET is checked only after a tube's closure completes; on the "
    "seed commit it was killed for memory at 8 GB",
]


@dataclass(frozen=True)
class Request:
    rid: int
    cls: str
    entry: str
    params: tuple = ()


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Seeded request lists.


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _gl2(rng, n):
    """A random invertible n x n GF(2) matrix, as the images of e_0..e_{n-1}."""
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        basis = []
        for v in cols:
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if len(basis) == n:
            return tuple(cols)


def _rows_of(entry):
    """Rows of the characteristic matrix: graph vertices minus one."""
    return int(entry.split("/")[0].split(":")[1]) - 1


def _unit_specs(workload, expected, rng):
    """(class, entry) pairs of one unit, before parameters and order."""
    specs = []
    if workload == "poset":
        ranked = sorted(range(len(expected["poset6"])),
                        key=lambda i: (expected["poset6"][i]["cost_s"], i))
        strata = [ranked[i:i + POSET_STRATUM]
                  for i in range(0, len(ranked), POSET_STRATUM)]
        tail_from = len(strata) - POSET_TAIL_STRATA
        specs += [("poset", f"g6:{i}") for k, s in enumerate(strata)
                  for i in rng.sample(s, 2 if k >= tail_from else 1)]
        specs += [("projection-degree", f"g5:{i}")
                  for i in range(len(expected["pi5"]))
                  for _ in range(PI_PER_CLASS)]
    elif workload == "glue-z2":
        for n, count in GLUE_PER_UNIT.items():
            entries = GLUE_LARGE if n == 5 else expected["glue_graphs"][str(n)]
            specs += [("glue", e) for e in entries for _ in range(count)]
    else:
        mix = HOMOLOGY_MIX if workload == "homology" else COVERING_MIX
        for cls, entry, count in mix:
            specs += [(cls, entry)] * count
    return specs


def _params(cls, entry, rng):
    if cls in ("poset", "projection-degree"):
        return _perm(rng, 6 if cls == "poset" else 5)
    if cls in ("cover", "eta", "glue"):
        return _gl2(rng, _rows_of(entry))
    return ()


def build_requests(workload, seed, units=1, expected=None):
    """The request list for one run: ``units`` shuffled copies of the mix,
    each with fresh random parameters."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    expected = expected or load_expected()
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(units):
        unit = [(cls, entry, _params(cls, entry, rng))
                for cls, entry in _unit_specs(workload, expected, rng)]
        rng.shuffle(unit)
        out += [Request(len(out) + i, *item) for i, item in enumerate(unit)]
    return out


def input_key(req, expected):
    """The exact input the library sees, for counting repeats: relabelled
    graphs are compared as edge sets, so symmetric graphs can repeat."""
    if req.cls in ("poset", "projection-degree"):
        table = "poset6" if req.cls == "poset" else "pi5"
        spec = expected[table][int(req.entry[3:])]["graph"]
        return (req.cls, _relabelled(spec, req.params))
    return (req.cls, req.entry, req.params)


# ---------------------------------------------------------------------------
# Jobs: the library calls of one request, and nothing else.


def _edges(spec):
    """Edge list of an "E:<n>:<u>-<v>,..." entry."""
    return [tuple(int(x) for x in e.split("-"))
            for e in spec.split(":")[2].split(",")]


def graph_of(spec):
    """Graph for an entry: a CLI spec or "E:<n>:<u>-<v>,..."."""
    if spec.startswith("E:"):
        return graphs.Graph(int(spec.split(":")[1]), _edges(spec))
    return graphs.graph_from_spec(spec)


def _relabelled(spec, perm):
    """The catalogue graph ``spec`` with vertex v renamed perm[v]."""
    return graphs.Graph(len(perm), [(perm[u], perm[v]) for u, v in _edges(spec)])


def _twisted(lam, a):
    """The matrix A·λ: column c goes to the XOR of A's columns picked by c."""
    cols = []
    for c in lam.columns:
        out = 0
        for i, col in enumerate(a):
            if c >> i & 1:
                out ^= col
        cols.append(out)
    return smallcover.CharacteristicFunction(lam.b, lam.rows, cols)


def run_poset(req, expected):
    spec = expected["poset6"][int(req.entry[3:])]["graph"]
    b = graphs.graph_building_set(_relabelled(spec, req.params))
    p = nestohedron.face_poset(b)
    if not nestohedron.check_simple_and_flag(p):
        raise ValidationError("face poset is not simple and flag")
    return {"p": p, "fv": nestohedron.face_vectors(p),
            "coords": nestohedron.all_vertex_coordinates(p)}


def run_degree(req, expected):
    spec = expected["pi5"][int(req.entry[3:])]["graph"]
    b = graphs.graph_building_set(_relabelled(spec, req.params))
    return {"degree": nestohedron.pi_degree(nestohedron.face_poset(b))}


def run_cover(req, expected):
    gspec, lname = req.entry.split("/")
    b = graphs.graph_building_set(graph_of(gspec))
    p = nestohedron.face_poset(b)
    lam = _twisted(smallcover.lambda_from_spec(b, lname), req.params)
    m = smallcover.small_cover(p, lam)
    return {"p": p, "complex": m.complex, "prof": m.homology(),
            "z2": cellcomplex.homology_z2(m.complex)}


def run_eta(req, expected):
    b = graphs.graph_building_set(graph_of(req.entry))
    p = nestohedron.face_poset(b)
    lam = _twisted(smallcover.lambda_can(b), req.params)
    cover = smallcover.orientation_cover_via_eta(p, lam)
    return {"p": p, "complex": cover.complex, "prof": cover.homology()}


def run_rma(req, expected):
    p = nestohedron.face_poset(
        graphs.graph_building_set(graph_of(req.entry)))
    r = smallcover.real_moment_angle(p)
    return {"p": p, "complex": r.complex, "prof": r.homology()}


def run_glue(req, expected):
    b = graphs.graph_building_set(graph_of(req.entry))
    p = nestohedron.face_poset(b)
    lam = _twisted(smallcover.lambda_can(b), req.params)
    m = smallcover.small_cover(p, lam)
    cert = cellcomplex.orient(m.complex)
    z2 = cellcomplex.homology_z2(m.complex)
    h = nestohedron.face_vectors(p).h
    doc = cellcomplex.complex_to_json_dict(m.complex,
                                           orientation=cert.orientation)
    return {"p": p, "lam": lam, "complex": m.complex, "orientation":
            cert.orientation, "z2": z2, "h": h, "z2_is_h": tuple(z2) == h,
            "doc": doc}


def run_realize(req, expected):
    zspec, gspec, budget = req.entry.split("/")
    budget = OMEGA_BUDGET if budget == "default" else int(budget)
    return {"cert": realization.realize(cellcomplex.pseudomanifold_from_spec(zspec),
                                        graphs.graph_from_spec(gspec),
                                        budget=budget)}


def run_certify(req, expected):
    zspec, gspec = req.entry.split("/")
    z = cellcomplex.pseudomanifold_from_spec(zspec)
    g = graphs.graph_from_spec(gspec)
    y = subdivision.subdivide_pseudomanifold(z, g)
    out = {"y": y, "star": subdivision.condition_star_check(y, g)}
    if y.mode == "substitution":
        k = subdivision.lemma_subdivision(g, 0)
        out["lemma"] = subdivision.verify_lemma_conditions(k, g, 0)
    return out


JOBS = {
    "poset": run_poset,
    "projection-degree": run_degree,
    "cover": run_cover,
    "eta": run_eta,
    "rma": run_rma,
    "glue": run_glue,
    "realize": run_realize,
    "certify": run_certify,
}


# ---------------------------------------------------------------------------
# Canonical results: what a request returns, with the seeded randomness
# (relabelling, base change A) factored out, so one digest per catalogue
# entry covers every seed.


def _homology_doc(out):
    prof = out["prof"]
    return {"cells": list(out["complex"].cell_counts()),
            "betti_q": list(prof.betti_q), "betti_z2": list(prof.betti_z2),
            "torsion": [list(t) for t in prof.torsion], "euler": prof.euler}


def canonical(req, out):
    cls = req.cls
    if cls == "poset":
        perm = req.params
        verts = sorted([x[perm[i]] for i in range(len(perm))]
                       for x in out["coords"].values())
        fv = out["fv"]
        return {"f": list(fv.f), "h": list(fv.h), "gamma": list(fv.gamma),
                "vertices": verts}
    if cls == "projection-degree":
        return {"degree": out["degree"]}
    if cls in ("cover", "eta", "rma"):
        doc = _homology_doc(out)
        if cls == "cover":
            doc["z2_direct"] = list(out["z2"])
        return doc
    if cls == "glue":
        return {"cells": list(out["complex"].cell_counts()),
                "betti_z2": list(out["z2"]), "h": list(out["h"]),
                "orientable": out["orientation"] != "non-orientable",
                "json_top_cells": len(out["doc"]["top_cells"]),
                "json_instances": len(out["doc"].get("instances", ()))}
    if cls == "realize":
        return realization.certificate_to_json_dict(out["cert"])
    if cls == "certify":
        y, star = out["y"], out["star"]
        doc = {"mode": y.mode, "cells": list(y.complex.cell_counts()),
               "star_ok": star.ok, "cells_checked": star.cells_checked,
               "failures": len(star.failures)}
        if "lemma" in out:
            doc["simplex_ok"] = out["lemma"].ok
            doc["simplex_checks"] = dict(sorted(out["lemma"].checks.items()))
        return doc
    raise ValueError(f"unknown request class {cls!r}")


def digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def expected_key(req):
    return f"{req.cls}|{req.entry}"


# ---------------------------------------------------------------------------
# The oracle: closed forms and invariants, run outside the timed span.


def narayana(n):
    return tuple(comb(n + 1, i) * comb(n + 1, i + 1) // (n + 1)
                 for i in range(n + 1))


def graph_family(g):
    """"complete", "path" or "" (h-vectors have closed forms for the first two)."""
    if len(g.edges) == g.n_vertices * (g.n_vertices - 1) // 2:
        return "complete"
    return "path" if graphs.path_order(g) is not None else ""


def _closed_h(family, n):
    if family == "path":
        return narayana(n)
    if family == "complete":
        return tuple(formulas.eulerian(n + 1, i) for i in range(n + 1))
    return None


def _closed_betti(family, lname, n):
    if lname == "tomei":
        return formulas.betti_tomei(n)
    if lname == "can" and family == "complete":
        return formulas.betti_hessenberg(n)
    if lname == "can" and family == "path":
        return formulas.betti_as_can(n)
    return None


def _euler_ok(prof, complex_):
    alt = sum((-1) ** k * b for k, b in enumerate(prof.betti_q))
    return alt == prof.euler == complex_.euler_characteristic()


def check(req, out, expected):
    """List of failed checks for one request (empty when all hold)."""
    bad = []
    cls = req.cls
    spec = req.entry.split("/")[0]
    if cls == "poset":
        p = out["p"]
        if set(out["coords"].values()) != nestohedron.minkowski_vertex_oracle(p.b):
            bad.append("vertex coordinates differ from the Minkowski oracle")
        want = _closed_h(expected["poset6"][int(req.entry[3:])]["family"], p.dim)
        if want is not None and out["fv"].h != want:
            bad.append(f"h-vector {out['fv'].h} is not the closed form {want}")
    elif cls == "projection-degree":
        if out["degree"] != 1:
            bad.append(f"projection degree {out['degree']} is not 1")
    elif cls in ("cover", "eta", "rma"):
        p, prof, cx = out["p"], out["prof"], out["complex"]
        n = p.dim
        if not _euler_ok(prof, cx):
            bad.append("Betti numbers violate the Euler relation")
        # Betti closed forms hold for the standard labelling of the presets.
        family = spec.split(":")[0]
        if cls == "cover":
            h = nestohedron.face_vectors(p).h
            if tuple(prof.betti_z2) != h or tuple(out["z2"]) != h:
                bad.append(f"mod-2 Betti numbers {prof.betti_z2} / "
                           f"{out['z2']} are not h = {h}")
            want = _closed_betti(family, req.entry.split("/")[1], n)
            if want is not None and tuple(prof.betti_q) != tuple(want):
                bad.append(f"Betti numbers {prof.betti_q} are not the "
                           f"closed form {want}")
        elif cls == "eta":
            base = _closed_betti(family, "can", n)
            if not smallcover.cover_betti_match(base, prof.betti_q):
                bad.append(f"cover Betti numbers {prof.betti_q} do not "
                           f"match the base {base}")
            totals = {"path": formulas.as_cover_total,
                      "complete": formulas.hessenberg_cover_total}
            if sum(prof.betti_q) != totals[family](n):
                bad.append("cover total Betti number is not the closed form")
        if prof.betti_q[0] != 1 or (cls != "cover" and prof.betti_q[n] != 1):
            bad.append(f"cover is not connected and orientable: {prof.betti_q}")
    elif cls == "glue":
        p = out["p"]
        if not out["z2_is_h"] or tuple(out["z2"]) != nestohedron.face_vectors(p).h:
            bad.append(f"mod-2 Betti numbers {out['z2']} are not h {out['h']}")
        want = _closed_h(graph_family(graph_of(spec)), p.dim)
        if want is not None and tuple(out["h"]) != want:
            bad.append(f"h-vector {out['h']} is not the closed form {want}")
        geometric = out["orientation"] != "non-orientable"
        if geometric != smallcover.is_orientable_smallcover(out["lam"]):
            bad.append("orient disagrees with the orientability criterion")
    elif cls == "realize":
        cert = out["cert"]
        if not all(cert.checks.values()):
            bad.append(f"certificate checks failed: {cert.checks}")
        prod = 1
        for size in cert.i_sizes.values():
            prod *= size
        if cert.s != 2 ** (cert.m - 1) * prod:
            bad.append(f"s = {cert.s} is not 2^(m-1)·prod|I_t| = "
                       f"{2 ** (cert.m - 1) * prod}")
    elif cls == "certify":
        if not out["star"].ok:
            bad.append(f"four-cofacet condition failed: {out['star'].failures[:3]}")
        if "lemma" in out and not out["lemma"].ok:
            bad.append(f"simplex certificate failed: {out['lemma'].failures[:3]}")
    want = expected["digests"].get(expected_key(req))
    got = digest(canonical(req, out))
    if want != got:
        bad.append(f"result digest {got} differs from the recorded {want}")
    return bad
