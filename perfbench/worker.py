"""One benchmark process: set up, run a workload's request list as a closed
loop with one client, check every result, report metrics as JSON.

``run.py`` starts this script under an address-space limit; run it
directly only to debug.  With ``--probe`` it stops once it is ready for
the first request and reports only that moment, which is how ``run.py``
samples set-up time.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
TAIL_BEYOND = 10
UNTRACED_SHARE = 0.45   # of the time left, for a traced run's untraced pass
MODEL = "closed loop, one client, concurrency 1"
NO_WAIT = ("no per-layer wait time: the library is single-threaded and "
           "has no queues, so no layer waits for another")


def import_library():
    """Import nestotope from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import nestotope
    if not Path(nestotope.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nestotope came from {nestotope.__file__}, not {SRC}")


@dataclass
class Record:
    rid: int
    cls: str
    entry: str
    latency_s: float
    failures: list


def run_requests(requests, expected, tracer=None, stop_at=None):
    """Send each request after the previous one is done; check outside the
    timed span.  Any exception, MemoryError included, fails the request.
    No request starts once ``time.monotonic()`` has passed ``stop_at``,
    but the first always runs."""
    import workloads

    clock = tracer.now if tracer else time.perf_counter_ns
    records = []
    for req in requests:
        if records and stop_at is not None and time.monotonic() >= stop_at:
            break
        out = error = None
        if tracer:
            tracer.start_request(req.rid)
        t0 = clock()
        try:
            out = workloads.JOBS[req.cls](req, expected)
        except Exception as exc:
            error = exc
        latency = (clock() - t0) / 1e9
        if tracer:
            if error is not None:
                tracer.fail(error)
            tracer.start_request(None)
        if error is not None:
            failures = [f"{type(error).__name__}: {error}"]
        else:
            try:
                failures = workloads.check(req, out, expected)
            except Exception as exc:
                failures = [f"oracle raised {type(exc).__name__}: {exc}"]
        out = error = None
        if failures:
            print(f"request {req.rid} ({req.cls} {req.entry}) failed: "
                  f"{failures[0]}", file=sys.stderr)
        records.append(Record(req.rid, req.cls, req.entry, latency, failures))
    return records


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples).  Short lists fall back to the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def summary(requests, records, expected):
    """Counts over the requests that ran: the first len(records)."""
    import workloads

    failed = sum(1 for r in records if r.failures)
    seen = set()
    repeats = 0
    for req in requests[:len(records)]:
        key = workloads.input_key(req, expected)
        repeats += key in seen
        seen.add(key)
    return {
        "attempted": len(records),
        "failed": failed,
        "not_started": len(requests) - len(records),
        "repeat_share": repeats / len(records),
        "classes": dict(Counter(r.cls for r in records)),
        "failures": [[r.rid, r.cls, r.entry, r.failures[0]]
                     for r in records if r.failures][:10],
    }


def end_to_end(records):
    lat = [r.latency_s for r in records]
    done = sum(1 for r in records if not r.failures)
    tail_value, pct, n = tail(lat)
    metrics = {
        "jobs_per_s": (done / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    by_entry = {}
    for r in records:
        by_entry.setdefault(f"{r.cls} {r.entry}", []).append(r.latency_s)
    detail = {"entry_p50_s": {k: statistics.median(v)
                              for k, v in sorted(by_entry.items())},
              "tail_percentile": pct, "tail_samples_beyond": min(TAIL_BEYOND, n - 1),
              "samples": n, "busy_s": sum(lat)}
    return metrics, detail


def per_layer(tracer, traced, untraced, info):
    from tracing import LAYERS, SPANS

    calls, self_s = tracer.self_times()
    counts = tracer.counts
    wall = sum(r.latency_s for r in traced)
    metrics = {f"{name}.busy_s": (self_s.get(name, 0.0), "s") for name in SPANS}
    for name in ("cellcomplex.homology", "smallcover.glue"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("nestohedron.faces", "nestohedron.vertices",
                 "cellcomplex.boundary_nnz", "cellcomplex.cells",
                 "smallcover.top_cells", "subdivision.top_cells",
                 "subdivision.cells_checked", "realization.closure_perms"):
        metrics[name] = (counts[name], "count")
    rates = {
        "cellcomplex.homology.nnz_per_s":
            ("cellcomplex.boundary_nnz", "cellcomplex.homology.busy_s", "1/s"),
        "smallcover.glue.top_cells_per_s":
            ("smallcover.top_cells", "smallcover.glue.busy_s", "1/s"),
        "realization.covering.full_share":
            ("realization.full_certificates", "realization.certificates",
             "ratio"),
    }
    bases = {}
    for name, (num_key, den_key, unit) in rates.items():
        num = counts[num_key]
        den = metrics[den_key][0] if den_key in metrics else counts[den_key]
        metrics[name] = (num / den if den else 0.0, unit)
        bases[name] = {num_key: num, den_key: den}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["trace.uncovered_share"] = (1 - tracer.covered_s() / wall, "ratio")
    metrics["trace.overhead_s"] = (
        wall - sum(r.latency_s for r in untraced), "s")
    metrics["requests.repeat_share"] = (info["repeat_share"], "ratio")
    metrics["requests.error_rate"] = (info["failed"] / info["attempted"], "ratio")
    detail = {
        "rate_bases": bases,
        "self_share": {layer: seconds / wall
                       for layer, seconds in layer_self.items()},
        "traced_busy_s": wall,
        "wait_time": NO_WAIT,
    }
    return metrics, detail


def measure(requests, expected, trace, spans_path, stop_at=None):
    """Run the list once, or untraced and then traced; return the result
    document without ``ready``.  With a ``stop_at``, a traced run gives the
    untraced pass UNTRACED_SHARE of the time left, and the traced pass
    repeats only the requests the untraced pass ran."""
    untraced_stop = stop_at
    if trace and stop_at is not None:
        now = time.monotonic()
        untraced_stop = now + UNTRACED_SHARE * (stop_at - now)
    records = run_requests(requests, expected, stop_at=untraced_stop)
    info = summary(requests, records, expected)
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        origin = tracer.now()
        try:
            traced = run_requests(requests[:len(records)], expected, tracer,
                                  stop_at)
        finally:
            tracer.uninstall()
        traced_info = summary(requests, traced, expected)
        info["failed"] = max(info["failed"], traced_info["failed"])
        info["failures"] += traced_info["failures"]
        info["not_started"] = traced_info["not_started"]
        metrics, extra = per_layer(tracer, traced, records[:len(traced)], info)
        extra["spans"] = len(tracer.spans)
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path, origin)
    else:
        metrics, extra = end_to_end(records)
    info.update(extra)
    return {
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": info,
    }


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, default=1,
                    help="copies of the workload's mix in the request list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stop-at", type=float,
                    help="time.monotonic() after which no request starts")
    ap.add_argument("--probe", action="store_true",
                    help="stop when ready for the first request")
    return ap.parse_args(argv)


def main(argv=None):
    import_library()
    import workloads

    args = parse_args(argv)
    expected = workloads.load_expected()
    requests = workloads.build_requests(args.workload, args.seed, args.units,
                                        expected)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    doc = measure(requests, expected, args.trace, spans_path, args.stop_at)
    doc["ready"] = ready
    doc["detail"] = {
        "workload": args.workload, "seed": args.seed, "units": args.units,
        "requests": len(requests), "model": MODEL,
        "known_exclusions": workloads.KNOWN_EXCLUSIONS, **doc["detail"]}
    if args.trace:
        doc["detail"]["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
