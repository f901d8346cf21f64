"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402

worker.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = workloads.load_expected()

# Cheap catalogue entries of each workload; the smoke list is the first
# request of each that a seeded list holds.
SMOKE = {
    "homology": {("cover", "path:3/can"), ("cover", "star:3/can"),
                 ("cover", "complete:3/tomei"), ("eta", "path:3"),
                 ("eta", "complete:3"), ("rma", "path:3")},
    "glue-z2": {("glue", e) for n in ("3", "4")
                for e in EXPECTED["glue_graphs"][n]},
    "covering": {("realize", "sphere:1/path:2/default"),
                 ("certify", "sphere:3/star:4"),
                 ("realize", "sphere:2/path:3/1000")},
}


def _cheap(name, req):
    if name == "poset":
        if req.cls == "projection-degree":
            return req.entry in ("g5:0", "g5:1")
        return EXPECTED["poset6"][int(req.entry[3:])]["cost_s"] < 0.15
    return (req.cls, req.entry) in SMOKE[name]


def smoke_requests(name):
    seen = set()
    out = []
    for req in workloads.build_requests(name, 3, expected=EXPECTED):
        if _cheap(name, req) and (req.cls, req.entry) not in seen:
            seen.add((req.cls, req.entry))
            out.append(req)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_list_other_seed_other_list(name):
    first = workloads.build_requests(name, 7)
    again = workloads.build_requests(name, 7)
    other = workloads.build_requests(name, 8)
    assert first == again
    assert first != other
    # the seed changes the random parts, never the work per request class
    assert Counter(r.cls for r in first) == Counter(r.cls for r in other)
    if name != "poset":
        entries = lambda reqs: sorted((r.cls, r.entry) for r in reqs)
        assert entries(first) == entries(other)


def test_poset_seeds_reach_every_six_vertex_class():
    picked = {r.entry for seed in range(60)
              for r in workloads.build_requests("poset", seed, expected=EXPECTED)
              if r.cls == "poset"}
    assert len(picked) == len(EXPECTED["poset6"])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 41)]
    value, pct, n = worker.tail(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert (pct, n) == (75.0, 40)


def test_oracle_rejects_a_wrong_result():
    req = next(r for r in smoke_requests("poset") if r.cls == "poset")
    out = workloads.JOBS[req.cls](req, EXPECTED)
    assert workloads.check(req, out, EXPECTED) == []
    first = next(iter(out["coords"]))
    out["coords"][first] = tuple(x + 1 for x in out["coords"][first])
    assert workloads.check(req, out, EXPECTED)


def test_no_request_starts_after_stop_but_the_first():
    reqs = smoke_requests("poset")
    assert len(reqs) > 1
    records = worker.run_requests(reqs, EXPECTED, stop_at=time.monotonic())
    assert [r.rid for r in records] == [reqs[0].rid]
    info = worker.summary(reqs, records, EXPECTED)
    assert (info["attempted"], info["not_started"]) == (1, len(reqs) - 1)


def test_an_error_counts_once_in_the_innermost_layer():
    tracer = tracing.Tracer()

    def inner():
        raise MemoryError

    inner_span = tracer._wrap("cellcomplex.orient", inner, None)
    outer_span = tracer._wrap("realization.sigma", inner_span, None)
    tracer.start_request(0)
    with pytest.raises(MemoryError) as caught:
        outer_span()
    tracer.fail(caught.value)
    tracer.start_request(None)
    assert dict(tracer.errors) == {"cellcomplex": 1}
    assert [s[0] for s in tracer.spans] == ["realization.sigma",
                                            "cellcomplex.orient"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_oracle_and_emits_every_metric(name, tmp_path):
    reqs = smoke_requests(name)
    assert len({r.cls for r in reqs}) == len({r.cls for r in
                                              workloads.build_requests(name, 3)})
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        doc = worker.measure(reqs, EXPECTED, trace, tmp_path / "spans.json")
        detail, result = run.result(doc, None if trace else [0.1, 0.2, 0.3])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, detail
        assert result["attempted"] == len(reqs)
        want = {m["name"]: m["unit"] for m in SPEC[table]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_missing_library_fails_without_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    (copy / "expected.json").write_text((BENCH / "expected.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset", "--seed",
         "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
