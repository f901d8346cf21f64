#!/usr/bin/env python3
"""Write perfbench/expected.json: the graph catalogues and one digest per
catalogue entry of its canonical result.

    python3 perfbench/record.py

Run it only on a commit whose results are trusted; every later run is
checked against what it records.  Digests are taken with identity
relabellings and base changes, so the benchmark's seeded variants must
reproduce them exactly.  The 6-vertex classes also get a recorded cost
(best of two timed runs), which fixes the cost strata the poset workload
samples from; costs already in the file are kept.
"""

import json
import sys
import time

import worker


def edge_string(g):
    return f"E:{g.n_vertices}:" + ",".join(f"{u}-{v}" for u, v in sorted(g.edges))


def main():
    worker.import_library()
    import workloads
    from nestotope import graphs

    expected = {"poset6": [], "pi5": [], "glue_graphs": {}, "digests": {}}
    digests = expected["digests"]

    def record(req):
        out = workloads.JOBS[req.cls](req, expected)
        digests[workloads.expected_key(req)] = workloads.digest(
            workloads.canonical(req, out))
        print(f"{req.cls:18} {req.entry}", file=sys.stderr)

    for table, k in (("poset6", 6), ("pi5", 5)):
        for g in graphs.connected_graph_representatives(k):
            expected[table].append({"graph": edge_string(g),
                                    "family": workloads.graph_family(g)})
    # Costs already recorded are kept: they define the poset workload.
    try:
        known = {row["graph"]: row["cost_s"]
                 for row in workloads.load_expected()["poset6"]}
    except FileNotFoundError:
        known = {}
    for i, row in enumerate(expected["poset6"]):
        req = workloads.Request(0, "poset", f"g6:{i}", tuple(range(6)))
        costs = []
        for _ in range(1 if row["graph"] in known else 2):
            t0 = time.perf_counter()
            record(req)
            costs.append(time.perf_counter() - t0)
        row["cost_s"] = known.get(row["graph"], round(min(costs), 4))
    for i in range(len(expected["pi5"])):
        record(workloads.Request(0, "projection-degree", f"g5:{i}",
                                 tuple(range(5))))

    for n in (3, 4):
        expected["glue_graphs"][str(n)] = [
            edge_string(g) for g in graphs.connected_graph_representatives(n)]
    glue = (expected["glue_graphs"]["3"] + expected["glue_graphs"]["4"]
            + workloads.GLUE_LARGE)
    entries = [("glue", e) for e in glue]
    entries += [(cls, e) for cls, e, _ in workloads.HOMOLOGY_MIX]
    entries += [(cls, e) for cls, e, _ in workloads.COVERING_MIX]
    for cls, entry in entries:
        params = ()
        if cls in ("cover", "eta", "glue"):
            params = tuple(1 << i for i in range(workloads._rows_of(entry)))
        record(workloads.Request(0, cls, entry, params))

    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
