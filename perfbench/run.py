#!/usr/bin/env python3
"""Benchmark for the nestotope library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: poset, homology, glue-z2, covering (see README.md).  The seed
fixes the request list; --seconds sizes it (one unit per 20 s).  The
request list runs in a child process capped by RLIMIT_AS, so a request
that runs out of memory fails alone instead of exhausting the machine.
The whole run has 175 s per unit; a commit too slow to finish the list
in that time is measured on the requests that started before the last
35 s of it.

--trace 0 prints the end-to-end metrics: set-up time (median over
several fresh processes), jobs per second, median and tail latency, and
peak RSS.  --trace 1 runs the same list untraced and then traced and
prints the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the details (tail percentile, sample counts, rate bases).  When the
library cannot be set up the exit code is 1 and no result is printed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
ADDRESS_SPACE_LIMIT = 2 << 30   # bytes, per child; the largest request needs ~0.4 GB
# One unit is the workload's mix once: 20-32 s of requests on the commit
# that introduced the benchmark (2-core x86 container).
UNIT_SECONDS = 20
DEADLINE_PER_UNIT_S = 175
# No request starts in the last FINISH_S seconds before the deadline: the
# longest request (4 s) has room to run 8x slower, then the oracle and output.
FINISH_S = 35


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_child(argv, deadline):
    """Run the worker; return (document, spawn time) or None on failure."""
    spawned = time.monotonic()
    # A fixed hash seed makes set and dict orders, and so the work done,
    # the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            preexec_fn=_limit_address_space)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("worker ran past the deadline and was killed", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    lines = out.decode().strip().splitlines()
    if not lines:
        print("worker printed nothing", file=sys.stderr)
        return None
    return json.loads(lines[-1]), spawned


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="poset, homology, glue-z2 or covering")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def result(doc, setups):
    """The detail line and the result line for the worker's document;
    ``setups`` are the set-up samples of an untraced run, else None."""
    metrics = doc["metrics"]
    detail = doc["detail"]
    if setups is not None:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_samples_s"] = setups
    return {"detail": detail}, {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    units = max(1, round(args.seconds / UNIT_SECONDS))
    deadline = time.monotonic() + DEADLINE_PER_UNIT_S * units
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--units", str(units), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            got = run_child(worker_args + ["--probe"], deadline)
            if got is None:
                return 1
            doc, spawned = got
            setups.append(doc["ready"] - spawned)
    got = run_child(worker_args + ["--stop-at", repr(deadline - FINISH_S)],
                    deadline)
    if got is None:
        return 1
    doc, spawned = got
    if not args.trace:
        setups.append(doc["ready"] - spawned)
    for line in result(doc, setups if not args.trace else None):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
