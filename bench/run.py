"""spdelab benchmark: one study workload, timed end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Each round starts a fresh Python process that imports spdelab from src/,
builds the study's inputs from the seed and makes one study call, so set-up
and peak memory are those a user pays on every CLI call.  Rounds repeat
until --seconds have passed and at least two calls are made, so that every
end-to-end metric is a median of several set-ups and calls.  With --trace 0 a round is one
untraced call and the metrics are the medians of wall_s, setup_s and
peak_rss_mib.  With --trace 1 a round is one untraced and one traced call;
the metrics are the medians of the per-layer figures, and trace.overhead_s
is the traced minus the untraced median wall time.

Every call's report is checked outside the timed region; a failed check
makes the run exit 1 and name the check.  The last line of standard output
is the result JSON; each run's details go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("converge", "theorem15", "averaging")
RUN_LIMIT_S = 170.0   # a run must end within 180 s; one call is far shorter
MIN_CALLS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
TIME_LAYER_SUFFIXES = (".s", "_s")


def layer_unit(name: str) -> str:
    return "s" if name.endswith(TIME_LAYER_SUFFIXES) else "count"


def call(workload: str, seed: int, trace_path: str | None,
         deadline: float) -> dict:
    """One study call in a fresh process; returns its parsed result."""
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), repr(spawn), trace_path or "-"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: study call did not end within the run limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload}: study process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not os.path.isdir(os.path.join(ROOT, "src", "spdelab")):
        sys.exit(f"no spdelab sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(call(args.workload, args.seed, None, deadline))
        if args.trace:
            path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}-"
                     f"{len(traced)}.jsonl")
            traced.append(call(args.workload, args.seed, path, deadline))
        if len(plain) + len(traced) >= MIN_CALLS and \
                time.monotonic() - begin >= args.seconds:
            break

    calls = plain + traced
    failures = sorted({name for r in calls for name in r["failures"]})
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (median_of(traced, "wall_s")
                                      - median_of(plain, "wall_s"))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": median_of(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not failures,
              "attempted": sum(r["attempted"] for r in calls),
              "failed": sum(r["failed"] for r in calls),
              "metrics": metrics}

    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, failures=failures,
                  calls=calls)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as out:
        json.dump(detail, out, indent=1)
    for name in failures:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
