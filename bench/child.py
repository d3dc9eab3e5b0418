"""One study call in a fresh process, as a user's CLI call would make it.

Usage: python3 bench/child.py WORKLOAD SEED SPAWN_TIME TRACE_PATH

SPAWN_TIME is CLOCK_MONOTONIC just before the parent started this process;
set-up time runs from there to the study call.  TRACE_PATH is "-" for an
untraced call, else the file the spans are written to.  The last line of
standard output is one JSON object with the timings, the operation counts,
the failed checks and the study outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_thread_env": {name: os.environ.get(name) for name in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(argv: list[str]) -> int:
    workload, seed, spawn, trace_path = argv
    sys.path.insert(0, SRC)
    import spdelab
    if not os.path.abspath(spdelab.__file__).startswith(SRC + os.sep):
        print(f"spdelab was imported from {spdelab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    cfg = workloads.build(workload, int(seed))
    study = workloads.STUDIES[workload]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawn)

    tracer = report = None
    start = time.perf_counter()
    try:
        if trace_path == "-":
            report = study(cfg)
        else:
            import spans
            with spans.Tracer() as tracer:
                report = tracer.run_root(study, cfg)
    except Exception as exc:  # the study's failure is a measured outcome
        print(f"{workload} study raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
    wall_s = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": rss_mib}
    if report is None:
        attempted = workloads.attempted_if_raised(workload, cfg)
        result.update(attempted=attempted, failed=attempted,
                      failures=[f"{workload}.study_completed"])
    else:
        attempted, failed = workloads.operations(workload, report)
        result.update(attempted=attempted, failed=failed,
                      failures=workloads.CHECKS[workload](report, cfg),
                      outputs=workloads.outputs(workload, report))
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(trace_path)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
