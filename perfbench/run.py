"""Benchmark of gadisolve: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload sweep|large|matrixeq --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds src/gadisolve. Every process runs
with one BLAS thread. With --trace 0 it reports the end-to-end metrics
setup_s, wall_s, solve_p50_s and peak_rss_mb; with --trace 1 the per-layer
metrics of a traced run. The last line of standard output is the result; the
line before it is the environment. A full record goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# one BLAS thread in every worker, set in its environment before it imports
# numpy (this process never imports numpy)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "large", "matrixeq")
# set-up is timed in this many fresh processes besides the workload's own,
# and the median is reported
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # every worker must have ended by then


def _spawn(args, started, deadline, extra):
    """Run the worker in a fresh process; return its parsed last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--deadline", repr(deadline), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, started + RUN_LIMIT_S - time.monotonic()),
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description="gadisolve benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "gadisolve", "__init__.py")):
        print(f"run.py: no src/gadisolve under {ROOT}; run from a gadisolve checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + args.seconds
    setups = []
    if not args.trace:
        setups = [_spawn(args, started, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = _spawn(args, started, deadline, [])
    setups.append(res["setup_s"])

    if args.trace:
        metrics = {name: _metric(v, unit) for name, (v, unit) in res["layers"].items()}
        metrics["trace.wall_s"] = _metric(res["traced_wall_s"], "s")
        metrics["trace.overhead_ratio"] = _metric(res["traced_wall_s"] / res["wall_s"] - 1.0,
                                                  "ratio")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(res["wall_s"], "s"),
            "solve_p50_s": _metric(res["solve_p50_s"], "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, result=result)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for line in res["problems"]:
        print(f"problem: {line}")
    print(json.dumps({"env": res["env"], "rounds": res["rounds"],
                      "setup_samples": setups}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
