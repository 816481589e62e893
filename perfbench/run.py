"""Benchmark of schatten-lab: one workload, one seed, one run.

    python3 perfbench/run.py --workload ortho-pairs --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree (``src/schatten_lab`` must be there).
Each run starts the workload in its own process, a single closed-loop
client with BLAS and OpenMP pinned to one thread, after ``SETUP_PROBES``
processes that only set up, so that ``setup_s`` is a median of several.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, whose spans are written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("ortho-pairs", "parallel-pairs", "verify-registry")
SETUP_PROBES = 4
#: Wall-clock cap on one run, set-up probes included.
RUN_TIMEOUT_S = 170.0
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def result_stem(workload: str, seed: int, trace: int) -> str:
    """Path, without suffix, of one run's result files."""
    return os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")


def _child(args, extra, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schatten_lab", "__init__.py")):
        print(f"run.py: no schatten_lab source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    stem = result_stem(args.workload, args.seed, args.trace)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        run = _child(args, [], deadline)
        metrics = {name: _metric(v, "ms" if "ms" in name.rsplit(".", 1)[-1].split("_")
                                 else "count")
                   for name, v in run["layers"].items()}
    else:
        setups = [_child(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run = _child(args, [], deadline)
        setups.append(run["setup_s"])
        run["setup_probes_s"] = setups
        metrics = {
            "ops_per_s": _metric(run["ops_per_s"], "1/s"),
            "op_p50_ms": _metric(run["op_p50_ms"], "ms"),
            "op_p90_ms": _metric(run["op_p90_ms"], "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        }
    with open(stem + ".json", "w") as fh:
        json.dump(run, fh, indent=1)
    print(json.dumps({
        # Only the operations of a known fault may fail (``known_fault``).
        "correct": run["unexpected_failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
