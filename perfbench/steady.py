"""Steadiness check: two sets of runs of the same code, compared by metric.

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` ``--runs`` times per workload of ``BENCHMARK.json`` in each
of two sets, each run with its own seed (set 1 takes seeds 1..runs, set 2
the next ``runs`` seeds).  For each workload and end-to-end metric it prints
each set's median and quartiles and the spread (interquartile distance over
the median).  The sets agree when every spread is within the metric's bound
and the two medians differ by at most the bound, in either direction.  Every
run must be correct, and the failed share of operations must be the same
in every run.  The raw results go to
``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict = {}
    steady = True
    for s in range(2):
        for w in workloads:
            for k in range(args.runs):
                seed = 1 + s * args.runs + k
                res = _run(w, seed, bench["run_seconds"])
                runs.setdefault(w, [[], []])[s].append(res)
                steady &= res["correct"]
                print(f"set {s + 1} {w} seed {seed}: correct {res['correct']} "
                      f"attempted {res['attempted']} failed {res['failed']} " + " ".join(
                          f"{n}={v['value']:.4g}" for n, v in res["metrics"].items()),
                      flush=True)

    for w in workloads:
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for per_set in runs[w] for r in per_set}
        if len(shares) != 1:
            steady = False
        print(f"  failed share of attempted: {sorted(shares)}")
        for name, spec in bounds.items():
            line = f"  {name:12s} bound {spec['bound']:.2f}"
            meds = []
            for s, per_set in enumerate(runs[w]):
                med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in per_set])
                meds.append(med)
                ok = spread <= spec["bound"]
                steady &= ok
                line += (f" | set {s + 1}: median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                         f"spread {spread:.3f}{'' if ok else ' TOO WIDE'}")
            worse = (meds[1] - meds[0]) / meds[0]
            if spec["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= spec["bound"]
            steady &= ok
            line += f" | second set worse by {worse:+.3f}{'' if ok else ' BEYOND BOUND'}"
            print(line)
    with open(os.path.join(HERE, "results", "steady.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
