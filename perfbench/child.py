"""One workload process: set up, run whole rounds for about ``--seconds``,
check the outputs, and print one JSON line of results.

Started by ``run.py`` with ``src/`` on the path and BLAS/OpenMP pinned to
one thread; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up: from just before the package import to the first timed operation.
    t_setup = time.perf_counter()
    if args.trace:
        import schatten_lab.cli  # noqa: F401  (cli.import_ms: the package as the CLI loads it)
    import schatten_lab as sl
    import_ms = (time.perf_counter() - t_setup) * 1e3

    import numpy as np

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(sl)
    wl = WORKLOADS[args.workload](sl, args.seed, tracer)
    wl.warm_up()
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []
    rounds: list[list] = []
    current: list = []

    def record(dt, out):
        latencies.append(dt)
        current.append(out)

    round_s: list[float] = []
    t0 = time.perf_counter()
    while True:
        current = []
        r0 = time.perf_counter()
        wl.run_round(record)
        rounds.append(current)
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        # Whole rounds only; stop before a round that would end past --seconds.
        if len(rounds) >= wl.min_rounds and elapsed + round_s[-1] > args.seconds:
            break
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        from run import result_stem
        tracer.stop()
        layers = tracer.per_layer(import_ms)
        tracer.save(result_stem(args.workload, args.seed, args.trace) + ".npz")

    bad = wl.check(rounds)
    failures = [(r, i, why) for r, per_round in enumerate(bad)
                for i, why in enumerate(per_round) if why]
    unexpected = [(r, i, why) for r, i, why in failures if not wl.known_fault(i)]
    lat_ms = np.array(latencies) * 1e3
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "unexpected_failed": len(unexpected),
        "rounds": len(rounds),
        "wall_s": wall,
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
        "round_s": round_s,
        "round_p50_ms": [float(np.percentile(lat_ms[k - len(r):k], 50))
                         for r, k in zip(rounds, np.cumsum([len(r) for r in rounds]))],
        "round_p90_ms": [float(np.percentile(lat_ms[k - len(r):k], 90))
                         for r, k in zip(rounds, np.cumsum([len(r) for r in rounds]))],
        "failure_examples": [f"round {r} op {i}: {'; '.join(w)}"
                             for r, i, w in (unexpected or failures)[:5]],
        "failed_ops_round0": sorted({i for r, i, _ in failures if r == 0}),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
