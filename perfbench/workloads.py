"""The three workloads: what one operation runs, and how its outputs are checked.

A workload runs one round at a time through ``run_round(record)``, calling
``record(latency_s, output)`` once per operation in round order.  Outputs
are checked only after timing, by ``check(rounds)``, which returns the
failure reasons of every operation of every round; ``known_fault(i)`` tells
whether operation ``i`` of a round is expected to fail.
"""

from __future__ import annotations

import dataclasses
import json
import time

import checks
import inputs


def _spec(sl, kind: str, p: float):
    return sl.NormSpec.schatten(p) if kind == "schatten" else sl.NormSpec.induced(p)


def _repeat_checks(rounds, first_bad):
    """Failure reasons for every round, from those of the first round.

    Repeated rounds run the same inputs, so the program, which is
    deterministic, must give the first round's outputs again.
    """
    bad = [first_bad]
    for outs in rounds[1:]:
        bad.append([list(why) + (["output differs from the first round's"]
                                 if repr(out) != repr(rounds[0][i]) else [])
                    for i, (out, why) in enumerate(zip(outs, first_bad))])
    return bad


class OrthoPairs:
    """ortho-pairs: one 4x4 pair, BJ orthogonality both ways under eight
    norms, plus ``loewner_domination(b, a, bj_ps=())``."""

    min_rounds = 3

    def __init__(self, sl, seed: int, tracer=None):
        self.sl = sl
        self.tracer = tracer
        self.ops = inputs.ortho_round(seed)
        self.specs = [(label, _spec(sl, kind, p)) for label, kind, p in checks.NORMS]

    def run_op(self, op):
        bj = self.sl.ortho.bj_definitional
        out = {}
        for label, spec in self.specs:
            for d, (x, y) in enumerate(((op.a, op.b), (op.b, op.a))):
                v = bj(x, y, spec)
                out[label, d] = (v.holds, v.extremal_scalar, v.gap, v.tolerance)
        rep = self.sl.ortho.loewner_domination(op.b, op.a, bj_ps=())
        out["loewner"] = (rep.dominates, rep.trace_orthogonal)
        return out

    def known_fault(self, i: int) -> bool:
        """Whether operation ``i`` of a round fails through a known fault
        of the program; no operation of this workload does."""
        return False

    def warm_up(self):
        """The first operation of the round, untimed."""
        self.run_op(self.ops[0])

    def run_round(self, record):
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.begin_op()
            t0 = time.perf_counter()
            out = self.run_op(op)
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end_op()
            record(dt, out)

    def check(self, rounds):
        first = rounds[0]
        return _repeat_checks(rounds, [
            checks.check_ortho(op, first[i], first[op.partner] if op.partner is not None else None)
            for i, op in enumerate(self.ops)])


class ParallelPairs:
    """parallel-pairs: one 8x8 pair, parallelism under eight norms, plus
    ``parallel_identity_radius``, ``eigen_parallel_identity`` and the
    numerical radius value of the first operand."""

    min_rounds = 3

    def __init__(self, sl, seed: int, tracer=None):
        self.sl = sl
        self.tracer = tracer
        self.ops = inputs.parallel_round(seed)
        self.specs = [(label, _spec(sl, kind, p)) for label, kind, p in checks.NORMS]

    def run_op(self, op):
        par = self.sl.parallel
        out = {}
        for label, spec in self.specs:
            v = par.parallel_definitional(op.a, op.b, spec)
            out[label] = (v.holds, v.lambda_star, v.achieved, v.target)
        out["radius_parallel"] = par.parallel_identity_radius(op.a)
        out["eigen_phase"] = par.eigen_parallel_identity(op.a)
        out["radius"] = self.sl.norms.numerical_radius_hilbert(op.a).value
        return out

    def known_fault(self, i: int) -> bool:
        """The 1e-8-scaled independent pairs fail today: the absolute
        tolerance floors of ``parallel.py`` make every small pair parallel."""
        return self.ops[i].kind == "independent_scaled"

    warm_up = OrthoPairs.warm_up
    run_round = OrthoPairs.run_round

    def check(self, rounds):
        return _repeat_checks(rounds, [
            checks.check_parallel(op, rounds[0][i], checks.parallel_expectations(
                op.a, op.b, independent=op.kind.startswith("independent")))
            for i, op in enumerate(self.ops)])


class VerifyRegistry:
    """verify-registry: one round is one ``run_suite`` pass over S1-S15 at
    dimension 4, with the trial counts of ``inputs.VERIFY_TRIALS``; one
    operation is one law-suite trial, timed by wrapping the runners held in
    ``laws.SUITES``."""

    # Two passes, so that their canonical reports can be compared.
    min_rounds = 2

    def __init__(self, sl, seed: int, tracer=None):
        self.sl = sl
        self.laws = sl.laws
        self.tracer = tracer
        self.suites = list(sl.laws.SUITES)
        self.configs = {
            sid: sl.laws.EnsembleConfig(
                dimension=inputs.VERIFY_DIM, seed=seed,
                trials=inputs.VERIFY_TRIALS.get(sid, inputs.VERIFY_DEFAULT_TRIALS))
            for sid in self.suites}
        self._record = None
        self.reports = []
        self._first = sl.laws.SUITES[self.suites[0]]
        for sid in self.suites:
            spec = sl.laws.SUITES[sid]
            sl.laws.SUITES[sid] = dataclasses.replace(spec, runner=self._timed(sid, spec.runner))

    def _timed(self, sid, runner):
        laws = self.laws

        def timed(cfg, offset, rng):
            if self.tracer is not None:
                self.tracer.begin_op()
            t0 = time.perf_counter()
            try:
                trial = runner(cfg, offset, rng)
            except Exception as exc:  # a raising trial is one failed operation
                trial = laws._Trial()
                trial.check(f"raised {type(exc).__name__}: {exc}", False)
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end_op()
            self._record(dt, (sid, offset, trial.ok, trial.detail()))
            return trial

        return timed

    known_fault = OrthoPairs.known_fault

    def warm_up(self):
        """The first trial of the first suite, untimed."""
        spec, cfg = self._first, self.configs[self.suites[0]]
        spec.runner(cfg, 0, self.sl.ensembles.rng_for(cfg.seed, spec.index, 0))

    def run_round(self, record):
        self._record = record
        reports = {}
        for sid in self.suites:
            rep = self.laws.run_suite(sid, self.configs[sid])
            reports[sid] = (json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n",
                            rep.passes, rep.trials)
        self.reports.append(reports)

    def check(self, rounds):
        bad = [[[] for _ in r] for r in rounds]
        for r, outs in enumerate(rounds):
            reports = self.reports[r]
            for i, (sid, offset, ok, detail) in enumerate(outs):
                text, passes, trials = reports[sid]
                if not ok:
                    bad[r][i].append(f"{sid} trial {offset} failed: {detail}")
                if passes != trials:
                    bad[r][i].append(f"{sid} passed {passes} of {trials} trials")
                if text != self.reports[0][sid][0]:
                    bad[r][i].append(f"{sid} report differs from the first pass's")
        return bad


WORKLOADS = {
    "ortho-pairs": OrthoPairs,
    "parallel-pairs": ParallelPairs,
    "verify-registry": VerifyRegistry,
}
