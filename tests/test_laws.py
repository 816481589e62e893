"""Tests for the law-suite harness: registry, determinism, replay, fixtures."""

import dataclasses
import hashlib
import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest

from schatten_lab import ensembles
from schatten_lab.cli import main
from schatten_lab.cmatrix import RANK_RTOL, _kept, svd
from schatten_lab.laws import (
    REDRAW_LIMIT,
    EnsembleConfig,
    EnsembleMiscalibration,
    FailureRecord,
    SUITES,
    _SINGLE_DRAWS,
    _Trial,
    _principal_cos,
    _redraws,
    fixtures,
    replay_failure,
    run_fixtures,
    run_suite,
)
from schatten_lab.ortho import PREDICATE_RTOL
from schatten_lab.parallel import DEPENDENCE_RTOL


class TestRegistry:
    def test_fifteen_suites_with_stable_ids(self):
        assert len(SUITES) == 15
        assert set(SUITES) == {f"S{i}" for i in range(1, 16)}
        indices = [spec.index for spec in SUITES.values()]
        assert sorted(indices) == list(range(1, 16))
        for sid, spec in SUITES.items():
            assert spec.title
            assert sid == f"S{spec.index}"
            assert spec.tolerances

    def test_dim_ranges(self):
        assert SUITES["S13"].dim_range == (2, 6)
        for sid, spec in SUITES.items():
            if sid != "S13":
                assert spec.dim_range == (2, 8)


class TestConfig:
    def test_defaults(self):
        cfg = EnsembleConfig()
        assert cfg.kind is None
        assert cfg.dimension == 4
        assert cfg.trials == 200
        assert cfg.seed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(kind="not-a-kind")
        with pytest.raises(ValueError):
            EnsembleConfig(dimension=1)
        with pytest.raises(ValueError):
            EnsembleConfig(dimension=9)
        with pytest.raises(ValueError):
            EnsembleConfig(trials=0)

    @pytest.mark.parametrize("field, value", [
        ("dimension", 3.5), ("trials", 1.5), ("seed", 1.5), ("seed", -3),
        ("dimension", True), ("trials", True), ("seed", True), ("seed", "1"),
    ])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        # A float dimension or trial count used to construct and then fail
        # inside numpy; seed 1.5 ran seed 1's stream while reporting 1.5, and
        # a negative seed passed the suites that reduce it mod 2^63.
        with pytest.raises(ValueError, match=field):
            EnsembleConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = EnsembleConfig(dimension=np.int64(3), trials=np.int32(2), seed=np.uint8(0))
        assert run_suite("S1", cfg).passed

    @pytest.mark.parametrize("field, value", [
        ("seed", np.int64(3)), ("dimension", np.int64(3)), ("trials", np.int32(2)),
    ])
    def test_numpy_integers_give_the_python_int_report(self, field, value):
        base = {"dimension": 4, "trials": 2, "seed": 1}
        cfg = EnsembleConfig(**{**base, field: value})
        assert type(getattr(cfg, field)) is int
        same = EnsembleConfig(**{**base, field: int(value)})
        assert json.dumps(run_suite("S7", cfg).to_json_dict(), sort_keys=True) \
            == json.dumps(run_suite("S7", same).to_json_dict(), sort_keys=True)

    def test_replay_rejects_negative_offset(self):
        with pytest.raises(ValueError, match="offset"):
            replay_failure("S1", 1, -1, printer=lambda line: None)
        with pytest.raises(ValueError, match="seed"):
            replay_failure("S1", -1, 0, printer=lambda line: None)

    def test_frozen(self):
        cfg = EnsembleConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 2

    def test_suite_level_validation(self):
        with pytest.raises(KeyError):
            run_suite("S16")
        with pytest.raises(ValueError):
            run_suite("S13", EnsembleConfig(dimension=7, trials=1))
        with pytest.raises(ValueError):
            run_suite("S1", EnsembleConfig(kind="nilpotent", trials=1))
        with pytest.raises(ValueError):
            run_suite("S3", EnsembleConfig(kind="ginibre", trials=1))


class TestRunSuite:
    def test_report_accounting(self):
        rep = run_suite("S1", EnsembleConfig(trials=6, seed=5))
        assert rep.suite_id == "S1"
        assert rep.trials == 6
        assert rep.passes + len(rep.failures) == rep.trials
        assert rep.passed
        assert rep.tolerances_used == SUITES["S1"].tolerances

    def test_deterministic_reports(self):
        cfg = EnsembleConfig(dimension=3, trials=4, seed=11)
        d1 = run_suite("S5", cfg).to_json_dict()
        d2 = run_suite("S5", cfg).to_json_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_json_schema(self):
        rep = run_suite("S6", EnsembleConfig(trials=2, seed=3))
        d = rep.to_json_dict()
        assert d["schema_version"] == 1
        assert d["suite_id"] == "S6"
        assert d["config"] == {
            "kind": None, "dimension": 4, "trials": 2, "seed": 3,
        }
        assert d["trials"] == 2 and d["passes"] == 2 and d["failures"] == []
        json.dumps(d)  # serializable as-is

    def test_kind_overrides(self):
        assert run_suite(
            "S2", EnsembleConfig(kind="disjoint_pair", trials=3, seed=2)
        ).passed
        assert run_suite(
            "S7", EnsembleConfig(kind="nilpotent", trials=3, seed=2)
        ).passed
        assert run_suite(
            "S13", EnsembleConfig(kind="projection", trials=3, seed=2)
        ).passed

    def test_dimension_sweep(self):
        for dim in (2, 5, 8):
            assert run_suite("S1", EnsembleConfig(dimension=dim, trials=3, seed=9)).passed
        for dim in (2, 6):
            assert run_suite("S13", EnsembleConfig(dimension=dim, trials=2, seed=9)).passed

    def test_all_suites_smoke(self):
        for sid in SUITES:
            rep = run_suite(sid, EnsembleConfig(trials=2, seed=17))
            assert rep.passed, (sid, [f.detail for f in rep.failures])


class TestReplay:
    def test_replay_passing_trial(self):
        lines = []
        ok = replay_failure("S1", 1, 0, printer=lines.append)
        assert ok is True
        assert lines[0].startswith("replay S1 seed=1 offset=0")
        assert lines[1].startswith("inputs digest: ")
        assert len(lines[1].split(": ")[1]) == 16
        assert any(line.strip().startswith("PASS") for line in lines[2:-1])
        assert not any("FAIL" in line for line in lines[2:-1])
        assert lines[-1] == "trial passed"

    def test_replay_is_deterministic(self):
        a, b = [], []
        replay_failure("S10", 4, 7, printer=a.append)
        replay_failure("S10", 4, 7, printer=b.append)
        assert a == b

    def test_replay_respects_config(self):
        base = []
        other = []
        replay_failure("S5", 2, 1, printer=base.append)
        replay_failure(
            "S5", 2, 1, EnsembleConfig(dimension=3), printer=other.append
        )
        # Different dimension changes the draw, hence the digest.
        assert base[1] != other[1]


class TestCheckLabels:
    @pytest.mark.parametrize("sid", list(SUITES))
    def test_labels_unique_within_a_trial(self, sid):
        # Suites share check blocks; a label must still name one check.
        spec = SUITES[sid]
        cfg = EnsembleConfig(trials=3, seed=1)
        for offset in range(3):
            trial = spec.runner(cfg, offset, ensembles.rng_for(1, spec.index, offset))
            labels = [label for label, _, _ in trial.checks]
            assert len(labels) == len(set(labels)), (sid, offset)


def _principal_cos_reference(p, q):
    """The range-basis route: orthonormal bases from the kept left singular
    vectors of each projection, then the spectral norm of ``Bp* Bq``."""
    def basis(m):
        f = svd(m)
        return f.u[:, _kept(f.singular_values)]

    bp, bq = basis(p), basis(q)
    if bp.shape[1] == 0 or bq.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(bp.conj().T @ bq, 2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("draw", [
    ensembles.intersecting_projection_pair,
    ensembles.trivial_intersection_projection_pair,
], ids=["intersecting", "trivially-intersecting"])
def test_principal_cos_matches_range_bases(draw, n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        p, q = draw(rng, n)
        assert abs(_principal_cos(p, q) - _principal_cos_reference(p, q)) <= 1e-12


def _failing_runner(cfg, offset, rng):
    """A suite runner whose trial at offset 1 fails one check by 0.25."""
    trial = _Trial()
    trial.track(np.arange(4.0) + offset)
    trial.at_least("margin", 1.0, 0.5)
    trial.at_most("ceiling", 1.25 if offset == 1 else 0.75, 1.0)
    return trial


def _digest_at(offset):
    """The digest of ``_failing_runner``'s input at ``offset``."""
    a = np.arange(4.0) + offset
    return hashlib.sha256(repr(a.shape).encode() + a.dtype.str.encode()
                          + a.tobytes()).hexdigest()[:16]


class TestFailureRecord:
    def test_json_dict(self):
        rec = FailureRecord(3, "ab12" * 4, -0.25, "FAIL check (gap=-2.5e-01)")
        assert rec.to_json_dict() == {
            "seed_offset": 3,
            "inputs_digest": "ab12ab12ab12ab12",
            "observed_gap": -0.25,
            "detail": "FAIL check (gap=-2.5e-01)",
        }

    def test_miscalibration_is_runtime_error(self):
        assert issubclass(EnsembleMiscalibration, RuntimeError)

    def test_failing_trial_is_recorded(self, monkeypatch):
        monkeypatch.setitem(SUITES, "S1", dataclasses.replace(SUITES["S1"],
                                                              runner=_failing_runner))
        rep = run_suite("S1", EnsembleConfig(trials=3, seed=1))
        assert (rep.passes, rep.passed) == (2, False)
        assert rep.failures == (FailureRecord(1, _digest_at(1), -0.25,
                                              "ceiling (gap=-2.500000e-01)"),)

    def test_verify_prints_failures(self, monkeypatch, capsys):
        monkeypatch.setitem(SUITES, "S1", dataclasses.replace(SUITES["S1"],
                                                              runner=_failing_runner))
        assert main(["verify", "S1", "--trials", "2", "--seed", "1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"S1: 1/2 trials passed [FAIL] - {SUITES['S1'].title}",
            f"  failure offset=1 digest={_digest_at(1)} gap=-2.500000e-01",
            "    ceiling (gap=-2.500000e-01)",
            "verify: FAILURES present",
        ]


class TestFixtures:
    def test_seven_named_fixtures(self):
        fxs = fixtures()
        assert len(fxs) == 7
        names = [f.name for f in fxs]
        assert len(set(names)) == 7
        for f in fxs:
            assert f.summary

    def test_all_fixtures_pass(self):
        results = run_fixtures()
        assert len(results) == 7
        for res in results:
            assert res.ok, (res.name, res.details)
            assert res.details
            assert all(line.startswith("PASS") for line in res.details)


class TestCheckVocabulary:
    @pytest.mark.parametrize("value, bound", [
        (0.25, 1.0), (1.0, 0.25), (-3e-9, 1e-9), (0.0, -0.0),
    ])
    def test_bound_checks_record_the_raw_triple(self, value, bound):
        derived, raw = _Trial(), _Trial()
        assert derived.at_most("m", value, bound) is (value <= bound)
        raw.check("m", value <= bound, bound - value)
        assert derived.at_least("l", value, bound) is (value >= bound)
        raw.check("l", value >= bound, value - bound)
        assert derived.checks == raw.checks

    def test_equal_value_passes_with_zero_gap(self):
        t = _Trial()
        t.at_most("at most", 0.75, 0.75)
        t.at_least("at least", 0.75, 0.75)
        assert t.checks == [("at most", True, 0.0), ("at least", True, 0.0)]

    @pytest.mark.parametrize("holds, gap", [(True, -1e-9), (False, -0.5)])
    def test_verdict_checks_record_the_raw_triple(self, holds, gap):
        v = SimpleNamespace(holds=holds, gap=gap)
        derived, raw = _Trial(), _Trial()
        derived.holds("h", v)
        raw.check("h", v.holds, v.gap)
        derived.fails("f", v)
        raw.check("f", not v.holds, -v.gap)
        assert derived.checks == raw.checks

    def test_redraws_yield_the_limit_then_raise(self):
        seen = 0
        with pytest.raises(EnsembleMiscalibration, match="the probe draw"):
            for _ in _redraws("the probe draw"):
                seen += 1
        assert seen == REDRAW_LIMIT

    def test_redraws_left_early_do_not_raise(self):
        for k, _ in enumerate(_redraws("an early draw")):
            if k == 3:
                break
        assert k == 3


# Listed tolerances that are a library predicate's default, with the
# constant the suite's predicates apply.  Every other listed value is read
# by the suite's checks or redraw guards.
PREDICATE_DEFAULTS = {
    ("S2", "bj"): PREDICATE_RTOL,
    ("S3", "bj"): PREDICATE_RTOL,
    ("S4", "isosceles"): PREDICATE_RTOL,
    ("S4", "bj"): PREDICATE_RTOL,
    ("S5", "bj"): PREDICATE_RTOL,
    ("S6", "bj"): PREDICATE_RTOL,
    ("S7", "modulus"): RANK_RTOL,
    ("S8", "modulus"): RANK_RTOL,
    ("S8", "bj"): PREDICATE_RTOL,
    ("S9", "parallel"): PREDICATE_RTOL,
    ("S9", "dependence"): DEPENDENCE_RTOL,
    ("S10", "parallel"): PREDICATE_RTOL,
    ("S12", "parallel"): PREDICATE_RTOL,
    ("S13", "parallel"): PREDICATE_RTOL,
    ("S14", "parallel"): PREDICATE_RTOL,
    ("S14", "transfer"): PREDICATE_RTOL,
    ("S15", "witness"): PREDICATE_RTOL,
}

LISTED = [(sid, key) for sid, spec in SUITES.items() for key in spec.tolerances]


def _replay_lines(sid):
    lines = []
    for offset in range(3):
        replay_failure(sid, 1, offset, printer=lines.append)
    return lines


class TestListedTolerances:
    @pytest.mark.parametrize(
        "sid, key", LISTED, ids=[f"{sid}-{key}" for sid, key in LISTED]
    )
    def test_listed_tolerance_is_the_one_used(self, sid, key, monkeypatch):
        spec = SUITES[sid]
        value = spec.tolerances[key]
        if (sid, key) in PREDICATE_DEFAULTS:
            assert value == PREDICATE_DEFAULTS[sid, key]
            return
        before = _replay_lines(sid)
        # 200x moves every check-read value past the 7 printed digits of a
        # gap, and S13's angle guard past the seed-1 draws it accepts.
        moved = {**spec.tolerances, key: 200.0 * value}
        monkeypatch.setitem(SUITES, sid, dataclasses.replace(spec, tolerances=moved))
        assert _replay_lines(sid) != before


class TestBenchmarkSurface:
    # perfbench/workloads.py (verify-registry) calls the suite runners as
    # runner(cfg, offset, rng) and records a trial that raises on a fresh
    # _Trial; perfbench/tracer.py wraps _SINGLE_DRAWS.  A rename here would
    # break every run of that workload.
    def test_runners_take_cfg_offset_rng(self):
        for sid, spec in SUITES.items():
            params = list(inspect.signature(spec.runner).parameters)
            assert params == ["cfg", "offset", "rng"], sid

    def test_trial_surface(self):
        t = _Trial()
        assert t.ok and t.checks == []
        assert t.check("raised ValueError: probe", False) is False
        assert not t.ok
        assert t.checks == [("raised ValueError: probe", False, 0.0)]
        assert t.detail() == "raised ValueError: probe (gap=0.000000e+00)"

    def test_single_draw_table(self):
        assert set(_SINGLE_DRAWS) >= {"ginibre", "psd", "unitary"}
        rng = np.random.default_rng(0)
        for draw in _SINGLE_DRAWS.values():
            assert draw(rng, 3).shape == (3, 3)
