"""Tests for the deterministic optimizers in ``schatten_lab.search``."""

import inspect
import warnings

import numpy as np
import pytest

from schatten_lab.ensembles import dependent_pair, ginibre, nilpotent, normal_matrix
from schatten_lab.norms import FROBENIUS, INF, NormSpec, evaluator
from schatten_lab.ortho import bj_definitional
from schatten_lab import norms, parallel, search
from schatten_lab.search import (_arc_bound, _lp_normalize, circle_max, gamma_min,
                                 golden_section_max, multistart_ascent, nelder_mead_complex,
                                 sphere_starts)


def _bowl(center, scale=1.0):
    def f(g):
        return scale * abs(g - center) ** 2
    return f


class TestNelderMeadComplex:
    def test_converges_to_smooth_minimum(self):
        center = 0.3 - 1.7j
        g, v = nelder_mead_complex(_bowl(center), 2.0 + 1.0j, 0.5,
                                   xatol=1e-12, fatol=1e-20, maxfev=800)
        assert abs(g - center) <= 1e-9
        assert v <= 1e-18

    def test_converges_on_nonsmooth_minimum(self):
        center = -1.0 + 0.25j
        g, v = nelder_mead_complex(lambda z: abs(z - center), 0j, 0.1,
                                   xatol=1e-11, fatol=1e-14, maxfev=800)
        assert abs(g - center) <= 1e-9
        assert v == abs(g - center)

    def test_respects_evaluation_budget(self):
        calls = []

        def f(g):
            calls.append(g)
            return abs(g - 5.0) ** 2

        g, v = nelder_mead_complex(f, 0j, 1e-3, xatol=0.0, fatol=0.0, maxfev=25)
        assert len(calls) == 25
        # The returned pair is an evaluated vertex and its own value.
        assert g in calls and v == abs(g - 5.0) ** 2
        assert v < 25.0

    def test_deterministic(self):
        f = _bowl(1.0 + 1.0j, 3.0)
        first = nelder_mead_complex(f, -2j, 0.25, xatol=1e-10, fatol=1e-13, maxfev=800)
        again = nelder_mead_complex(f, -2j, 0.25, xatol=1e-10, fatol=1e-13, maxfev=800)
        assert first == again


def _polar_grid(radius):
    """The origin, then 16 rings of 16 angles out to ``radius``."""
    radii = radius * np.arange(1, 17) / 16
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    return np.concatenate([[0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()])


def _full_gamma_min(f_batch, f_scalar, radius, smooth=False):
    """``gamma_min`` without pruning: the whole grid as one batch, then the
    same refinement."""
    gammas = _polar_grid(radius)
    vals = np.asarray(f_batch(gammas), dtype=float)
    k = int(np.argmin(vals))
    return search._refine(f_batch, f_scalar, complex(gammas[k]), float(vals[k]), radius,
                          smooth)


# Every exact norm that is convex: the circle search may prune under these.
_CONVEX_SPECS = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
    NormSpec.induced(p) for p in (1.0, 2.0, INF)]
# The norms Birkhoff-James minimizes: those, and the vector norms.
_BJ_SPECS = _CONVEX_SPECS + [NormSpec.lp(p) for p in (1.0, 1.5, 2.0, 3.0)] + [
    NormSpec.max_norm()]


def _bj_problem(a, b, spec):
    """``gamma -> ||a + gamma b||`` as gamma_min callbacks, and the radius
    ``bj_definitional`` searches."""
    batch, scalar, exact = evaluator(spec)
    assert exact
    pad = (1,) * a.ndim

    def f_batch(gammas):
        return batch(a[None] + np.asarray(gammas).reshape((-1,) + pad) * b[None])

    def f_scalar(g):
        return scalar(a + g * b)

    return f_batch, f_scalar, 4.0 * scalar(a) / scalar(b)


def _bj_pairs(spec):
    """Seeded generic pairs, a pair with disjoint supports (flat rays under
    the spectral norm), and a pair already orthogonal: a generic ``a`` moved
    to its best approximation ``a + gamma* b``."""
    rng = np.random.default_rng(31)
    if spec.is_vector:
        pairs = [(ginibre(rng, 6)[0], ginibre(rng, 6)[0]) for _ in range(3)]
        x, y = np.zeros(6, dtype=complex), np.zeros(6, dtype=complex)
        x[:3], y[3:] = ginibre(rng, 3)[0], ginibre(rng, 3)[0]
    else:
        pairs = [(ginibre(rng, 4), ginibre(rng, 4)) for _ in range(3)]
        x, y = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
        x[:2, :2], y[2:, 2:] = ginibre(rng, 2), ginibre(rng, 2)
    a, b = pairs[0]
    g, _ = gamma_min(*_bj_problem(a, b, spec))
    return pairs + [(x, y), (a + g * b, b)]


class TestGammaMin:
    def test_finds_minimum_inside_radius(self):
        center = 0.8 * np.exp(0.3j)
        f = _bowl(center)
        g, v = gamma_min(lambda gs: np.abs(np.asarray(gs) - center) ** 2, f, radius=2.0)
        assert abs(g - center) <= 1e-8
        assert v <= 1e-15

    def test_never_worse_than_grid(self):
        # A flat function: the grid's first point (the origin) is kept.
        g, v = gamma_min(lambda gs: np.ones(len(gs)), lambda z: 1.0, radius=1.0)
        assert g == 0j and v == 1.0

    @pytest.mark.parametrize("spec", _BJ_SPECS, ids=str)
    def test_pruned_matches_full_grid(self, spec):
        for a, b in _bj_pairs(spec):
            f_batch, f_scalar, radius = _bj_problem(a, b, spec)
            assert gamma_min(f_batch, f_scalar, radius, spec.smooth) == _full_gamma_min(
                f_batch, f_scalar, radius, spec.smooth)

    @pytest.mark.parametrize("spec", _BJ_SPECS, ids=str)
    def test_skipped_points_never_below_grid_minimum(self, spec):
        for a, b in _bj_pairs(spec):
            f_batch, f_scalar, radius = _bj_problem(a, b, spec)
            seen = []

            def counted(gs):
                seen.extend(gs)
                return f_batch(gs)

            gamma_min(counted, f_scalar, radius)
            grid = _polar_grid(radius)
            full = f_batch(grid)
            skipped = ~np.isin(grid, seen)
            assert len(set(seen)) == len(seen)
            assert (full[skipped] > full.min()).all()

    def test_bowl_evaluates_part_of_the_grid(self):
        center = 0.8 * np.exp(0.3j)
        for f_batch, f_scalar, pruned in (
                (lambda gs: np.abs(np.asarray(gs) - center) ** 2, _bowl(center), True),
                (lambda gs: np.ones(len(gs)), lambda z: 1.0, False)):
            seen = []

            def counted(gs, f_batch=f_batch):
                seen.extend(gs)
                return f_batch(gs)

            gamma_min(counted, f_scalar, radius=2.0)
            assert len(set(seen)) == len(seen)
            assert (len(seen) < 257) if pruned else (len(seen) == 257)

    def test_non_finite_grid_value_raises(self):
        for bad in (np.nan, np.inf):
            def f_batch(gs, bad=bad):
                return np.where(np.abs(np.asarray(gs)) > 0.5, bad, 1.0)

            with pytest.raises(ValueError, match="non-finite"):
                gamma_min(f_batch, lambda z: 1.0, radius=1.0)


def _counted(f):
    """``f`` wrapped to count its calls in ``calls[0]``."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _reference_min(f_scalar, g, v, radius):
    """Tight Nelder-Mead restarted from (g, v) on ever smaller simplices;
    keeps any point lower than the one it started from."""
    h = radius / 16
    for _ in range(8):
        gn, vn = nelder_mead_complex(f_scalar, g, h, xatol=1e-13 * radius,
                                     fatol=1e-16 * abs(v), maxfev=1000)
        if vn < v:
            g, v = gn, vn
        h /= 8
    return g, v


def _smooth_pairs(spec):
    """Generic, disjoint, commuting positive semidefinite (vectors: nonnegative)
    and dependent pairs, ``a = c b``, whose minimum is a cone's apex."""
    rng = np.random.default_rng(37)
    n = 6 if spec.is_vector else 4
    shape = (n,) if spec.is_vector else (n, n)

    def draw():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x, y = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    if spec.is_vector:
        x[:3], y[3:] = draw()[:3], draw()[:3]
        psd = (np.abs(draw()), np.abs(draw()))
    else:
        x[:2, :2], y[2:, 2:] = draw()[:2, :2], draw()[:2, :2]
        q, _ = np.linalg.qr(draw())
        psd = tuple(q @ np.diag(np.abs(rng.standard_normal(n))) @ q.conj().T for _ in range(2))
    b = draw()
    return [(draw(), draw()), (draw(), draw()), (x, y), psd, ((0.7 - 0.4j) * b, b)]


class TestNewtonRefiner:
    """``gamma_min(..., smooth=True)``: the quadratic-model Newton refiner."""

    def test_frobenius_closed_form_without_scalar_calls(self):
        spec = NormSpec.schatten(2.0)
        *pairs, (a, b) = _bj_pairs(spec)
        for x, y in pairs:
            f_batch, f_scalar, radius = _bj_problem(x, y, spec)
            f_scalar, calls = _counted(f_scalar)
            g, _ = gamma_min(f_batch, f_scalar, radius, smooth=True)
            assert calls == [0]
            assert abs(g - (-np.vdot(y, x) / np.vdot(y, y))) <= 1e-9
        # The last pair is orthogonal to within about 6e-9 in gamma, where the
        # values are flat to rounding, so only the minimum is pinned there.
        f_batch, f_scalar, radius = _bj_problem(a, b, spec)
        _, v = gamma_min(f_batch, f_scalar, radius, smooth=True)
        gs = -np.vdot(b, a) / np.vdot(b, b)
        assert abs(v - np.linalg.norm(a + gs * b)) <= 1e-15 * np.linalg.norm(a)

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1.5), NormSpec.schatten(3.0),
                                      NormSpec.lp(1.5), NormSpec.lp(3.0)], ids=str)
    def test_matches_restarted_reference(self, spec):
        assert spec.smooth
        for a, b in _smooth_pairs(spec):
            f_batch, f_scalar, radius = _bj_problem(a, b, spec)
            g, v = gamma_min(f_batch, f_scalar, radius, smooth=True)
            _, ref = _reference_min(f_scalar, g, v, radius)
            # Within 1e-6 of bj_definitional's tolerance, 1e-7 ||a||.
            assert v - ref <= 1e-13 * f_scalar(0j)

    def test_deterministic(self):
        a, b = _bj_pairs(NormSpec.schatten(1.5))[0]
        problem = _bj_problem(a, b, NormSpec.schatten(1.5))
        assert gamma_min(*problem, smooth=True) == gamma_min(*problem, smooth=True)

    def test_non_finite_stencil_value_raises(self):
        # Finite on the grid, non-finite off it: only the stencil sees NaN.
        grid = _polar_grid(1.0)
        center = 0.3 + 0.2j
        for bad in (np.nan, np.inf):
            def f_batch(gs, bad=bad):
                gs = np.asarray(gs)
                return np.where(np.isin(gs, grid), np.abs(gs - center) ** 2, bad)

            with pytest.raises(ValueError, match="non-finite"):
                gamma_min(f_batch, lambda z: abs(z - center) ** 2, radius=1.0, smooth=True)

    def test_other_norms_refine_by_nelder_mead(self):
        smooth = [spec for spec in _BJ_SPECS if spec.smooth]
        assert smooth == [NormSpec.schatten(p) for p in (1.5, 2.0, 3.0)] + [
            NormSpec.lp(p) for p in (1.5, 2.0, 3.0)]
        for spec in _BJ_SPECS:
            if spec.smooth:
                continue
            for a, b in _bj_pairs(spec):
                f_batch, f_scalar, radius = _bj_problem(a, b, spec)
                g, v = _full_gamma_min(f_batch, f_scalar, radius, smooth=False)
                verdict = bj_definitional(a, b, spec)
                assert verdict.extremal_scalar == g
                assert verdict.gap == v - f_scalar(0j)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_few_evaluations_on_smooth_norms(self, p, monkeypatch):
        # Measured: 6, 4 and 6 batched refinement calls and no scalar calls;
        # Nelder-Mead made about 130 scalar calls on this pair.
        counts = {}
        refine = search._refine

        def counting(f_batch, f_scalar, *args):
            f_batch, counts["batch"] = _counted(f_batch)
            f_scalar, counts["scalar"] = _counted(f_scalar)
            return refine(f_batch, f_scalar, *args)

        monkeypatch.setattr(search, "_refine", counting)
        rng = np.random.default_rng(41)
        a, b = ginibre(rng, 4), ginibre(rng, 4)
        gamma_min(*_bj_problem(a, b, NormSpec.schatten(p)), smooth=True)
        assert counts["batch"][0] <= 12
        assert counts["scalar"][0] <= 20

    @pytest.mark.parametrize("spec", [FROBENIUS, NormSpec.schatten(1.5),
                                      NormSpec.schatten(3.0)], ids=str)
    def test_extreme_scales_refine_as_at_scale_one(self, spec, monkeypatch):
        # Values near 1e200 overflowed the model's determinant, and near
        # 1e-200 underflowed it, so the model read as indefinite and
        # Nelder-Mead took over with about 130 scalar calls.
        scalar_calls = []
        refine = search._refine

        def counting(f_batch, f_scalar, *args):
            f_scalar, calls = _counted(f_scalar)
            scalar_calls.append(calls)
            return refine(f_batch, f_scalar, *args)

        monkeypatch.setattr(search, "_refine", counting)
        rng = np.random.default_rng(5)
        a, b = ginibre(rng, 4), ginibre(rng, 4)
        ref = bj_definitional(a, b, spec)
        radius = 4.0 * evaluator(spec)[1](a) / evaluator(spec)[1](b)
        for s in (1e-200, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = bj_definitional(s * a, s * b, spec)
            assert verdict.holds == ref.holds
            assert abs(verdict.extremal_scalar - ref.extremal_scalar) <= 1e-9 * radius
        assert scalar_calls == [[0]] * 4


def _probed(f):
    """``f`` wrapped to record every (x, f(x)) it is asked for."""
    probes = []

    def g(t):
        v = f(t)
        probes.append((t, v))
        return v

    return g, probes


class TestGoldenSectionMax:
    # Brackets of one circle_max window (2 pi / 720 on either side of a grid
    # maximum), with the peak off-centre.
    @pytest.mark.parametrize("t0", [0.3, 1.7, 4.0])
    def test_smooth_peak_in_few_evaluations(self, t0):
        f, probes = _probed(lambda t: np.cos(t - t0))
        x, v = golden_section_max(f, t0 - 0.006, t0 + 0.011)
        assert len(probes) <= 10
        assert v >= 1.0 - 1e-15
        assert abs(x - t0) <= 1e-6

    @pytest.mark.parametrize("left, right", [(1.0, 1.0), (1.0, 3.0), (0.2, 5.0)])
    def test_v_kink_resolved(self, left, right):
        # A peak of height 1 at t0 with slopes ``left`` and ``right``.
        t0 = 1.7
        f, probes = _probed(lambda t: 1.0 - (left * (t0 - t) if t < t0 else right * (t - t0)))
        x, v = golden_section_max(f, t0 - 0.003, t0 + 0.01)
        assert v >= 1.0 - 1e-12
        assert len(probes) <= 60

    def test_constant_returns_a_probe(self):
        f, probes = _probed(lambda t: 2.5)
        x, v = golden_section_max(f, -1.0, 2.0)
        assert (x, v) in probes and v == 2.5

    def test_bimodal_returns_best_probe(self):
        # Two peaks on the bracket; whichever the search settles on, the
        # result is its best evaluated point.
        f, probes = _probed(lambda t: max(np.cos(6.0 * (t - 0.1)), 0.99 * np.cos(6.0 * (t - 0.9))))
        x, v = golden_section_max(f, 0.0, 1.0)
        assert (x, v) in probes
        assert v == max(val for _, val in probes)

    def test_deterministic(self):
        a, b = ginibre(np.random.default_rng(31), 4), ginibre(np.random.default_rng(37), 4)
        _, f_scalar, _ = _circle_problem(a, b, NormSpec.schatten(1.0))
        first = golden_section_max(f_scalar, 0.5, 0.52)
        assert golden_section_max(f_scalar, 0.5, 0.52) == first


def _circle_problem(a, b, spec):
    """``theta -> ||a + e^{i theta} b||`` as circle_max callbacks, and ``||a||``."""
    batch, scalar, exact = evaluator(spec)
    assert exact

    def f_batch(thetas):
        lam = np.exp(1j * np.asarray(thetas))[:, None, None]
        return batch(a[None] + lam * b[None])

    def f_scalar(t):
        return scalar(a + np.exp(1j * t) * b)

    return f_batch, f_scalar, scalar(a)


def _pairs():
    rng = np.random.default_rng(17)
    return [(ginibre(rng, n), ginibre(rng, n)) for n in (4, 8) for _ in range(2)]


def _assert_arcs_bounded(f_batch, grid, origin):
    """A dense 33-point maximum inside every arc of 32, 16, 8, 4, 2 and 1
    grid spacings never exceeds the bound from the arc's endpoint values."""
    fine = np.linspace(0.0, 1.0, 33)
    vals = f_batch(np.arange(grid) * 2 * np.pi / grid)
    for steps in (32, 16, 8, 4, 2, 1):
        lo = np.arange(0, grid, steps)
        m = np.maximum(vals[lo], vals[(lo + steps) % grid])
        dense = f_batch(((lo[:, None] + steps * fine) * 2 * np.pi / grid).ravel())
        assert (dense.reshape(len(lo), -1).max(axis=1) <= _arc_bound(m, steps, grid, origin)).all()


class TestCircleMax:
    @pytest.mark.parametrize("spec", _CONVEX_SPECS, ids=str)
    def test_pruned_matches_full_grid(self, spec):
        for a, b in _pairs():
            f_batch, f_scalar, na = _circle_problem(a, b, spec)
            full = circle_max(f_batch, f_scalar)
            assert circle_max(f_batch, f_scalar, origin=na) == full

    @pytest.mark.parametrize("spec", _CONVEX_SPECS, ids=str)
    def test_pruned_matches_full_grid_on_structured_pairs(self, spec):
        # A dependent pair, and a normal and a nilpotent operand against I.
        # ||t + lambda I|| is flat in lambda under S2, I1 and I-inf for the
        # nilpotent t, so there nothing can be pruned.
        rng = np.random.default_rng(41)
        for a, b in (dependent_pair(rng, 8), (normal_matrix(rng, 8), np.eye(8, dtype=complex)),
                     (nilpotent(rng, 8), np.eye(8, dtype=complex))):
            f_batch, f_scalar, na = _circle_problem(a, b, spec)
            assert circle_max(f_batch, f_scalar, origin=na) == circle_max(f_batch, f_scalar)

    @pytest.mark.parametrize("grid", [8, 16, 32, 64, 96, 256])
    def test_pruned_matches_full_grid_on_small_grids(self, grid):
        for a, b in _pairs():
            for spec in (NormSpec.schatten(1.0), NormSpec.schatten(INF), NormSpec.induced(1.0)):
                f_batch, f_scalar, na = _circle_problem(a, b, spec)
                full = circle_max(f_batch, f_scalar, grid=grid)
                assert circle_max(f_batch, f_scalar, grid=grid, origin=na) == full

    def test_sub_arcs_never_exceed_the_bound(self):
        rng = np.random.default_rng(23)
        for spec in (NormSpec.schatten(1.0), NormSpec.schatten(3.0), NormSpec.schatten(INF),
                     NormSpec.induced(1.0), NormSpec.induced(INF)):
            f_batch, _, na = _circle_problem(ginibre(rng, 4), ginibre(rng, 4), spec)
            _assert_arcs_bounded(f_batch, 720, na)

    def test_radius_sub_arcs_never_exceed_the_bound(self):
        # lambda_max(Re(z A)) is sublinear: F(0) = 0, and a negative
        # endpoint maximum bounds the arc by itself.
        for a in (-np.diag([3.0, 1.0]), ginibre(np.random.default_rng(29), 4)):
            def tops(thetas, a=a):
                ph = np.exp(1j * thetas)[:, None, None]
                return np.linalg.eigvalsh(0.5 * (ph * a + np.conj(ph) * a.conj().T))[:, -1]

            _assert_arcs_bounded(tops, 1024, 0.0)

    def test_near_equal_peaks_far_apart(self):
        # F(z) = max_i |alpha_i + beta_i z| has peaks |alpha_i| + |beta_i| at
        # opposite phases, 1e-9 apart; the pruned search keeps the higher.
        alpha = np.array([1.0, 1.0])
        beta = np.array([np.exp(-0.3j), (1.0 + 1e-9) * np.exp(-(0.3 + np.pi) * 1j)])

        def f_batch(thetas):
            return np.abs(alpha + beta * np.exp(1j * np.asarray(thetas))[:, None]).max(axis=1)

        def f_scalar(t):
            return float(f_batch([t])[0])

        t, v = circle_max(f_batch, f_scalar, origin=1.0)
        assert abs(v - (2.0 + 1e-9)) <= 1e-12
        assert abs(t - (0.3 + np.pi)) <= 1e-5
        assert (t, v) == circle_max(f_batch, f_scalar)

    def test_few_evaluations_per_refined_window(self, monkeypatch):
        # A smooth peak takes Brent's method a handful of evaluations;
        # golden section alone needs about 50 a window.
        windows = []
        refine = search.golden_section_max

        def counting(f, lo, hi, tol):
            windows.append(lo)
            return refine(f, lo, hi, tol)

        monkeypatch.setattr(search, "golden_section_max", counting)
        a, b = _pairs()[2]
        f_batch, f_scalar, na = _circle_problem(a, b, NormSpec.schatten(2.0))
        f, probes = _probed(f_scalar)
        circle_max(f_batch, f, origin=na)
        assert windows
        assert len(probes) <= 20 * len(windows)

    def test_bound_evaluates_part_of_the_grid(self):
        a, b = _pairs()[0]
        f_batch, f_scalar, na = _circle_problem(a, b, NormSpec.schatten(2.0))
        for origin, grid in ((na, 720), (None, 720), (None, 96)):
            seen = []

            def counted(thetas):
                seen.extend(thetas)
                return f_batch(thetas)

            circle_max(counted, f_scalar, grid=grid, origin=origin)
            assert len(set(seen)) == len(seen)
            if origin is None:
                assert len(seen) == grid
            else:
                assert len(seen) < grid


def _angles_per_call(monkeypatch, module, run):
    """Mean number of angles ``module.circle_max`` passes to ``f_batch``
    per call while ``run()`` runs."""
    counts, calls = [], []
    inner = module.circle_max

    def counted(f_batch, f_scalar, **kwargs):
        def f(thetas):
            counts.append(len(thetas))
            return f_batch(thetas)

        calls.append(1)
        return inner(f, f_scalar, **kwargs)

    monkeypatch.setattr(module, "circle_max", counted)
    run()
    return sum(counts) / len(calls)


class TestEvaluationCounts:
    """Ceilings on the circle search's work on fixed 8x8 pairs: the counts
    when the first level took every 32nd angle were 51 (S1), 49.75 (S-inf,
    I2) and 44.75 (Hilbert radius) per call; every 8th angle gave about
    105 and 135."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(43)
        return [(ginibre(rng, 8), ginibre(rng, 8)) for _ in range(4)]

    @pytest.mark.parametrize("spec, ceiling", [
        (NormSpec.schatten(1.0), 56), (NormSpec.schatten(INF), 55), (NormSpec.induced(2.0), 55),
    ], ids=str)
    def test_parallel_angles(self, monkeypatch, spec, ceiling):
        def run():
            for a, b in self._pairs():
                parallel.parallel_definitional(a, b, spec)

        assert _angles_per_call(monkeypatch, parallel, run) <= ceiling

    def test_hilbert_radius_phases(self, monkeypatch):
        def run():
            for a, _ in self._pairs():
                norms.numerical_radius_hilbert(a)

        assert _angles_per_call(monkeypatch, norms, run) <= 50

    def test_frobenius_calls_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        a, b = self._pairs()[0]
        batch, scalar, _ = evaluator(FROBENIUS)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        scalar(a)
        batch(np.stack([a, b]))
        norms.schatten_norm(a, 2.0)
        evaluator(NormSpec.schatten(2.0))[0](np.stack([a, b]))
        parallel.parallel_definitional(a, b, FROBENIUS)


def _form_problem(n=3, seed=7):
    """Maximize |x* m x| over a unit sphere; callbacks take (k, n) stacks.

    einsum keeps every row's arithmetic independent of the other rows, so a
    batch and a single-row call give bit-identical results.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def value(x):
        return np.abs(np.einsum("...i,ij,...j->...", x.conj(), m, x))

    def grad(x):
        mx = np.einsum("ij,...j->...i", m, x)
        mhx = np.einsum("ji,...j->...i", m.conj(), x)
        f = np.einsum("...i,...i->...", x.conj(), mx)[..., None]
        return np.conj(f) * mx + f * mhx

    return value, grad


def _reference_ascent(value, grad, p, pts, max_steps):
    """One start at a time, with the per-start rules of ``multistart_ascent``."""
    def one(f, x):
        return f(x[None])[0]

    def normalize(x):
        # keepdims: an array power, rounded as numpy rounds a stack's row norms
        return x / (np.abs(x) ** p).sum(keepdims=True) ** (1.0 / p)

    def tangent(g, x):
        # Remove the Re<., .> component along the lp normal |x|^{p-1} x/|x|.
        ax = np.abs(x)
        phase = np.divide(x, ax, out=np.zeros_like(x), where=ax > 0)
        normal = ax ** (p - 1.0) * phase
        along = (normal.conj() * g).real.sum() / (ax ** (2.0 * p - 2.0)).sum()
        return g - along * normal

    best_v, best_x = -np.inf, None
    for x0 in pts:
        x = normalize(x0)
        v = one(value, x)
        step, stall = 0.5, 0
        for _ in range(max_steps):
            g = one(grad, x)
            gn = np.linalg.norm(g, axis=-1)  # the row norm, rounded as in a stack
            if not np.isfinite(gn):
                break
            t = tangent(g, x)
            tn = np.linalg.norm(t, axis=-1)
            if not tn > 1e-8 * gn:
                break
            d, s, gained = t / tn, step, 0.0
            for _ in range(60):
                xn = normalize(x + s * d)
                vn = one(value, xn)
                if vn > v:
                    gained, x, v, step = vn - v, xn, vn, min(2.0 * s, 1.0)
                    break
                s *= 0.5
            if gained == 0.0:
                break
            stall = stall + 1 if gained <= 1e-14 * max(abs(v), 1e-300) else 0
            if stall >= 3:
                break
        if v > best_v:
            best_v, best_x = v, x
    return best_v, best_x


class TestMultistartAscent:
    def test_matches_per_start_reference(self):
        value, grad = _form_problem()
        extra = [e for e in np.eye(3, dtype=complex)]
        pts = np.concatenate([np.eye(3, dtype=complex), sphere_starts(3, 8, 3)])
        for p in (2.0, 3.0):
            for max_steps in (0, 1, 5, 200):
                v, x = multistart_ascent(value, grad, p, 3, starts=8,
                                         max_steps=max_steps, seed=3, extra_starts=extra)
                rv, rx = _reference_ascent(value, grad, p, pts, max_steps)
                assert v == rv
                assert np.array_equal(x, rx)

    def test_critical_start_takes_no_step(self):
        # At a basis vector the gradient of |x* d x| is normal to every lp
        # sphere, so the start stops before any backtracking.
        d = np.diag([2.0, -0.5, 0.3])
        calls = []

        def value(x):
            calls.append(len(x))
            return np.abs(np.einsum("...i,ij,...j->...", x.conj(), d, x))

        def grad(x):
            f = np.einsum("...i,ij,...j->...", x.conj(), d, x)[..., None]
            return 2.0 * np.conj(f) * (x @ d)

        for p in (1.5, 2.0, 3.0):
            calls.clear()
            v, x = multistart_ascent(value, grad, p, 3, starts=0,
                                     extra_starts=[np.eye(3, dtype=complex)[0]])
            assert calls == [1]
            assert v == 2.0

    def test_duplicate_starts_resolve_to_earliest(self):
        # |x_0|^2 is maximal at e0 and at i e0; a zero gradient stops every
        # start where it began, so the two tie exactly.
        def value(x):
            return np.abs(x[..., 0]) ** 2

        def grad(x):
            return np.zeros_like(x)

        e0 = np.eye(3, dtype=complex)[0]
        for first in (e0, 1j * e0):
            v, x = multistart_ascent(value, grad, 2.0, 3, starts=4,
                                     extra_starts=[first, 1j * first, first])
            assert v == 1.0
            assert np.array_equal(x, first)

    def test_deterministic(self):
        value, grad = _form_problem(n=4, seed=11)
        first = multistart_ascent(value, grad, 3.0, 4, starts=16, seed=5)
        again = multistart_ascent(value, grad, 3.0, 4, starts=16, seed=5)
        assert first[0] == again[0]
        assert np.array_equal(first[1], again[1])

    def test_non_finite_gradient_stops_only_its_start(self):
        value, grad = _form_problem()
        bad = np.array([0.0, 0.0, 1.0], dtype=complex)
        seen = []

        def guarded(x):
            hit = np.all(x == bad, axis=-1)
            seen.append(int(hit.sum()))
            g = grad(x)
            g[hit] = np.nan
            return g

        v, x = multistart_ascent(value, guarded, 2.0, 3, starts=8, seed=3,
                                 extra_starts=[bad])
        # The bad start reached the gradient once and then dropped out ...
        assert seen[0] == 1 and sum(seen) == 1
        # ... while the other starts ran exactly as they do without it.
        rv, rx = multistart_ascent(value, grad, 2.0, 3, starts=8, seed=3)
        assert v == rv and np.array_equal(x, rx)
        assert len(seen) > 1

    def test_zero_steps_returns_best_start(self):
        value, grad = _form_problem(n=4, seed=2)
        calls = []

        def counted(x):
            calls.append(len(x))
            return grad(x)

        extra = [np.ones(4, dtype=complex), np.arange(4) + 1j]
        v, x = multistart_ascent(value, counted, 3.0, 4, starts=6,
                                 max_steps=0, seed=9, extra_starts=extra)
        pts = _lp_normalize(np.concatenate([np.asarray(extra), sphere_starts(4, 6, 9)]), 3.0)
        vals = value(pts)
        k = int(np.argmax(vals))
        assert calls == []
        assert v == vals[k]
        assert np.array_equal(x, pts[k])


class TestTracedParameters:
    # perfbench/tracer.py binds these parameters by name to count the
    # optimizers' evaluations; a rename would break every traced run.
    @pytest.mark.parametrize("name, params", [
        ("gamma_min", ("f_batch", "f_scalar")),
        ("circle_max", ("f_batch", "f_scalar")),
        ("multistart_ascent", ("value_fn", "grad_fn", "starts", "extra_starts")),
        ("hill_climb", ("value_fn",)),
    ])
    def test_tracer_parameter_names(self, name, params):
        sig = inspect.signature(getattr(search, name))
        assert set(params) <= set(sig.parameters)
        if name == "multistart_ascent":
            assert isinstance(sig.parameters["starts"].default, int)

    def test_refiner_keeps_its_name_and_parameters(self):
        # perfbench reports the refiner's self time under the span
        # ``search.golden_section_max``; a rename would zero it silently.
        sig = inspect.signature(search.golden_section_max)
        assert list(sig.parameters) == ["f", "lo", "hi", "tol"]
