"""Tests for the deterministic optimizers in ``schatten_lab.search``."""

import inspect
import warnings

import numpy as np
import pytest

from schatten_lab.ensembles import dependent_pair, ginibre, nilpotent, normal_matrix
from schatten_lab.norms import FROBENIUS, INF, NormSpec, evaluator
from schatten_lab.ortho import bj_definitional
from schatten_lab import cmatrix, norms, ortho, parallel, search
from schatten_lab.search import (_arc_bound, _CutModel, _lp_normalize, circle_max,
                                 gamma_min, golden_section_max, multistart_ascent,
                                 sphere_starts)


def _bowl(center):
    def f(g):
        return abs(g - center) ** 2
    return f


def _bowl_cuts(center):
    """Values and slopes of ``|g - center|^2``: its differential at g is
    ``Re(delta * 2 conj(g - center))``."""
    def cuts(gs):
        gs = np.asarray(gs)
        return np.abs(gs - center) ** 2, 2.0 * np.conj(gs - center)
    return cuts


def _flat_cuts(gs):
    return np.ones(len(gs)), np.zeros(len(gs), dtype=complex)


def _vertex_min(rows):
    """The master LP's minimum by brute force: t at the best feasible vertex,
    each the solution of three rows ``a . (x, y, t) = c`` taken tight."""
    best = np.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            for k in range(j + 1, len(rows)):
                a = np.array([rows[n][:3] for n in (i, j, k)])
                if abs(np.linalg.det(a)) < 1e-12:
                    continue
                w = np.linalg.solve(a, [rows[n][3] for n in (i, j, k)])
                slack = np.array([r[3] - np.dot(r[:3], w) for r in rows])
                if (slack <= 1e-9 * (1.0 + np.abs([r[3] for r in rows]))).all():
                    best = min(best, w[2])
    return best


def _random_cuts(rng, n, kind):
    """(x, y, f, gx, gy) for n cuts: generic, or with the degeneracies the
    refiner meets -- repeated cuts, parallel ones, cuts through one point
    (a cone's apex), flat ones and zero slopes in one coordinate."""
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    f = rng.uniform(0.5, 2.0, size=n)
    g = rng.standard_normal((n, 2)) * 3.0
    if kind == "repeated":
        pts[1::2], f[1::2], g[1::2] = pts[::2][:n // 2], f[::2][:n // 2], g[::2][:n // 2]
    elif kind == "parallel":
        g[:] = g[0]
    elif kind == "apex":  # every cut passes through (0.2, -0.1, 1)
        f = 1.0 + g[:, 0] * (pts[:, 0] - 0.2) + g[:, 1] * (pts[:, 1] + 0.1)
    elif kind == "flat":
        g[::3] = 0.0
    elif kind == "axis":
        g[::2, 0] = 0.0
        g[1::2, 1] = 0.0
    return [(x, y, fk, gx, gy) for (x, y), fk, (gx, gy) in zip(pts, f, g)]


class TestCutModel:
    """``search._CutModel``, the cutting plane's master LP, against the
    brute-force minimum over every vertex of the same program."""

    @pytest.mark.parametrize("kind", ["generic", "repeated", "parallel", "apex", "flat", "axis"])
    def test_matches_vertex_enumeration(self, kind):
        rng = np.random.default_rng(53)
        for _ in range(6):
            box = (-1.0 - rng.uniform(), 1.0 + rng.uniform(), -1.5, 0.5)
            model = _CutModel(*box)
            cuts = _random_cuts(rng, 9, kind)
            for n, cut in enumerate(cuts, 1):
                model.add(*cut)
                t = model.solve()
                ref = _vertex_min(model.rows)
                assert abs(t - ref) <= 1e-9 * (1.0 + abs(ref))
                # The basic solution meets every row and lies in the box.
                assert box[0] - 1e-12 <= model.x <= box[1] + 1e-12
                assert box[2] - 1e-12 <= model.y <= box[3] + 1e-12
                for x, y, f, gx, gy in cuts[:n]:
                    assert t >= f + gx * (model.x - x) + gy * (model.y - y) - 1e-9

    def test_first_cut_opens_at_its_lowest_corner(self):
        for gx, gy, corner in ((2.0, 1.0, (-1.0, -2.0)), (-2.0, 1.0, (1.0, -2.0)),
                               (2.0, -1.0, (-1.0, 2.0)), (0.0, 0.0, (-1.0, -2.0))):
            model = _CutModel(-1.0, 1.0, -2.0, 2.0)
            model.add(0.0, 0.0, 1.0, gx, gy)
            assert (model.x, model.y) == corner
            assert model.solve() == 1.0 + gx * corner[0] + gy * corner[1]

    def test_near_parallel_cuts_keep_basic_rows_tight(self):
        # Cuts of a smooth bowl at points 1e-3 to 1e-8 apart are nearly
        # parallel.  The basic solution meets its own rows to rounding, so
        # a copy of a basic row (the cutting plane re-evaluating the model's
        # argmin) is met and moves nothing, rather than cycling.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            c = complex(*rng.uniform(-0.3, 0.3, 2))
            model = _CutModel(-1.0, 1.0, -1.0, 1.0)
            for _ in range(12):
                z = c + 10.0 ** -rng.uniform(3, 8) * complex(*rng.standard_normal(2))
                g = 6.0 * (z - c)
                model.add(z.real, z.imag, 3.0 * abs(z - c) ** 2 + 0.97, g.real, g.imag)
                model.solve()
            for b in model.basis:
                ax, ay, at, rhs = model.rows[b]
                assert abs(rhs - (ax * model.x + ay * model.y + at * model.t)) <= 1e-15
            state = (model.x, model.y, model.t, tuple(model.basis))
            model.rows.extend([model.rows[b] for b in model.basis])
            model.solve()
            assert (model.x, model.y, model.t, tuple(model.basis)) == state

    def test_deterministic(self):
        def run():
            model = _CutModel(-1.0, 1.0, -1.0, 1.0)
            out = []
            for cut in _random_cuts(np.random.default_rng(59), 12, "apex"):
                model.add(*cut)
                out.append((model.solve(), model.x, model.y, tuple(model.basis)))
            return out

        assert run() == run()


# Every exact norm that is convex: the circle search may prune under these
# (induced 2 is Schatten inf).
_CONVEX_SPECS = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
    NormSpec.induced(p) for p in (1.0, INF)]
# The norms Birkhoff-James minimizes: those, and the vector norms.
_BJ_SPECS = _CONVEX_SPECS + [NormSpec.lp(p) for p in (1.0, 1.5, 2.0, 3.0)] + [
    NormSpec.max_norm()]


def _bj_problem(a, b, spec):
    """``gamma -> ||a + gamma b||`` as gamma_min's callbacks, the radius
    ``bj_definitional`` searches and the cut oracle, as ``(f_batch,
    f_scalar, radius, cuts)``."""
    batch, scalar, exact = evaluator(spec)
    assert exact
    a, b = cmatrix.as_pair(a, b, vector=spec.is_vector)
    pad = (1,) * a.ndim
    cut = norms._cut_oracle(spec, b)

    def pencil(gammas):
        return a[None] + np.asarray(gammas).reshape((-1,) + pad) * b[None]

    def f_scalar(g):
        return scalar(a + g * b)

    return (lambda gs: batch(pencil(gs))), f_scalar, 4.0 * scalar(a) / scalar(b), (
        lambda gs: cut(pencil(gs)))


def _bj_min(a, b, spec, smooth=None):
    """``gamma_min`` on ``_bj_problem``, smooth as ``spec`` unless given."""
    f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
    return gamma_min(f_batch, f_scalar, radius, spec.smooth if smooth is None else smooth,
                     cuts=cuts)


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
    g, _, _ = _bj_min(a, b, spec, smooth=False)
    return pairs + [(x, y), (a + g * b, b)]


class TestGammaMin:
    def test_finds_minimum_inside_radius(self):
        # A bowl: smooth at its zero minimum, which no norm is.  Its values
        # near the centre are the squared distance, so a stop at 1e-14 f(0)
        # resolves the position to the Verdict's 1e-7 of the radius
        # (measured: 1.2e-8 away).
        center = 0.8 * np.exp(0.3j)
        f = _bowl(center)
        g, v, lower = gamma_min(lambda gs: np.abs(np.asarray(gs) - center) ** 2, f,
                                radius=2.0, cuts=_bowl_cuts(center))
        assert abs(g - center) <= 1e-7 * 2.0
        assert v <= 1e-15
        assert 0.0 <= lower <= v

    def test_finds_kinked_minimum_inside_radius(self):
        # A cone, kinked at its minimum, is resolved to rounding.
        center = 0.8 * np.exp(0.3j)

        def cone_cuts(gs):
            d = np.asarray(gs) - center
            return np.abs(d), np.conj(d) / np.maximum(np.abs(d), 1e-300)

        g, v, lower = gamma_min(lambda gs: np.abs(np.asarray(gs) - center),
                                lambda z: abs(z - center), radius=2.0, cuts=cone_cuts)
        assert abs(g - center) <= 1e-8
        assert 0.0 <= lower <= v <= 1e-15

    def test_smooth_minimum_is_resolved_off_zero(self):
        # A bowl above 1: its values round at about 1e-16, so the position
        # is resolved to about sqrt of the stopping gap, not to rounding.
        center = 0.8 * np.exp(0.3j)
        v0 = abs(center) ** 2 + 1.0  # f(0), the unit of the stop

        def cuts(gs):
            vals, slopes = _bowl_cuts(center)(gs)
            return vals + 1.0, slopes

        g, v, lower = gamma_min(lambda gs: np.abs(np.asarray(gs) - center) ** 2 + 1.0,
                                lambda z: abs(z - center) ** 2 + 1.0, radius=2.0,
                                cuts=cuts)
        assert abs(g - center) <= 1e-6
        assert lower <= 1.0 <= v <= lower + search._CUT_GAP * v0

    def test_never_worse_than_start(self):
        # A flat function: the start, gamma = 0, is kept, and its cuts bound
        # the minimum at once.
        g, v, lower = gamma_min(lambda gs: np.ones(len(gs)), lambda z: 1.0, radius=1.0,
                                cuts=_flat_cuts)
        assert g == 0j and v == 1.0 and lower == 1.0

    @pytest.mark.parametrize("spec", _BJ_SPECS, ids=str)
    def test_never_above_the_start(self, spec):
        # Generic, disjoint and already orthogonal pairs, a dependent pair
        # (a cone's apex) and b = -a (a zero minimum): the value is at most
        # f(0) = ||a||, and the bound, where there is one, is below it.
        pairs = _bj_pairs(spec)
        a, b = pairs[0]
        for x, y in pairs + [((0.7 - 0.4j) * b, b), (a, -a)]:
            f_batch, f_scalar, radius, cuts = _bj_problem(x, y, spec)
            g, v, lower = gamma_min(f_batch, f_scalar, radius, spec.smooth, cuts=cuts)
            assert v <= f_batch(np.array([0j]))[0]
            assert v == f_batch(np.array([g]))[0] or v == f_scalar(g)
            assert lower is None or lower <= v

    @pytest.mark.parametrize("spec", _BJ_SPECS, ids=str)
    def test_non_finite_start_raises(self, spec):
        # ||a|| above the float range: the evaluator rejects the start, the
        # first value gamma_min asks for, naming the float range under every
        # norm although only the entries' moduli overflow.
        batch, scalar, _ = evaluator(spec)
        shape = (6,) if spec.is_vector else (4, 4)
        a, b = (1.5e308 + 1.5e308j) * np.ones(shape), np.ones(shape, dtype=complex)
        seen = []

        def f_batch(gs):
            seen.append(len(gs))
            return batch(a[None] + np.asarray(gs).reshape((-1,) + (1,) * a.ndim) * b[None])

        with pytest.raises(ValueError, match="evaluated to inf .*above the float range"):
            gamma_min(f_batch, lambda g: scalar(a + g * b), 1.0, spec.smooth, cuts=None)
        assert seen == [1]


def _counted(f):
    """``f`` wrapped to count its calls in ``calls[0]``."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _reference_min(f_scalar, g, v, radius):
    """Compass search from (g, v): move to the first of the eight points
    ``g + h d``, d in {+-1, +-i, +-1 +-i}, that lowers the value, and halve
    h once none does, from radius / 16 down to 1e-13 radius."""
    h = radius / 16
    steps = (1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
    while h > 1e-13 * radius:
        for d in steps:
            vn = f_scalar(g + h * d)
            if vn < v:
                g, v = g + h * d, vn
                break
        else:
            h /= 2
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
            f_batch, f_scalar, radius, cuts = _bj_problem(x, y, spec)
            f_scalar, calls = _counted(f_scalar)
            g, _, lower = gamma_min(f_batch, f_scalar, radius, smooth=True, cuts=cuts)
            assert calls == [0] and lower is None
            assert abs(g - (-np.vdot(y, x) / np.vdot(y, y))) <= 1e-9
        # The last pair is orthogonal to within about 6e-9 in gamma, where the
        # values are flat to rounding, so only the minimum is pinned there.
        _, v, _ = _bj_min(a, b, spec)
        gs = -np.vdot(b, a) / np.vdot(b, b)
        assert abs(v - np.linalg.norm(a + gs * b)) <= 1e-15 * np.linalg.norm(a)

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1.5), NormSpec.schatten(3.0),
                                      NormSpec.lp(1.5), NormSpec.lp(3.0)], ids=str)
    def test_matches_compass_search_reference(self, spec):
        assert spec.smooth
        for a, b in _smooth_pairs(spec):
            f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
            g, v, _ = gamma_min(f_batch, f_scalar, radius, smooth=True, cuts=cuts)
            _, ref = _reference_min(f_scalar, g, v, radius)
            # Within 1e-6 of bj_definitional's tolerance, 1e-7 ||a||.
            assert v - ref <= 1e-13 * f_scalar(0j)

    def test_deterministic(self):
        a, b = _bj_pairs(NormSpec.schatten(1.5))[0]
        assert _bj_min(a, b, NormSpec.schatten(1.5)) == _bj_min(a, b, NormSpec.schatten(1.5))

    def test_other_norms_refine_by_cutting_plane(self):
        # Off the smooth norms every result carries a certified bound.
        # Schatten 1 and inf (the operator norm) take Newton first, as
        # bj_definitional asks, and keep its point only within _CERTIFY f(0)
        # of the bound of the nine cuts around it, one oracle call; the
        # others go straight to the cutting plane, which stops within
        # _CUT_GAP f(0).
        smooth = [spec for spec in _BJ_SPECS if spec.smooth]
        assert smooth == [NormSpec.schatten(p) for p in (1.5, 2.0, 3.0)] + [
            NormSpec.lp(p) for p in (1.5, 2.0, 3.0)]
        certified = 0
        for spec in _BJ_SPECS:
            if spec.smooth:
                continue
            newton = spec.kind == "schatten"
            for a, b in _bj_pairs(spec):
                f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
                cuts, cut_calls = _counted(cuts)
                g, v, lower = gamma_min(f_batch, f_scalar, radius, cuts=cuts, newton=newton)
                verdict = bj_definitional(a, b, spec)
                assert verdict.extremal_scalar == g
                assert verdict.gap == v - f_scalar(0j)
                assert verdict.lower == lower - f_scalar(0j) <= verdict.gap
                # The stop (the gap is the oracle's values; the scalar form
                # may round apart from them by a few units).
                v0 = f_batch(np.array([0j]))[0]
                stop = search._CERTIFY if newton and cut_calls == [1] else search._CUT_GAP
                assert v <= lower + stop * v0 + 8 * np.finfo(float).eps * v
                certified += newton and cut_calls == [1]
        # Newton's point is certified on the generic pairs at least.
        assert certified >= 6

    @pytest.mark.parametrize("spec", [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
        NormSpec.lp(p) for p in (1.5, 2.0, 3.0)], ids=str)
    def test_dependent_pair_hands_over_to_cutting_plane(self, spec):
        # a = c b: the minimum is a cone's apex, where no quadratic model
        # converges.  Newton hands over once two accepted steps running gain
        # over three times what their models promised (measured: 4 batched
        # calls after the start's), and the first nine cuts and one more
        # point certify the apex; the scalar form only re-evaluates the best
        # point.  Schatten 1 and inf take Newton as bj_definitional asks.
        *_, (a, b) = _smooth_pairs(spec)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
        f_batch, batch_calls = _counted(f_batch)
        f_scalar, scalar_calls = _counted(f_scalar)
        cuts, cut_calls = _counted(cuts)
        g, v, lower = gamma_min(f_batch, f_scalar, radius, smooth=spec.smooth, cuts=cuts,
                                newton=True)
        na = f_scalar(0j)
        assert batch_calls[0] <= 6
        assert scalar_calls == [2] and cut_calls[0] <= 3
        assert abs(g + (0.7 - 0.4j)) <= 1e-12
        assert 0.0 <= lower <= v <= 1e-15 * na

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1.0), NormSpec.schatten(INF)], ids=str)
    def test_refused_certificate_hands_over(self, spec, monkeypatch):
        # A Newton point that claims convergence at a kink, here short of a
        # dependent pair's apex, fails its certificate: the nine cuts around
        # it meet at the apex, far below its value.  The cutting plane goes
        # on from them to the apex, whose bound holds.
        newton_min = search._newton_min

        def claims_convergence(*args):
            g, v, _ = newton_min(*args)
            newton_at.append((g, v))
            return g, v, True

        newton_at = []
        monkeypatch.setattr(search, "_newton_min", claims_convergence)
        *_, (a, b) = _smooth_pairs(spec)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
        cuts, cut_calls = _counted(cuts)
        g, v, lower = gamma_min(f_batch, f_scalar, radius, cuts=cuts, newton=True)
        [(gn, vn)] = newton_at
        na = f_scalar(0j)
        assert vn - lower > search._CERTIFY * na and cut_calls[0] >= 2
        assert v < vn and 0.0 <= lower <= v <= lower + search._CUT_GAP * na
        assert abs(g + (0.7 - 0.4j)) <= 1e-12

    def test_indefinite_model_hands_over_at_once(self):
        # A ridge, f = |Re(g - c) - Im(g - c)| + 1/2, declared smooth: the
        # first model is not positive definite (flat along the ridge), so
        # after the start and one stencil the cutting plane takes over and
        # certifies the minimum.  A dyadic c keeps the values exact.
        c = 0.5 + 0.25j

        def ridge(gs):
            d = np.asarray(gs) - c
            return np.abs(d.real - d.imag) + 0.5

        def cuts(gs):
            d = np.asarray(gs) - c
            return ridge(gs), np.sign(d.real - d.imag) * (1.0 + 1.0j)

        f_batch, calls = _counted(ridge)
        g, v, lower = gamma_min(f_batch, lambda z: float(ridge([z])[0]), 1.0, smooth=True,
                                cuts=cuts)
        assert calls == [2]
        assert v == lower == 0.5 and ridge([g])[0] == 0.5

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_few_evaluations_on_smooth_norms(self, p):
        # Measured: 7, 5 and 8 batched calls, the start's included, and no
        # scalar calls.
        rng = np.random.default_rng(41)
        a, b = ginibre(rng, 4), ginibre(rng, 4)
        spec = NormSpec.schatten(p)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
        f_batch, batch_calls = _counted(f_batch)
        f_scalar, scalar_calls = _counted(f_scalar)
        gamma_min(f_batch, f_scalar, radius, spec.smooth, cuts=cuts)
        assert batch_calls[0] <= 12
        assert scalar_calls[0] <= 20

    @pytest.mark.parametrize("spec", [FROBENIUS, NormSpec.schatten(1.5),
                                      NormSpec.schatten(3.0)], ids=str)
    def test_extreme_scales_refine_as_at_scale_one(self, spec, monkeypatch):
        # Values near 1e200 overflowed the model's determinant, and near
        # 1e-200 underflowed it, so the model read as indefinite and the
        # scalar refiner took over.
        scalar_calls = []

        def counting(f_batch, f_scalar, *args, **kwargs):
            f_scalar, calls = _counted(f_scalar)
            scalar_calls.append(calls)
            return gamma_min(f_batch, f_scalar, *args, **kwargs)

        monkeypatch.setattr(ortho, "gamma_min", counting)
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


def _hermitian(rng, n):
    g = ginibre(rng, n)
    return g + g.conj().T


class TestRealSegment:
    """``gamma_min(..., real=True)``: a self-conjugate pencil, ``f(conj
    gamma) = f(gamma)``, is searched on the real segment."""

    @pytest.mark.parametrize("spec", [NormSpec.schatten(p) for p in (1.0, 3.0, INF)] + [
        NormSpec.induced(1.0), NormSpec.induced(INF), NormSpec.lp(1.0)], ids=str)
    def test_matches_the_plane(self, spec):
        # Hermitian pairs under Schatten norms (adjoint-invariant), real
        # pairs under the others (invariant under entrywise conjugation).
        # The cutting plane's scalar is real; smooth Schatten 3 keeps
        # Newton in the plane, which lands on the axis to its resolution.
        rng = np.random.default_rng(43)
        shape = (6,) if spec.is_vector else (4, 4)
        for _ in range(3):
            if spec.kind == "schatten":
                a, b = _hermitian(rng, 4), _hermitian(rng, 4)
            else:
                a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
            newton = spec.kind == "schatten"
            gp, vp, lp = gamma_min(f_batch, f_scalar, radius, spec.smooth, cuts=cuts,
                                   newton=newton)
            g, v, lower = gamma_min(f_batch, f_scalar, radius, spec.smooth, cuts=cuts,
                                    newton=newton, real=True)
            na = f_scalar(0j)
            assert (v - na >= -1e-7 * na) == (vp - na >= -1e-7 * na)
            assert abs(v - vp) <= 1e-9 * na
            if spec.smooth:
                assert abs(g.imag) <= 1e-9 * radius and lower is None
            else:
                assert g.imag == 0.0 and lower <= v

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_smooth_hand_over_goes_to_the_segment(self, p):
        # A dependent Hermitian pair, a = c b with c real, under a smooth
        # norm: Newton hands over at the cone, and the cutting plane finds
        # its apex on the axis.
        rng = np.random.default_rng(43)
        b = _hermitian(rng, 4)
        f_batch, f_scalar, radius, cuts = _bj_problem(-0.6 * b, b, NormSpec.schatten(p))
        g, v, lower = gamma_min(f_batch, f_scalar, radius, True, cuts=cuts, real=True)
        assert g.imag == 0.0 and abs(g - 0.6) <= 1e-12
        assert 0.0 <= lower <= v <= search._CUT_GAP * f_scalar(0j)

    def test_segment_starts_from_three_cuts(self):
        # The operator norm on a Hermitian pair: no Newton, three cuts in
        # the first call, one point per later call.
        rng = np.random.default_rng(43)
        a, b = _hermitian(rng, 4), _hermitian(rng, 4)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, NormSpec.schatten(INF))
        f_batch, batch_calls = _counted(f_batch)
        sizes = []

        def sized(gs):
            sizes.append(len(gs))
            return cuts(gs)

        gamma_min(f_batch, f_scalar, radius, cuts=sized, newton=True, real=True)
        assert batch_calls == [1] and sizes[0] == 3 and set(sizes[1:]) == {1}

    def test_complex_pair_keeps_the_plane(self):
        # A generic complex pair is not self-conjugate: its minimizer is
        # off the axis, and bj_definitional finds it.
        rng = np.random.default_rng(31)
        a, b = ginibre(rng, 4), ginibre(rng, 4)
        spec = NormSpec.schatten(1.0)
        verdict = bj_definitional(a, b, spec)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
        _, v, _ = gamma_min(f_batch, f_scalar, radius, cuts=cuts, real=True)
        assert abs(verdict.extremal_scalar.imag) >= 0.1
        assert verdict.gap <= v - f_scalar(0j) - 1e-3

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_hermitian_pair_keeps_the_plane_under_induced_norms(self, p):
        # Induced 1 and inf are not adjoint-invariant: on a Hermitian pair
        # the minimizer is off the axis, well below the segment's minimum.
        rng = np.random.default_rng(43)
        a, b = _hermitian(rng, 4), _hermitian(rng, 4)
        spec = NormSpec.induced(p)
        verdict = bj_definitional(a, b, spec)
        f_batch, f_scalar, radius, cuts = _bj_problem(a, b, spec)
        _, v, _ = gamma_min(f_batch, f_scalar, radius, cuts=cuts, real=True)
        assert abs(verdict.extremal_scalar.imag) >= 0.1
        assert verdict.gap <= v - f_scalar(0j) - 0.05
        assert verdict.lower <= verdict.gap


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
    which induced 2 is) and 44.75 (Hilbert radius) per call; every 8th angle
    gave about 105 and 135."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(43)
        return [(ginibre(rng, 8), ginibre(rng, 8)) for _ in range(4)]

    @pytest.mark.parametrize("spec, ceiling", [
        (NormSpec.schatten(1.0), 56), (NormSpec.schatten(INF), 55),
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


class TestNonFiniteValues:
    """The searches take values as given; a non-finite norm at gamma_min's
    start, on a Newton stencil or on the circle grid raises ``ValueError``
    from the evaluator's closure, at the batch that produced it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("nth, size, call", [
        (1, 1, lambda a, b: bj_definitional(a, b, NormSpec.schatten(3.0))),
        (2, 5, lambda a, b: bj_definitional(a, b, NormSpec.schatten(3.0))),
        (1, 23, lambda a, b: parallel.parallel_definitional(a, b, NormSpec.schatten(3.0))),
    ], ids=["start", "stencil", "circle"])
    def test_raises_at_its_batch(self, monkeypatch, bad, nth, size, call):
        # A disjoint pair under Schatten 3, a smooth norm: the first batch is
        # gamma_min's start, gamma = 0, and the second the first Newton
        # stencil; the circle's first level is every 32nd of 720 angles.
        a, b = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        schatten, sizes = norms._schatten, []

        def spoiled(x, p):
            v = schatten(x, p)
            if x.ndim == 3:
                sizes.append(len(x))
                if len(sizes) == nth:
                    v = v.copy()
                    v[-1] = bad
            return v

        monkeypatch.setattr(norms, "_schatten", spoiled)
        with pytest.raises(ValueError, match=f"evaluated to {bad}"):
            call(a, b)
        assert len(sizes) == nth and sizes[-1] == size


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
