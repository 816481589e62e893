"""Tests for norm evaluation and numerical radii."""

import math
import warnings

import numpy as np
import pytest

from schatten_lab import norms
from schatten_lab.ensembles import ginibre
from schatten_lab.norms import (
    FROBENIUS,
    INF,
    NormSpec,
    SPECTRAL,
    TRACE,
    _cut_oracle,
    _frobenius,
    evaluator,
    induced_norm,
    norm_value,
    norm_value_batch,
    numerical_radius_banach,
    numerical_radius_hilbert,
    schatten_norm,
)
from schatten_lab.ortho import _trace_form, bj_definitional
from schatten_lab.parallel import parallel_definitional
from schatten_lab.search import _lp_normalize, multistart_ascent


def _rng(seed):
    return np.random.default_rng(seed)


def _draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNormSpec:
    def test_constructors(self):
        assert NormSpec.schatten(2.0) == FROBENIUS
        assert NormSpec.schatten(1.0) == TRACE
        assert NormSpec.schatten(INF) == SPECTRAL
        assert NormSpec.lp(2.0).is_vector
        assert NormSpec.max_norm().is_vector
        assert NormSpec.max_norm() == NormSpec.lp(INF)
        assert not NormSpec.induced(3.0).is_vector
        # Induced 2 is the operator norm, and has its one spelling.
        for spec in (NormSpec.induced(2), NormSpec("induced_lp", 2.0)):
            assert spec == SPECTRAL and hash(spec) == hash(SPECTRAL)
            assert (spec.kind, spec.p, repr(spec)) == ("schatten", INF, repr(SPECTRAL))
        assert NormSpec.induced(2.5) != SPECTRAL

    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec.schatten(0.0)
        with pytest.raises(ValueError):
            NormSpec.schatten(-1.0)
        with pytest.raises(ValueError):
            NormSpec.induced(0.5)
        with pytest.raises(ValueError):
            NormSpec.lp(0.9)
        with pytest.raises(ValueError):
            NormSpec("schatten")  # needs an exponent
        with pytest.raises(ValueError):
            NormSpec("bogus", 2.0)


class TestSchattenNorm:
    def test_one_spec_per_exponent(self):
        # schatten_norm parses each exponent once and reuses the frozen
        # spec; an invalid exponent is rejected on every call.
        a = np.diag([3.0, 4.0])
        assert schatten_norm(a, 3) == schatten_norm(a, 3.0)
        assert norms._schatten_spec(3.0) is norms._schatten_spec(3.0) == NormSpec.schatten(3)
        for _ in range(2):
            with pytest.raises(ValueError):
                schatten_norm(a, 0.0)

    def test_diagonal_closed_forms(self):
        a = np.diag([3.0, 4.0])
        assert abs(schatten_norm(a, 1.0) - 7.0) <= 1e-12
        assert abs(schatten_norm(a, 2.0) - 5.0) <= 1e-12
        assert abs(schatten_norm(a, INF) - 4.0) <= 1e-12
        # Quasi-norm at p = 1/2: (sqrt(3) + 2)^2 = 7 + 4 sqrt(3).
        assert abs(schatten_norm(a, 0.5) - (7.0 + 4.0 * math.sqrt(3.0))) <= 1e-12

    def test_p_monotonicity(self):
        rng = _rng(23)
        ps = [0.5, 1.0, 1.5, 2.0, 3.0, INF]
        for _ in range(20):
            a = _draw(rng, (4, 4))
            vals = [schatten_norm(a, p) for p in ps]
            for lo, hi in zip(vals, vals[1:]):
                assert lo >= hi - 1e-10

    def test_triangle_inequality(self):
        rng = _rng(29)
        for _ in range(20):
            a = _draw(rng, (4, 4))
            b = _draw(rng, (4, 4))
            for p in (1.0, 1.5, 2.0, 3.0, INF):
                lhs = schatten_norm(a + b, p)
                assert lhs <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-9

    def test_quasi_triangle_below_one(self):
        rng = _rng(31)
        p = 0.5
        for _ in range(20):
            a = _draw(rng, (4, 4))
            b = _draw(rng, (4, 4))
            lhs = schatten_norm(a + b, p) ** p
            rhs = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
            assert lhs <= rhs + 1e-9

    def test_unitary_invariance(self):
        rng = _rng(37)
        a = _draw(rng, (4, 4))
        q, _ = np.linalg.qr(_draw(rng, (4, 4)))
        for p in (0.5, 1.0, 2.0, 3.0, INF):
            base = schatten_norm(a, p)
            assert abs(schatten_norm(q @ a @ q.conj().T, p) - base) <= 1e-9 * base

    def test_batch_matches_loop(self):
        rng = _rng(41)
        stack = _draw(rng, (5, 3, 3))
        for p in (1.0, 2.5, INF):
            batch = evaluator(NormSpec.schatten(p))[0](stack)
            for i in range(5):
                assert abs(batch[i] - schatten_norm(stack[i], p)) <= 1e-12


def _ascent_induced(a, p):
    """The induced lp norm by projected gradient ascent over the lp sphere
    (``search.multistart_ascent`` at 2000 steps from the basis vectors and 64
    seeded starts), a route independent of the power iteration in
    ``induced_norm``."""
    n = a.shape[1]
    at, ac = a.T, a.conj()

    def value(x):
        return (np.abs(x @ at) ** p).sum(axis=-1) ** (1.0 / p)

    def grad(x):
        y = x @ at
        ay = np.abs(y)
        z = np.where(ay > 0, np.maximum(ay, 1e-300) ** (p - 2) * y, 0.0)
        return z @ ac

    return multistart_ascent(value, grad, p, n, max_steps=2000,
                             extra_starts=np.eye(n, dtype=complex))[0]


class TestVectorAndInducedNorms:
    def test_vector_closed_forms(self):
        x = np.array([3.0, -4.0])
        assert abs(norm_value(x, NormSpec.lp(1.0)) - 7.0) <= 1e-12
        assert abs(norm_value(x, NormSpec.lp(2.0)) - 5.0) <= 1e-12
        assert abs(norm_value(x, NormSpec.max_norm()) - 4.0) <= 1e-12

    def test_induced_one_and_inf_are_column_and_row_sums(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        r1 = induced_norm(a, 1.0)
        rinf = induced_norm(a, INF)
        assert abs(r1.value - 6.0) <= 1e-12
        assert abs(rinf.value - 7.0) <= 1e-12
        # Witnesses attain the reported value.
        for res, p in ((r1, 1.0), (rinf, INF)):
            spec = NormSpec.lp(p) if p != INF else NormSpec.max_norm()
            xn = norm_value(res.witness_vector, spec)
            assert abs(xn - 1.0) <= 1e-9
            assert abs(norm_value(a @ res.witness_vector, spec) - res.value) <= 1e-9

    def test_induced_two_matches_spectral(self):
        rng = _rng(43)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            assert abs(induced_norm(a, 2.0).value - schatten_norm(a, INF)) <= 1e-10

    def test_induced_generic_p_on_diagonal(self):
        # For a diagonal matrix the induced lp norm is the largest |entry|.
        a = np.diag([0.5, -2.0, 1.0]).astype(complex)
        for p in (1.5, 3.0):
            res = induced_norm(a, p)
            assert abs(res.value - 2.0) <= 1e-8

    def test_induced_generic_p_bounds(self):
        # Interpolation control: ||A||_p <= max(||A||_1, ||A||_inf) and the
        # ascent value never exceeds it; e_j starts make it at least the
        # largest column lp norm.
        rng = _rng(47)
        a = _draw(rng, (3, 3))
        hi = max(induced_norm(a, 1.0).value, induced_norm(a, INF).value)
        for p in (1.01, 1.5, 4.0):
            val = induced_norm(a, p).value
            col = max(
                float(np.sum(np.abs(a[:, j]) ** p) ** (1.0 / p)) for j in range(3)
            )
            assert col - 1e-9 <= val <= hi + 1e-9
            # Homogeneous, also near p = 1, where |g|^{1/(p-1)} of a large
            # operand would overflow without rescaling.
            assert abs(induced_norm(1e4 * a, p).value - 1e4 * val) <= 1e-12 * 1e4 * val

    @pytest.mark.parametrize("n, p", [(2, 1.5), (2, 3.0), (4, 1.5), (4, 3.0), (8, 3.0),
                                      (8, 1.5)])
    def test_induced_generic_p_matches_power_iteration(self, n, p):
        # The power iteration in ``induced_norm`` against the gradient ascent,
        # on the first draw of seeds 0-3; at (8, 1.5) also on the third draw
        # of seed 0, whose maximizer a 400-step ascent stops 1.6e-7 short of.
        draws = [ginibre(_rng(seed), n) for seed in range(4)]
        if (n, p) == (8, 1.5):
            rng = _rng(0)
            draws.append([ginibre(rng, 8) for _ in range(3)][-1])
        for a in draws:
            res = induced_norm(a, p)
            assert abs(res.value - _ascent_induced(a, p)) <= res.tolerance

    def test_norm_value_dispatch(self):
        a = np.diag([3.0, 4.0])
        assert abs(norm_value(a, TRACE) - 7.0) <= 1e-12
        assert abs(norm_value(a, NormSpec.induced(INF)) - 4.0) <= 1e-12
        assert abs(norm_value([3.0, -4.0], NormSpec.lp(2.0)) - 5.0) <= 1e-12
        with pytest.raises(ValueError):
            norm_value(a, NormSpec.lp(2.0))

    def test_norm_value_batch_matrix_and_vector(self):
        rng = _rng(53)
        stack = _draw(rng, (4, 3, 3))
        for spec in (TRACE, SPECTRAL, NormSpec.induced(1.0), NormSpec.induced(INF)):
            batch = norm_value_batch(stack, spec)
            for i in range(4):
                assert abs(batch[i] - norm_value(stack[i], spec)) <= 1e-10
        vecs = _draw(rng, (4, 5))
        for spec in (NormSpec.lp(1.5), NormSpec.max_norm()):
            batch = norm_value_batch(vecs, spec)
            for i in range(4):
                assert abs(batch[i] - norm_value(vecs[i], spec)) <= 1e-12


_MATRIX_SPECS = (
    NormSpec.schatten(1.0), NormSpec.schatten(1.5), FROBENIUS, NormSpec.schatten(3.0),
    SPECTRAL, NormSpec.schatten(0.5), NormSpec.induced(1.0), NormSpec.induced(INF),
    NormSpec.induced(3.0),
)
_VECTOR_SPECS = (NormSpec.lp(1.0), NormSpec.lp(1.5), NormSpec.lp(3.0), NormSpec.max_norm())


def _spec_id(spec):
    return f"{spec.kind}-{spec.p:g}"


class TestEvaluator:
    @pytest.mark.parametrize("spec", _MATRIX_SPECS + _VECTOR_SPECS, ids=_spec_id)
    def test_scalar_matches_batch_entry_by_entry(self, spec):
        shape = (4, 5) if spec.is_vector else (4, 3, 3)
        stack = _draw(_rng(59), shape)
        batch, scalar, exact = evaluator(spec)
        assert exact == (spec != NormSpec.induced(3.0))
        values = batch(stack)
        assert values.shape == (4,)
        for i in range(4):
            assert scalar(stack[i]) == pytest.approx(values[i], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("spec", _MATRIX_SPECS + _VECTOR_SPECS, ids=_spec_id)
    def test_scalar_is_norm_value(self, spec):
        # The scalar gives the value of the validating routes, bit for bit.
        # The one closure given one operand gives the scalar as a 0-d value.
        batch, scalar, _ = evaluator(spec)
        rng = _rng(61)
        for _ in range(5):
            x = _draw(rng, (5,) if spec.is_vector else (4, 4))
            value = scalar(x)
            assert value == norm_value(x, spec)
            assert np.ndim(batch(x)) == 0 and float(batch(x)) == value
            if spec == NormSpec.max_norm():
                ref = float(np.abs(x).max())
            elif spec.is_vector:
                ref = float(np.sum(np.abs(x) ** spec.p) ** (1.0 / spec.p))
            elif spec.kind == "schatten":
                ref = schatten_norm(x, spec.p)
            else:
                ref = induced_norm(x, spec.p).value
            assert value == ref

    @pytest.mark.parametrize("spec", [NormSpec.schatten(p) for p in (0.5, 1.0, 1.5, 3.0, INF)],
                             ids=_spec_id)
    def test_svd_on_non_finite_member_is_lin_alg_error(self, spec):
        # Both forms raise numpy's LinAlgError, a ValueError (exit 2 in the
        # CLI), before any finiteness check.
        batch, scalar, _ = evaluator(spec)
        stack = np.stack([np.eye(3, dtype=complex), np.full((3, 3), np.nan + 0j)])
        for call in (lambda: batch(stack), lambda: scalar(stack[1])):
            with pytest.raises(np.linalg.LinAlgError):
                call()

    def test_scalar_rejects_non_finite_values(self):
        # Finite entries whose norms leave the float range: every lp sum is
        # rescaled, so it is the norm itself that overflows (3^(1/3) 1.5e308,
        # 2 1.5e308, 2^(1/3) 1.5e308), not the cubes on the way.
        for spec, x in ((NormSpec.schatten(3.0), 1.5e308 * np.eye(3, dtype=complex)),
                        (NormSpec.induced(3.0), 1.5e308 * np.ones((2, 2), dtype=complex)),
                        (NormSpec.lp(3.0), np.full(2, 1.5e308 + 0j))):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="evaluated to inf"):
                evaluator(spec)[1](x)
        for spec in _MATRIX_SPECS + _VECTOR_SPECS:
            nan = np.full((2,) if spec.is_vector else (2, 2), np.nan + 0j)
            with pytest.raises(ValueError):
                evaluator(spec)[1](nan)

    def test_batch_rejects_a_non_finite_member(self):
        # The batch form applies the scalar form's rule to every member, so
        # a stack with one overflowing norm raises as a whole.
        for spec, x in ((NormSpec.schatten(3.0), 1.5e308 * np.eye(3, dtype=complex)),
                        (NormSpec.induced(3.0), 1.5e308 * np.ones((3, 3), dtype=complex)),
                        (NormSpec.induced(1.0), 1.5e308 * np.ones((3, 3), dtype=complex)),
                        (NormSpec.lp(3.0), np.full(3, 1.5e308 + 0j))):
            stack = np.stack([np.ones_like(x), x])
            assert np.isfinite(evaluator(spec)[0](stack[:1])).all()
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="evaluated to inf"):
                evaluator(spec)[0](stack)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="evaluated to inf"):
                norm_value_batch(stack, spec)

    @pytest.mark.parametrize("spec", [NormSpec.schatten(p) for p in (1.0, 1.5, 3.0, INF)] + [
        NormSpec.induced(3.0)], ids=str)
    def test_entry_moduli_above_the_float_range(self, spec):
        # Finite parts whose moduli overflow: the SVD reads NaN and the power
        # iteration overflows on the way, yet both forms name the float
        # range, and no numpy warning escapes (the suite makes one an error).
        x = (1.5e308 + 1.5e308j) * np.ones((4, 4))
        batch, scalar, _ = evaluator(spec)
        for call in (lambda: scalar(x), lambda: batch(x[None])):
            with pytest.raises(ValueError, match=r"evaluated to inf .*\(above the float range\)"):
                call()


_EXACT_SPECS = tuple(s for s in _MATRIX_SPECS + (NormSpec.lp(2.0),) + _VECTOR_SPECS
                     if evaluator(s)[2] and s.p >= 1.0)


def _oracle_cases(spec, rng):
    """Generic draws, then a zero member and members with the degeneracies
    a norming functional must survive: rank deficient, and tied top singular
    values, columns, rows or entries."""
    if spec.is_vector:
        tied = np.array([2.0, -2.0j, 1.0, 0.5, 0.0], dtype=complex)
        return [_draw(rng, (5,)) for _ in range(6)] + [np.zeros(5, dtype=complex), tied]
    g = _draw(rng, (4, 4))
    low_rank = _draw(rng, (4, 2)) @ _draw(rng, (2, 4))
    tied = np.diag([2.0, -2.0j, 1.0, 0.0]).astype(complex)
    lines = np.ones((4, 4), dtype=complex)  # every column and row sum ties
    return [_draw(rng, (4, 4)) for _ in range(6)] + [
        np.zeros((4, 4), dtype=complex), low_rank, tied, lines, g @ np.diag([1, 1, 0, 0])]


class TestCutOracle:
    """``norms._cut_oracle``: each slope ``phi_X(d)`` comes from a norming
    functional of X, so every cut it gives is a supporting plane."""

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=_spec_id)
    def test_functional_norms_its_member(self, spec):
        # phi_X(X) = ||X||, |phi_X(Y)| <= ||Y|| for every Y, and 0 at X = 0.
        rng = _rng(67)
        norm = evaluator(spec)[0]
        for x in _oracle_cases(spec, rng):
            nrm, own = _cut_oracle(spec, x)(x[None])
            assert nrm[0] == pytest.approx(float(norm(x)), rel=1e-14, abs=0.0)
            assert abs(own[0] - nrm[0]) <= 1e-13 * nrm[0]
            for _ in range(5):
                y = _draw(rng, x.shape)
                _, slope = _cut_oracle(spec, y)(x[None])
                assert abs(slope[0]) <= float(norm(y)) * (1.0 + 1e-13)
                if nrm[0] == 0.0:
                    assert slope[0] == 0.0

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=_spec_id)
    def test_cuts_support_the_pencil(self, spec):
        # ||a + gamma b|| >= ||a|| + Re(gamma phi_a(b)) at every gamma, on a
        # whole stack of members at once.
        rng = _rng(71)
        norm = evaluator(spec)[0]
        cases = _oracle_cases(spec, rng)
        b = _draw(rng, cases[0].shape)
        nrm, slopes = _cut_oracle(spec, b)(np.stack(cases))
        for x, n0, s in zip(cases, nrm, slopes):
            gammas = 3.0 * _draw(rng, (40,))
            vals = norm(x[None] + gammas.reshape((-1,) + (1,) * x.ndim) * b[None])
            assert (vals >= n0 + (gammas * s).real - 1e-12 * (n0 + np.abs(gammas))).all()

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=_spec_id)
    def test_slopes_match_central_differences(self, spec):
        # At generic members every one of these norms is differentiable, and
        # f(gamma + delta) = f(gamma) + Re(delta s) + o(delta).
        rng = _rng(73)
        norm = evaluator(spec)[1]
        shape = (5,) if spec.is_vector else (4, 4)
        for _ in range(6):
            a, b = _draw(rng, shape), _draw(rng, shape)
            nrm, (s,) = _cut_oracle(spec, b)(a[None])
            h = 1e-6
            dx = (norm(a + h * b) - norm(a - h * b)) / (2 * h)
            dy = (norm(a + 1j * h * b) - norm(a - 1j * h * b)) / (2 * h)
            assert abs(dx - s.real) <= 1e-6 * nrm[0]
            assert abs(dy + s.imag) <= 1e-6 * nrm[0]

    def test_direction_at_any_scale(self):
        # d is read through its power-of-two scaling: slopes scale with it,
        # exactly, up to the largest floats.
        rng = _rng(79)
        x, d = _draw(rng, (4, 4)), _draw(rng, (4, 4))
        for spec in (TRACE, SPECTRAL, NormSpec.induced(1.0), FROBENIUS):
            _, (s,) = _cut_oracle(spec, d)(x[None])
            for scale in (2.0 ** -1000, 2.0 ** 1000):
                _, (ss,) = _cut_oracle(spec, scale * d)(x[None])
                assert ss == scale * s

    @pytest.mark.parametrize("spec", [s for s in _EXACT_SPECS if not s.is_vector],
                             ids=_spec_id)
    def test_rectangular_members(self, spec):
        # Wide and tall members: the thin SVD, the line sums and the entries
        # give rows of min(n, m), m or n, and nm moduli.  Each functional
        # norms its member, has dual norm at most 1, and cuts the pencil.
        rng = _rng(97)
        norm = evaluator(spec)[0]
        for shape in ((3, 5), (5, 3)):
            xs = np.stack([_draw(rng, shape) for _ in range(4)]
                          + [_draw(rng, shape[:1] + (1,)) @ _draw(rng, (1,) + shape[1:]),
                             np.zeros(shape, dtype=complex)])
            nrm, own = _cut_oracle(spec, xs[0])(xs)
            assert np.allclose(nrm, norm(xs), rtol=1e-14, atol=0.0)
            assert abs(own[0] - nrm[0]) <= 1e-13 * nrm[0]
            d = _draw(rng, shape)
            nd = float(norm(d))
            _, slopes = _cut_oracle(spec, d)(xs)
            assert (np.abs(slopes) <= nd * (1.0 + 1e-13)).all() and slopes[-1] == 0.0
            for x, n0, sl in zip(xs, nrm, slopes):
                gammas = 3.0 * _draw(rng, (40,))
                vals = norm(x[None] + gammas[:, None, None] * d[None])
                assert (vals >= n0 + (gammas * sl).real - 1e-12 * (n0 + np.abs(gammas))).all()

    def test_one_duality_rule_for_entries_and_lines(self):
        # Frobenius is the l2 rule on the entries, bit for bit, and induced 1
        # the induced inf rule on the transposes, up to the order of the
        # line sums; zero members and ties included.
        rng = _rng(89)
        xs = np.stack(_oracle_cases(SPECTRAL, rng))
        d = _draw(rng, (4, 4))
        nrm, slopes = _cut_oracle(FROBENIUS, d)(xs)
        vnrm, vslopes = _cut_oracle(NormSpec.lp(2.0), d.ravel())(xs.reshape(len(xs), -1))
        assert np.array_equal(nrm, vnrm) and np.array_equal(slopes, vslopes)
        nrm, slopes = _cut_oracle(NormSpec.induced(1.0), d)(xs)
        tnrm, tslopes = _cut_oracle(NormSpec.induced(INF), d.T)(
            np.ascontiguousarray(xs.transpose(0, 2, 1)))
        assert np.array_equal(nrm, tnrm)
        assert np.abs(slopes - tslopes).max() <= 1e-15 * np.abs(d).sum()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_schatten_slope_is_the_trace_form(self, p):
        # For 1 < p < inf the oracle's functional is the one ortho._trace_form
        # reads (the semi-inner product at unit a): the two spellings agree
        # wherever a has no singular values below the rank cutoff, which
        # only the trace form applies.
        rng = _rng(83)
        for _ in range(6):
            a, b = _draw(rng, (4, 4)), _draw(rng, (4, 4))
            nrm, (s,) = _cut_oracle(NormSpec.schatten(p), b)(a[None])
            t, na = _trace_form(b, a, p)
            assert nrm[0] == pytest.approx(na, rel=1e-14, abs=0.0)
            assert abs(s - t) <= 1e-13 * float(np.linalg.norm(b))

    def test_overflowed_member_and_unsupported_norms_raise(self):
        x = np.stack([np.eye(2, dtype=complex), np.full((2, 2), np.inf + 0j)])
        for spec in (TRACE, SPECTRAL, NormSpec.induced(1.0), NormSpec.induced(INF)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="above the float range"):
                _cut_oracle(spec, np.eye(2, dtype=complex))(x)
        for spec in (NormSpec.schatten(0.5), NormSpec.induced(3.0)):
            with pytest.raises(ValueError, match="no exact norming functional"):
                _cut_oracle(spec, np.eye(2, dtype=complex))


def _ulps(value, ref):
    return abs(value - ref) / np.spacing(abs(ref)) if ref else abs(value)


class TestFrobenius:
    """Schatten 2 reads the entries, ``norms._frobenius``, not an SVD."""

    @staticmethod
    def _operands():
        rng = _rng(67)
        rank_two = _draw(rng, (6, 2)) @ _draw(rng, (2, 6))
        return ([_draw(rng, (n, n)) / math.sqrt(2.0 * n) for n in (2, 4, 8) for _ in range(10)]
                + [rank_two, _draw(rng, (3, 7)), _draw(rng, (7, 3)), np.zeros((4, 4), complex)])

    def test_agrees_with_singular_values(self):
        for x in self._operands():
            s = np.linalg.svd(x, compute_uv=False)
            assert _ulps(_frobenius(x), math.sqrt(float(np.sum(s**2)))) <= 4

    def test_scalar_batch_and_schatten_norm_agree_bitwise(self):
        batch, scalar, _ = evaluator(FROBENIUS)
        rng = _rng(71)
        for shape in ((4, 4), (8, 8), (3, 5)):
            stack = _draw(rng, (6,) + shape)
            values = batch(stack)
            assert np.array_equal(values, evaluator(NormSpec.schatten(2.0))[0](stack))
            for i in range(6):
                assert scalar(stack[i]) == values[i] == schatten_norm(stack[i], 2.0)

    def test_powers_of_two_scale_exactly(self):
        for x in self._operands():
            base = _frobenius(x)
            for k in (600, -600):
                assert _ulps(_frobenius(2.0**k * x), 2.0**k * base) <= 4

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_extreme_scales_are_finite(self, s):
        # The squares overflow (or underflow) at these scales; the rescaled
        # sum does not.
        x = _draw(_rng(73), (4, 4))
        value = _frobenius(s * x)
        assert math.isfinite(value) and value > 0.0
        assert abs(value / (s * _frobenius(x)) - 1.0) <= 1e-15


class TestScaleSafeSums:
    @pytest.mark.parametrize("s", [1e-160, 1e120])
    def test_schatten_sum_at_extreme_scales(self, s):
        # The plain sum of cubes underflows to 0 (overflows to inf) here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = schatten_norm(s * np.eye(3), 3.0)
        assert _ulps(value, 3.0 ** (1.0 / 3.0) * s) <= 4

    def test_stack_rows_rescale_alone(self):
        stack = np.stack([1e120 * np.eye(3), np.eye(3), np.zeros((3, 3)),
                          1e-160 * np.eye(3)]).astype(complex)
        batch, scalar, _ = evaluator(NormSpec.schatten(3.0))
        values = batch(stack)
        assert [scalar(m) for m in stack] == list(values)
        assert values[1] == schatten_norm(np.eye(3), 3.0) and values[2] == 0.0

    def test_frobenius_verdicts_at_tiny_scale(self):
        # Both operands of the seed-5 Ginibre pair scaled by 1e-200: the
        # verdicts must be the unscaled ones (not parallel, not orthogonal).
        rng = _rng(5)
        a, b = ginibre(rng, 4), ginibre(rng, 4)
        for s in (1.0, 1e-200):
            assert not bj_definitional(s * a, s * b, FROBENIUS).holds
            assert not parallel_definitional(s * a, s * b, FROBENIUS).holds


class TestHilbertRadius:
    def test_jordan_block_is_half(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = numerical_radius_hilbert(a)
        assert abs(res.value - 0.5) <= 1e-9

    def test_normal_matrices_attain_spectral_radius(self):
        rng = _rng(59)
        for _ in range(10):
            d = _draw(rng, 4)
            q, _ = np.linalg.qr(_draw(rng, (4, 4)))
            a = q @ np.diag(d) @ q.conj().T
            res = numerical_radius_hilbert(a)
            assert abs(res.value - np.max(np.abs(d))) <= 1e-8

    def test_truncated_shift_cosine(self):
        # The n x n nilpotent shift has radius cos(pi / (n + 1)).
        for n in (2, 3, 5, 8):
            a = np.diag(np.ones(n - 1), 1)
            res = numerical_radius_hilbert(a)
            assert abs(res.value - math.cos(math.pi / (n + 1))) <= 1e-8

    def test_two_sided_norm_bounds(self):
        rng = _rng(61)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            w = numerical_radius_hilbert(a).value
            nrm = schatten_norm(a, INF)
            assert w <= nrm + 1e-9
            assert nrm <= 2.0 * w + 1e-9

    def test_witness_attains_value(self):
        rng = _rng(67)
        a = _draw(rng, (4, 4))
        res = numerical_radius_hilbert(a)
        x = res.witness_vector
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-9
        attained = abs(np.vdot(x, a @ x))
        assert abs(attained - res.value) <= 1e-8

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            numerical_radius_hilbert(np.ones((2, 3)))

    def test_matches_dense_phase_sweep(self):
        # An independent sweep of lambda_max(Re(e^{i theta} A)): 4096 phases,
        # then four zooms of 257 phases over one spacing either side of each
        # of the three best phases.  Includes a matrix whose top eigenvalue is
        # negative on most phases, and the Jordan block (flat in theta).
        def tops(a, thetas):
            ph = np.exp(1j * thetas)[:, None, None]
            return np.linalg.eigvalsh(0.5 * (ph * a + np.conj(ph) * a.conj().T))[:, -1]

        def sweep(a):
            h = 2 * np.pi / 4096
            thetas = np.arange(4096) * h
            vals = tops(a, thetas)
            centers = thetas[np.argsort(vals)[-3:]]
            for _ in range(4):
                thetas = (centers[:, None] + np.linspace(-h, h, 257)).ravel()
                vals = tops(a, thetas)
                centers, h = thetas[np.argsort(vals)[-3:]], h / 128
            return vals.max()

        rng = _rng(73)
        draws = [_draw(rng, (n, n)) for n in (2, 4, 8) for _ in range(2)]
        draws += [-np.diag([3.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.diag(np.ones(3), 1)]
        for a in draws:
            ref = sweep(a)
            assert abs(numerical_radius_hilbert(a).value - ref) <= 1e-12 * ref


class TestRadiusTolerance:
    @pytest.mark.parametrize("s", [1.0, 1e-8])
    def test_tolerance_scales_with_operand(self, s):
        # Each radius certifies its witness to a fixed fraction of its value,
        # at any scale of the operand.
        a = s * ginibre(_rng(79), 4)
        for p in (1.0, 2.0, 3.0, INF):
            res = induced_norm(a, p)
            assert res.tolerance <= 1e-8 * res.value
            x = res.witness_vector
            attained = np.linalg.norm(a @ x, p) / np.linalg.norm(x, p)
            assert abs(attained - res.value) <= res.tolerance
        res = numerical_radius_hilbert(a)
        assert res.tolerance <= 1e-10 * res.value
        x = res.witness_vector
        assert abs(abs(np.vdot(x, a @ x)) - res.value) <= res.tolerance
        res = numerical_radius_banach(a, 3.0)
        assert res.tolerance <= 1e-8 * res.value
        x = res.witness_vector
        assert abs(abs(np.sum(np.conj(x) * np.abs(x) * (a @ x))) - res.value) <= res.tolerance


class TestLpNormalize:
    def test_vector_and_stack_agree(self):
        rng = _rng(61)
        stack = _draw(rng, (5, 4))
        for p in (1.5, 2.0, 3.0):
            rows = _lp_normalize(stack, p)
            assert rows.shape == (5, 4)
            assert np.allclose(np.sum(np.abs(rows) ** p, axis=1), 1.0, rtol=1e-13)
            for x, row in zip(stack, rows):
                assert np.array_equal(_lp_normalize(x, p), row)

    def test_zero_falls_back_to_ones(self):
        ones = np.full(4, 4.0 ** (-1.0 / 3.0), dtype=complex)
        assert np.array_equal(_lp_normalize(np.zeros(4), 3.0), ones)
        stack = np.array([np.zeros(4), np.arange(4.0)], dtype=complex)
        rows = _lp_normalize(stack, 3.0)
        assert np.array_equal(rows[0], ones)
        assert np.array_equal(rows[1], _lp_normalize(stack[1], 3.0))


class TestBanachRadius:
    def test_p_two_matches_hilbert(self):
        # Real draws too: a real operator may attain its radius only at
        # complex vectors, so the ascent must not be confined to R^n.
        rng, real = _rng(71), _rng(3)
        draws = [_draw(rng, (3, 3)) for _ in range(5)]
        draws += [real.standard_normal((n, n)) for n in (2, 3, 4) for _ in range(3)]
        for a in draws:
            w2 = numerical_radius_hilbert(a).value
            v2 = numerical_radius_banach(a, 2.0).value
            assert abs(w2 - v2) <= 1e-6 * max(1.0, w2)

    def test_diagonal_attains_max_entry(self):
        # On lp the radius of a diagonal matrix is the largest |entry|:
        # basis starts make the bound exact.
        d = np.diag([0.3, -1.7, 0.9]).astype(complex)
        for p in (1.5, 3.0):
            res = numerical_radius_banach(d, p)
            assert abs(res.value - 1.7) <= 1e-9

    def test_nilpotent_on_l3(self):
        # 2x2 nilpotent on l3: maximizing |x1|^2 |x2| over |x1|^3 + |x2|^3 = 1
        # gives v = (4/27)^(1/3). The ascent reports a certified lower bound
        # that lands within 1e-4 of the closed form.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        exact = (4.0 / 27.0) ** (1.0 / 3.0)
        res = numerical_radius_banach(a, 3.0)
        assert exact - 1e-4 <= res.value <= exact + 1e-9

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_witness_is_local_maximum(self, p):
        # No small move along the sphere raises |x*(a x)| above the value.
        rng = _rng(89)
        for seed in range(3):
            a = ginibre(_rng(seed + 5), 4)
            res = numerical_radius_banach(a, p)
            d = _draw(rng, (200, 4))
            d *= 1e-4 / np.linalg.norm(d, axis=1, keepdims=True)
            moved = _lp_normalize(res.witness_vector + d, p)
            y = moved @ a.T
            vals = np.abs((np.conj(moved) * np.abs(moved) ** (p - 2.0) * y).sum(axis=1))
            assert vals.max() <= res.value * (1.0 + 1e-10)

    def test_validation(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            numerical_radius_banach(a, 1.0)
        with pytest.raises(ValueError):
            numerical_radius_banach(a, INF)
        with pytest.raises(ValueError):
            numerical_radius_banach(np.ones((2, 3)), 2.0)
