"""Tests for norm evaluation and numerical radii."""

import math

import numpy as np
import pytest

from schatten_lab.cmatrix import ConvergenceFailure
from schatten_lab.ensembles import ginibre
from schatten_lab.norms import (
    FROBENIUS,
    INF,
    NormSpec,
    SPECTRAL,
    TRACE,
    induced_norm,
    norm_value,
    norm_value_batch,
    numerical_radius_banach,
    numerical_radius_hilbert,
    operator_norm,
    schatten_norm,
    schatten_norm_batch,
    schatten_norm_trusted,
    vector_norm,
)
from schatten_lab.search import _lp_normalize


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
        assert not NormSpec.induced(3.0).is_vector

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
            NormSpec("vector_max", 2.0)
        with pytest.raises(ValueError):
            NormSpec("schatten")  # needs an exponent
        with pytest.raises(ValueError):
            NormSpec("bogus", 2.0)


class TestSchattenNorm:
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
            batch = schatten_norm_batch(stack, p)
            for i in range(5):
                assert abs(batch[i] - schatten_norm(stack[i], p)) <= 1e-12

    def test_trusted_matches_checked(self):
        rng = _rng(43)
        a = _draw(rng, (4, 4))
        for p in (1.0, 1.5, 3.0, INF):
            assert schatten_norm_trusted(a, p) == schatten_norm(a, p)

    def test_trusted_rejects_non_finite_value(self):
        # Finite entries whose cubed singular values overflow.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="evaluated to inf"):
            schatten_norm_trusted(1e200 * np.eye(2, dtype=complex), 3.0)
        with pytest.raises(ConvergenceFailure):
            schatten_norm_trusted(np.full((2, 2), np.nan + 0j), 2.0)


def _power_induced(a, p, starts=16, iters=300):
    """Boyd's power iteration for the induced lp norm (Higham 1992, "Estimating
    the matrix p-norm"): the best ``||a x||_p`` over the iterates of the basis
    vectors and ``starts`` seeded complex directions."""
    q = p / (p - 1.0)

    def dual(x, r):
        # The unit-l(r') vector y with <y, x> = ||x||_r, row by row.
        ax = np.abs(x)
        phase = np.divide(x, ax, out=np.zeros_like(x), where=ax > 0)
        nrm = (ax ** r).sum(axis=-1, keepdims=True) ** (1.0 / r)
        return (ax / nrm) ** (r - 1.0) * phase

    def norm(x, r):
        return (np.abs(x) ** r).sum(axis=-1) ** (1.0 / r)

    n = a.shape[1]
    x = np.concatenate([np.eye(n), _draw(_rng(2), (starts, n))])
    x = x / norm(x, p)[:, None]
    best = 0.0
    for _ in range(iters):
        y = x @ a.T
        best = max(best, float(norm(y, p).max()))
        x = dual(dual(y, p) @ a.conj(), q)
    return best


class TestVectorAndInducedNorms:
    def test_vector_closed_forms(self):
        x = np.array([3.0, -4.0])
        assert abs(vector_norm(x, NormSpec.lp(1.0)) - 7.0) <= 1e-12
        assert abs(vector_norm(x, NormSpec.lp(2.0)) - 5.0) <= 1e-12
        assert abs(vector_norm(x, NormSpec.max_norm()) - 4.0) <= 1e-12

    def test_induced_one_and_inf_are_column_and_row_sums(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        r1 = induced_norm(a, 1.0)
        rinf = induced_norm(a, INF)
        assert abs(r1.value - 6.0) <= 1e-12
        assert abs(rinf.value - 7.0) <= 1e-12
        # Witnesses attain the reported value.
        for res, p in ((r1, 1.0), (rinf, INF)):
            spec = NormSpec.lp(p) if p != INF else NormSpec.max_norm()
            xn = vector_norm(res.witness_vector, spec)
            assert abs(xn - 1.0) <= 1e-9
            assert abs(vector_norm(a @ res.witness_vector, spec) - res.value) <= 1e-9

    def test_induced_two_matches_spectral(self):
        rng = _rng(43)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            assert abs(induced_norm(a, 2.0).value - schatten_norm(a, INF)) <= 1e-10

    def test_induced_generic_p_on_diagonal(self):
        # For a diagonal matrix the induced lp norm is the largest |entry|.
        a = np.diag([0.5, -2.0, 1.0]).astype(complex)
        for p in (1.5, 3.0):
            res = induced_norm(a, p, seed=0)
            assert abs(res.value - 2.0) <= 1e-8

    def test_induced_generic_p_bounds(self):
        # Interpolation control: ||A||_p <= max(||A||_1, ||A||_inf) and the
        # ascent value never exceeds it; e_j starts make it at least the
        # largest column lp norm.
        rng = _rng(47)
        a = _draw(rng, (3, 3))
        hi = max(induced_norm(a, 1.0).value, induced_norm(a, INF).value)
        for p in (1.5, 4.0):
            val = induced_norm(a, p, seed=1).value
            col = max(
                float(np.sum(np.abs(a[:, j]) ** p) ** (1.0 / p)) for j in range(3)
            )
            assert col - 1e-9 <= val <= hi + 1e-9

    @pytest.mark.parametrize("n, p", [(2, 1.5), (2, 3.0), (4, 1.5), (4, 3.0), (8, 3.0)])
    def test_induced_generic_p_matches_power_iteration(self, n, p):
        for seed in range(4):
            a = ginibre(_rng(seed), n)
            res = induced_norm(a, p)
            assert abs(res.value - _power_induced(a, p)) <= res.tolerance

    def test_norm_value_dispatch(self):
        a = np.diag([3.0, 4.0])
        assert abs(norm_value(a, TRACE) - 7.0) <= 1e-12
        assert abs(norm_value(a, NormSpec.induced(INF)) - 4.0) <= 1e-12
        assert abs(norm_value([3.0, -4.0], NormSpec.lp(2.0)) - 5.0) <= 1e-12
        with pytest.raises(ValueError):
            operator_norm(a, NormSpec.lp(2.0))

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
                assert abs(batch[i] - vector_norm(vecs[i], spec)) <= 1e-12


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
        rng = _rng(71)
        for _ in range(5):
            a = _draw(rng, (3, 3))
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
