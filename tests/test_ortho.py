"""Tests for orthogonality predicates: definitional, trace, isosceles, supports."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from schatten_lab import cmatrix
from schatten_lab.ensembles import ginibre
from schatten_lab.norms import (INF, FROBENIUS, NormSpec, SPECTRAL, TRACE, norm_value,
                                schatten_norm)
from schatten_lab.ortho import (
    bj_definitional,
    bj_trace,
    clarkson_gap,
    default_gamma_samples,
    disjoint_supports,
    isosceles,
    loewner_domination,
    loewner_identity_test,
    norm_additivity,
    semi_inner_product,
)


# Every norm Birkhoff-James evaluates exactly (induced 2 is Schatten inf).
_EXACT_SPECS = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
    NormSpec.induced(p) for p in (1.0, INF)]


_PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _benchmark_inputs():
    """The benchmark's input generator, ``perfbench/inputs.py``, loaded
    under a private name without touching ``sys.path`` (its dataclasses
    need the module registered while it runs)."""
    name = "_perfbench_inputs"
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _rng(seed):
    return np.random.default_rng(seed)


def _draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _disjoint_pair(rng, n=4):
    """Block pair with orthogonal column AND row spaces."""
    k = n // 2
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[:k, :k] = _draw(rng, (k, k))
    b[k:, k:] = _draw(rng, (n - k, n - k))
    return a, b


class TestBjDefinitional:
    def test_frobenius_matches_inner_product(self):
        # At p = 2 the relation is trace-inner-product orthogonality.
        rng = _rng(101)
        for _ in range(10):
            a = _draw(rng, (3, 3))
            b = _draw(rng, (3, 3))
            ip = complex(np.trace(a.conj().T @ b))
            # Generic draws have a large overlap: verdict must be False.
            assert abs(ip) > 1e-3
            assert not bj_definitional(a, b, FROBENIUS).holds
            # Projecting out the overlap makes it hold.
            c = b - (ip / np.trace(a.conj().T @ a)) * a
            assert abs(complex(np.trace(a.conj().T @ c))) <= 1e-9
            assert bj_definitional(a, c, FROBENIUS).holds

    def test_gap_is_min_norm_increase(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        v = bj_definitional(a, np.eye(2), TRACE)
        # min over gamma of ||diag(1 + g, g)||_1 is 1, attained on the whole
        # real segment gamma in [-1, 0].
        assert v.holds
        assert abs(v.gap) <= 1e-9
        g = v.extremal_scalar
        assert -1.0 - 1e-3 <= g.real <= 1e-3 and abs(g.imag) <= 1e-3

    def test_dependent_pair_fails(self):
        rng = _rng(103)
        a = _draw(rng, (3, 3))
        for spec in (TRACE, FROBENIUS, SPECTRAL, NormSpec.schatten(1.5)):
            v = bj_definitional(a, 0.7 * a, spec)
            assert not v.holds
            # The minimizer cancels the dependent direction: gamma = -1/0.7.
            assert abs(v.extremal_scalar + 1.0 / 0.7) <= 1e-3
            assert v.gap <= -0.9 * schatten_norm(a, spec.p)

    @pytest.mark.parametrize("spec", _EXACT_SPECS + [NormSpec.lp(1.5)], ids=str)
    def test_dependent_pair_takes_its_apex(self, spec, monkeypatch):
        # a = c b: the minimum is 0 at -c, certified by f >= 0, with no
        # search, at any scale of either operand.  A pair off dependence by
        # 1e-9 of its scale is searched.
        from schatten_lab import ortho

        searched = []

        def counted(*args, **kwargs):
            searched.append(1)
            return gamma_min(*args, **kwargs)

        gamma_min = ortho.gamma_min
        monkeypatch.setattr(ortho, "gamma_min", counted)
        rng = _rng(131)
        shape = (5,) if spec.is_vector else (4, 4)
        b, c = _draw(rng, shape), 0.7 - 0.4j
        for sa, sb in ((1.0, 1.0), (1e-150, 1e100), (1e150, 1e-100)):
            a = sa * c * b
            v = bj_definitional(a, sb * b, spec)
            na = norm_value(a, spec)
            assert not v.holds and v.lower == -na
            assert abs(v.extremal_scalar + c * sa / sb) <= 1e-15 * abs(c * sa / sb)
            assert -na <= v.gap <= -na + 1e-14 * na
        assert searched == []
        v = bj_definitional(c * b + 1e-9 * _draw(rng, shape), b, spec)
        assert searched == [1] and not v.holds

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=str)
    def test_zero_minimum_of_the_pencil(self, spec):
        # b = -a: the pencil vanishes at gamma = 1, a cone's apex, which the
        # cutting plane reaches from gamma = 0 and bounds to rounding.
        a = _draw(_rng(109), (3, 3))
        v = bj_definitional(a, -a, spec)
        na = norm_value(a, spec)
        assert not v.holds and abs(v.extremal_scalar - 1.0) <= 1e-14
        assert v.lower <= v.gap
        assert abs(v.gap + na) <= 1e-14 * na and abs(v.lower + na) <= 1e-14 * na

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=str)
    def test_rectangular_pairs(self, spec):
        # Wide and tall pairs: the reported gap is the norm at the extremal
        # scalar, no nearby or sampled scalar goes lower, and the cutting
        # plane's bound (on the dependent pair at least) lies below it.
        rng = _rng(113)
        for shape in ((3, 5), (5, 3)):
            a, b = _draw(rng, shape), _draw(rng, shape)
            na = norm_value(a, spec)
            for bb, dependent in ((b, False), ((0.6 - 0.8j) * a, True)):
                v = bj_definitional(a, bb, spec)
                g = v.extremal_scalar
                assert abs(norm_value(a + g * bb, spec) - na - v.gap) <= 1e-12 * na
                gammas = np.concatenate([g + 1e-3 * _draw(rng, (20,)), 2.0 * _draw(rng, (20,))])
                assert all(norm_value(a + z * bb, spec) - na >= v.gap - 1e-12 * na
                           for z in gammas)
                if dependent:
                    assert not v.holds and abs(v.gap + na) <= 1e-12 * na
                if v.lower is not None:
                    assert v.lower <= v.gap <= v.lower + 1e-10 * na

    def test_not_symmetric_in_general(self):
        # Spectral norm: diag(1,1) is orthogonal to diag(1,0) (the free
        # coordinate keeps the norm at 1), but not conversely (gamma = -1/2
        # shrinks diag(1,0) + gamma diag(1,1) to norm 1/2).
        a = np.diag([1.0, 1.0])
        b = np.diag([1.0, 0.0])
        assert bj_definitional(a, b, SPECTRAL).holds
        rev = bj_definitional(b, a, SPECTRAL)
        assert not rev.holds
        assert abs(rev.gap + 0.5) <= 1e-6
        assert abs(rev.extremal_scalar + 0.5) <= 1e-3

    def test_vector_specs(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert bj_definitional(x, y, NormSpec.lp(2.0)).holds
        assert bj_definitional(x, y, NormSpec.max_norm()).holds
        assert not bj_definitional(x, 2.0 * x, NormSpec.lp(1.5)).holds

    @pytest.mark.parametrize("spec", _EXACT_SPECS, ids=str)
    def test_verdict_does_not_depend_on_separate_scales(self, spec):
        # The gap scales with ||a|| alone: scaling either operand by itself
        # must keep the verdict of the generic pair (fails) and of the
        # disjoint pair (holds).
        rng = _rng(5)
        for (a, b), want in (((ginibre(rng, 4), ginibre(rng, 4)), False),
                             (_disjoint_pair(rng), True)):
            assert bj_definitional(a, b, spec).holds == want
            for s in (1e-13, 1e-8, 1e-4, 1e4, 1e8, 1e13):
                assert bj_definitional(s * a, b, spec).holds == want
                assert bj_definitional(a, s * b, spec).holds == want

    def test_degenerate_zero_operand(self):
        a = np.zeros((2, 2))
        v = bj_definitional(a, np.eye(2), FROBENIUS)
        assert v.degenerate and v.holds and v.lower == 0.0

    @pytest.mark.parametrize("spec", _EXACT_SPECS + [NormSpec.lp(p) for p in (1.0, 2.0, INF)],
                             ids=str)
    def test_lower_bound_brackets_the_gap(self, spec):
        # The cutting plane stops once its best value is within 1e-14 ||a||
        # above its bound.  Newton's converged models carry no bound; a
        # dependent pair hands over to the cutting plane, whose bound then
        # meets the apex.
        rng = _rng(107)
        shape = (5,) if spec.is_vector else (4, 4)
        pairs = [(_draw(rng, shape), _draw(rng, shape)) for _ in range(3)]
        b = _draw(rng, shape)
        pairs.append(((0.6 + 0.3j) * b, b))
        for k, (a, b) in enumerate(pairs):
            v = bj_definitional(a, b, spec)
            na = norm_value(a, spec)
            if spec.smooth and k < 3:
                assert v.lower is None
                continue
            assert v.lower <= v.gap <= v.lower + 1e-10 * na

    @pytest.mark.skipif(not _PERFBENCH_INPUTS.is_file(),
                        reason="needs the benchmark's input generator")
    @pytest.mark.parametrize("op, spec, gap", [
        (17, NormSpec.induced(INF), -0.5874113221),
        (36, NormSpec.induced(1.0), -0.1177046355),
    ])
    def test_kinks_reach_the_minimum(self, op, spec, gap):
        # ortho-pairs round 2, direction 0: a Nelder-Mead refiner stalled
        # here, 1.01e4 and 0.74 tolerances above these minima (-0.5828369,
        # -0.1177044776).  The cutting plane reaches them, with the bound.
        pair = _benchmark_inputs().ortho_round(2)[op]
        v = bj_definitional(pair.a, pair.b, spec)
        assert abs(v.gap - gap) <= 1e-9
        assert v.lower <= v.gap <= v.lower + 1e-10 * norm_value(pair.a, spec)

    @pytest.mark.parametrize("spec", _EXACT_SPECS + [NormSpec.lp(1.0), NormSpec.max_norm()],
                             ids=str)
    def test_self_conjugate_pencils_search_the_real_segment(self, spec):
        # ||a + conj(g) b|| = ||a + g b|| for real pairs under every norm,
        # and for Hermitian pairs under Schatten norms: the cutting plane
        # then runs on the real axis, and Newton, where it runs (the smooth
        # norms), lands on it to its resolution.
        rng = _rng(127)
        shape = (5,) if spec.is_vector else (4, 4)
        pairs = [(rng.standard_normal(shape), rng.standard_normal(shape))]
        if spec.kind == "schatten":
            h = [_draw(rng, shape) for _ in range(2)]
            pairs.append((h[0] + h[0].conj().T, h[1] + h[1].conj().T))
        for a, b in pairs:
            v = bj_definitional(a, b, spec)
            radius = 4.0 * norm_value(a, spec) / norm_value(b, spec)
            if spec.smooth:
                assert abs(v.extremal_scalar.imag) <= 1e-9 * radius
            else:
                assert v.extremal_scalar.imag == 0.0 and v.lower <= v.gap

    def test_quasi_norm_rejected(self):
        with pytest.raises(ValueError):
            bj_definitional(np.eye(2), np.eye(2), NormSpec.schatten(0.5))

    def test_inexact_induced_norm_rejected(self):
        with pytest.raises(ValueError, match="exactly computable"):
            bj_definitional(np.eye(2), np.eye(2), NormSpec.induced(3.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bj_definitional(np.eye(2), np.eye(3), FROBENIUS)


class TestSemiInnerProduct:
    def test_axioms_on_random_triples(self):
        rng = _rng(107)
        p = 1.5
        for _ in range(20):
            a = _draw(rng, (3, 3))
            b = _draw(rng, (3, 3))
            c = _draw(rng, (3, 3))
            alpha = complex(_draw(rng, ()).item())
            na = schatten_norm(a, p)
            nb = schatten_norm(b, p)
            scale = max(1.0, na, nb, schatten_norm(c, p)) ** 2
            # self-value: [a, a] = ||a||^2
            assert abs(semi_inner_product(a, a, p) - na**2) <= 1e-8 * scale
            # additivity in the first slot
            lhs = semi_inner_product(b + c, a, p)
            rhs = semi_inner_product(b, a, p) + semi_inner_product(c, a, p)
            assert abs(lhs - rhs) <= 1e-8 * scale
            # homogeneity: first slot linear, second slot conjugate-homogeneous
            assert abs(
                semi_inner_product(alpha * b, a, p)
                - alpha * semi_inner_product(b, a, p)
            ) <= 1e-8 * scale * max(1.0, abs(alpha))
            assert abs(
                semi_inner_product(b, alpha * a, p)
                - np.conj(alpha) * semi_inner_product(b, a, p)
            ) <= 1e-6 * scale * max(1.0, abs(alpha)) ** 2
            # Cauchy-Schwarz
            assert abs(semi_inner_product(b, a, p)) <= na * nb + 1e-8 * scale

    def test_p_two_is_trace_inner_product(self):
        rng = _rng(109)
        a = _draw(rng, (3, 3))
        b = _draw(rng, (3, 3))
        assert abs(
            semi_inner_product(b, a, 2.0) - complex(np.trace(a.conj().T @ b))
        ) <= 1e-9

    def test_trace_criterion_matches_definitional(self):
        rng = _rng(113)
        for p in (1.5, 2.0, 3.0):
            for _ in range(5):
                a = _draw(rng, (3, 3))
                b = _draw(rng, (3, 3))
                # Generic pair: almost surely not orthogonal either way.
                assert bj_trace(a, b, p) == bj_definitional(
                    a, b, NormSpec.schatten(p)
                ).holds
                # Constructed orthogonal complement: both must hold.
                sip = semi_inner_product(b, a, p)
                c = b - (sip / schatten_norm(a, p) ** 2) * a
                assert abs(semi_inner_product(c, a, p)) <= 1e-9 * max(
                    1.0, schatten_norm(c, p) ** 2
                )
                assert bj_trace(a, c, p)
                assert bj_definitional(a, c, NormSpec.schatten(p)).holds

    def test_p_one_uses_support_projection(self):
        # At p = 1 the form is ||a||_1 * tr(u* b) over the support of a.
        a = np.diag([2.0, 0.0]).astype(complex)
        b = np.array([[3.0, 1.0], [1.0, 5.0]], dtype=complex)
        # u = e11 on the support, so tr(u* b) = b[0, 0] = 3; ||a||_1 = 2.
        assert abs(semi_inner_product(b, a, 1.0) - 6.0) <= 1e-12

    def test_invalid_exponents(self):
        a = np.eye(2)
        for p in (INF, 0.5):
            with pytest.raises(ValueError):
                semi_inner_product(a, a, p)
        for p in (1.0, INF, 0.5):
            with pytest.raises(ValueError):
                bj_trace(a, a, p)


class TestIsosceles:
    def test_disjoint_pairs_are_isosceles(self):
        rng = _rng(127)
        for p in (1.0, 1.5, 2.0):
            a, b = _disjoint_pair(rng)
            assert isosceles(a, b, p)
            assert isosceles(a, b, p, complex_mode=False)

    def test_real_but_not_complex_mode(self):
        # For p = 2: ||a+b|| = ||a-b|| iff Re tr(b* a) = 0, while the complex
        # mode also needs Im tr(b* a) = 0.
        a = np.eye(2, dtype=complex)
        b = 1j * np.eye(2, dtype=complex)  # tr(b* a) = -2j, purely imaginary
        assert isosceles(a, b, 2.0, complex_mode=False)
        assert not isosceles(a, b, 2.0)

    def test_generic_pair_fails(self):
        rng = _rng(131)
        a = _draw(rng, (3, 3))
        b = a + 0.1 * _draw(rng, (3, 3))
        for p in (1.0, 2.0, 3.0):
            assert not isosceles(a, b, p)


class TestSupportsAndAdditivity:
    def test_block_pair_is_disjoint_both_sides(self):
        rng = _rng(137)
        a, b = _disjoint_pair(rng)
        rep = disjoint_supports(a, b)
        assert rep.right_disjoint and rep.left_disjoint
        assert rep.right_residual <= 1e-12
        assert rep.left_residual <= 1e-12

    def test_one_sided_pairs(self):
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0  # rows span e1, columns span e1
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0  # rows span e2, columns span e1
        e21 = np.zeros((2, 2), dtype=complex)
        e21[1, 0] = 1.0  # rows span e1, columns span e2

        # Row spaces orthogonal, column spaces overlap: right only.
        rep = disjoint_supports(e11, e12)
        assert rep.right_disjoint and not rep.left_disjoint
        assert rep.right_residual <= 1e-12
        assert rep.left_residual > 0.1

        # Column spaces orthogonal, row spaces overlap: left only.
        rep = disjoint_supports(e11, e21)
        assert rep.left_disjoint and not rep.right_disjoint
        assert rep.left_residual <= 1e-12
        assert rep.right_residual > 0.1

    def test_norm_additivity_iff_disjoint(self):
        rng = _rng(139)
        a, b = _disjoint_pair(rng)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert norm_additivity(a, b, p)
        c = _draw(rng, (4, 4))
        d = _draw(rng, (4, 4))
        for p in (1.5, 2.0, 3.0):
            assert not norm_additivity(c, d, p)

    def test_disjoint_pairs_mutually_bj(self):
        rng = _rng(149)
        a, b = _disjoint_pair(rng)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            assert bj_definitional(a, b, NormSpec.schatten(p)).holds
            assert bj_definitional(b, a, NormSpec.schatten(p)).holds


class TestClarkson:
    def test_gap_signs_by_exponent(self):
        rng = _rng(151)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            b = _draw(rng, (4, 4))
            base = schatten_norm(a, 2.0) ** 2 + schatten_norm(b, 2.0) ** 2
            for p in (0.5, 1.0, 1.5):
                assert clarkson_gap(a, b, p) <= 1e-9 * max(1.0, base)
            for p in (2.5, 3.0, 4.0):
                assert clarkson_gap(a, b, p) >= -1e-9 * max(1.0, base)
            assert abs(clarkson_gap(a, b, 2.0)) <= 1e-9 * max(1.0, base)

    def test_equality_on_disjoint_pairs(self):
        rng = _rng(157)
        a, b = _disjoint_pair(rng)
        for p in (0.5, 1.5, 3.0):
            scale = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
            assert abs(clarkson_gap(a, b, p)) <= 1e-9 * max(1.0, scale)


class TestLoewner:
    def test_identity_accepts_only_zero(self):
        rng = _rng(163)
        samples = default_gamma_samples(seed=2)
        assert loewner_identity_test(np.zeros((3, 3)), samples)
        for _ in range(5):
            a = _draw(rng, (3, 3))
            a /= schatten_norm(a, 2.0)
            assert not loewner_identity_test(a, samples)
            assert not loewner_identity_test(2.0 * a, samples)

    def test_domination_on_column_split(self):
        # b = P g1, a = (I - P) g2 gives b* a = 0, hence |b + gamma a| >= |b|.
        rng = _rng(167)
        n = 4
        g = _draw(rng, (n, n))
        q, _ = np.linalg.qr(g)
        p_proj = q[:, :2] @ q[:, :2].conj().T
        b = p_proj @ _draw(rng, (n, n))
        a = (np.eye(n) - p_proj) @ _draw(rng, (n, n))
        assert np.allclose(b.conj().T @ a, 0.0, atol=1e-12)
        rep = loewner_domination(b, a, bj_ps=(1.5, 2.0, 3.0))
        assert rep.dominates
        assert rep.trace_orthogonal
        assert rep.kernel_identity
        assert rep.bj_all_p

    @pytest.mark.parametrize("s", [1.0, 1e-4, 1e-8, 1e-12])
    def test_verdicts_do_not_depend_on_scale(self, s):
        # |tr(b* a)| / (||a||_F ||b||_F) = 0.136 on this pair, so neither
        # domination nor trace orthogonality holds at any common scale.
        rng = _rng(5)
        b, a = ginibre(rng, 4), ginibre(rng, 4)
        rep = loewner_domination(s * b, s * a, bj_ps=())
        assert not rep.dominates
        assert not rep.trace_orthogonal
        assert not cmatrix.loewner_geq(cmatrix.modulus(s * (b + 0.5 * a)),
                                       cmatrix.modulus(s * b))

    def test_domination_rejects_overlapping_pair(self):
        rng = _rng(173)
        b = _draw(rng, (3, 3))
        a = b + 0.05 * _draw(rng, (3, 3))
        rep = loewner_domination(b, a, bj_ps=())
        assert not rep.dominates


def _loewner_pairs():
    """Seeded (b, a) pairs: dominating column splits, non-dominating
    overlapping pairs, and both kinds with a shared null column."""
    rng = _rng(179)
    n = 4
    drop = np.diag([1.0, 1.0, 1.0, 0.0])
    pairs = []
    for _ in range(3):
        q, _ = np.linalg.qr(_draw(rng, (n, n)))
        p_proj = q[:, :2] @ q[:, :2].conj().T
        b = p_proj @ _draw(rng, (n, n))
        a = (np.eye(n) - p_proj) @ _draw(rng, (n, n))
        c = _draw(rng, (n, n))
        d = c + 0.3 * _draw(rng, (n, n))
        pairs += [(b, a), (c, d), (b @ drop, a @ drop), (c @ drop, d @ drop)]
    return pairs


def _rank_drop_pairs(samples):
    """Seeded (b, a) pairs with b = U S V* and a = -U_k S_k V_k* / gamma0 +
    eps G for gamma0 in ``samples``: at eps = 0, b + gamma0 a loses rank k."""
    rng = _rng(191)
    pairs = []
    for i in range(30):
        n = 2 + i % 5
        eps = (0.0, 1e-14, 1e-9, 1e-6, 1e-3)[(i // 5) % 5]
        g0 = samples[rng.integers(len(samples))]
        u, _ = np.linalg.qr(_draw(rng, (n, n)))
        v, _ = np.linalg.qr(_draw(rng, (n, n)))
        s = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
        k = 1 + int(rng.integers(n))
        b = (u * s) @ v.conj().T
        a = -(u[:, :k] * s[:k]) @ v[:, :k].conj().T / g0 + eps * _draw(rng, (n, n))
        pairs.append((b, a))
    return pairs


def _same_subspace(n1, n2, tol):
    if n1.shape[1] != n2.shape[1]:
        return False
    if n1.shape[1] == 0:
        return True
    return np.linalg.norm(n2 - n1 @ (n1.conj().T @ n2), 2) <= tol


class TestLoewnerBatch:
    def test_moduli_and_ranks_match_per_member_routines(self):
        for b, a in _loewner_pairs():
            gammas = default_gamma_samples(seed=3)
            moduli, ranks = cmatrix.moduli_and_ranks(b + gammas[:, None, None] * a)
            for g, m, r in zip(gammas, moduli, ranks):
                assert np.array_equal(m, cmatrix.modulus(b + g * a))
                assert r == b.shape[1] - cmatrix.null_space(b + g * a).shape[1]

    def test_loewner_geq_batch_matches_loewner_geq(self):
        for b, a in _loewner_pairs():
            gammas = default_gamma_samples(seed=4)
            moduli = np.array([cmatrix.modulus(b + g * a) for g in gammas])
            abs_b = cmatrix.modulus(b)
            got = cmatrix.loewner_geq_batch(moduli, abs_b)
            assert got.tolist() == [cmatrix.loewner_geq(m, abs_b) for m in moduli]

    def test_loewner_geq_batch_gates_every_member(self):
        eye = np.eye(2, dtype=complex)
        stack = np.array([eye, [[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            cmatrix.loewner_geq_batch(stack, eye)

    def test_domination_matches_per_gamma_loop(self):
        seen = set()
        for b, a in _loewner_pairs():
            gammas = np.concatenate([[0j], default_gamma_samples(seed=5)])
            rep = loewner_domination(b, a, gammas, bj_ps=())
            abs_b = cmatrix.modulus(b)
            dominates = True
            for g in gammas:
                if not cmatrix.loewner_geq(cmatrix.modulus(b + g * a), abs_b):
                    dominates = False
                    break
            joint = cmatrix.null_space(np.vstack([b, a]))
            kernel_identity = True
            for g in gammas[1:]:
                if not _same_subspace(cmatrix.null_space(b + g * a), joint, 1e-6):
                    kernel_identity = False
                    break
            assert (rep.dominates, rep.kernel_identity) == (dominates, kernel_identity)
            seen.add((dominates, joint.shape[1]))
        # Both verdicts occur, with and without a shared kernel.
        assert seen == {(True, 0), (False, 0), (True, 1), (False, 1)}

    def test_kernel_identity_matches_subspace_reference(self):
        # Pairs that drop rank at a sampled gamma0: b = U S V*, and a cancels
        # b's top k singular directions at gamma0, up to eps G.  The rank
        # test must agree with comparing kernels by principal angles.
        samples = default_gamma_samples(seed=7)
        seen = set()
        for b, a in _loewner_pairs() + _rank_drop_pairs(samples):
            rep = loewner_domination(b, a, samples, bj_ps=())
            joint = cmatrix.null_space(np.vstack([b, a]))
            kernel_identity = all(_same_subspace(cmatrix.null_space(b + g * a), joint, 1e-6)
                                  for g in samples)
            assert rep.kernel_identity == kernel_identity
            seen.add(kernel_identity)
        assert seen == {True, False}

    def test_identity_test_matches_per_gamma_loop(self):
        eye = np.eye(3, dtype=complex)
        samples = default_gamma_samples(seed=6)
        for a in (np.zeros((3, 3)), 1e-12 * _draw(_rng(181), (3, 3)), _draw(_rng(183), (3, 3))):
            expected = all(cmatrix.loewner_geq(cmatrix.modulus(eye + g * a), eye)
                           for g in samples)
            assert loewner_identity_test(a, samples) == expected

    def test_empty_sample_set(self):
        b, a = _loewner_pairs()[1]
        rep = loewner_domination(b, a, np.array([], dtype=complex), bj_ps=())
        assert rep.dominates and rep.kernel_identity
