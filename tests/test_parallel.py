"""Tests for norm-parallelism: definitional, trace routes, radii, witnesses."""

import math

import numpy as np
import pytest

from schatten_lab import parallel, search
from schatten_lab.ensembles import ginibre
from schatten_lab.norms import (
    FROBENIUS,
    INF,
    NormSpec,
    SPECTRAL,
    TRACE,
    induced_norm,
    numerical_radius_banach,
    schatten_norm,
    vector_norm,
)
from schatten_lab.parallel import (
    eigen_parallel_identity,
    epsilon_isometry_transfer,
    hilbert_parallel_witness,
    linearly_dependent,
    norming_set,
    parallel_definitional,
    parallel_identity_radius,
    parallel_identity_trace,
    parallel_trace_class,
    parallel_trace_p,
    vector_parallel,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng, n):
    q, r = np.linalg.qr(_draw(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestDefinitional:
    def test_scalar_multiples_are_parallel(self):
        rng = _rng(211)
        a = _draw(rng, (3, 3))
        c = 0.8 * np.exp(0.7j)
        b = c * a
        for spec in (TRACE, FROBENIUS, SPECTRAL, NormSpec.induced(2.0)):
            v = parallel_definitional(a, b, spec)
            assert v.holds
            assert abs(v.gap) <= v.tolerance
            # The best scalar undoes the phase of c.
            assert abs(v.lambda_star - np.exp(-0.7j)) <= 1e-3
            assert abs(abs(v.lambda_star) - 1.0) <= 1e-9

    def test_endpoint_pair_depends_on_exponent(self):
        # diag(1,0) and I: parallel at p in {1, inf}, not at p = 2, and not
        # linearly dependent.
        a = np.diag([1.0, 0.0])
        i2 = np.eye(2)
        v1 = parallel_definitional(a, i2, TRACE)
        assert v1.holds and abs(v1.achieved - 3.0) <= 1e-9
        vinf = parallel_definitional(a, i2, SPECTRAL)
        assert vinf.holds and abs(vinf.achieved - 2.0) <= 1e-9
        v2 = parallel_definitional(a, i2, FROBENIUS)
        assert not v2.holds
        assert abs(v2.achieved - math.sqrt(5.0)) <= 1e-9
        assert abs(v2.target - (1.0 + math.sqrt(2.0))) <= 1e-12
        assert not linearly_dependent(a, i2)

    def test_disjoint_pair_parallel_only_in_trace_norm(self):
        rng = _rng(223)
        a = np.zeros((4, 4), dtype=complex)
        b = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = _draw(rng, (2, 2))
        b[2:, 2:] = _draw(rng, (2, 2))
        assert parallel_definitional(a, b, TRACE).holds
        for p in (1.5, 2.0, 3.0):
            assert not parallel_definitional(a, b, NormSpec.schatten(p)).holds

    def test_degenerate_zero_operand(self):
        v = parallel_definitional(np.zeros((2, 2)), np.eye(2), SPECTRAL)
        assert v.holds and v.degenerate

    def test_holds_side_is_certified(self):
        # achieved is a grid/golden maximum, never above the true maximum:
        # on holding cases it reaches the target within tolerance.
        rng = _rng(227)
        a = _draw(rng, (3, 3))
        v = parallel_definitional(a, (1.0 - 0.5j) * a, SPECTRAL)
        assert v.holds
        assert v.achieved <= v.target + 1e-12

    @pytest.mark.parametrize("spec, grid, pruned", [
        (NormSpec.schatten(2.0), 720, True),
        (NormSpec.induced(INF), 720, True),
        (NormSpec.schatten(0.5), 720, False),  # a quasi-norm: no convexity bound
        (NormSpec.induced(3.0), 96, False),    # values are only lower bounds
    ])
    def test_circle_grid_pruned_only_under_exact_norms(self, monkeypatch, spec, grid, pruned):
        seen = []

        def counting(f_batch, f_scalar, **kwargs):
            def counted(thetas):
                seen.extend(thetas)
                return f_batch(thetas)
            return search.circle_max(counted, f_scalar, **kwargs)

        monkeypatch.setattr(parallel, "circle_max", counting)
        a, b = ginibre(_rng(229), 4), ginibre(_rng(233), 4)
        parallel_definitional(a, b, spec)
        assert len(set(seen)) == len(seen)
        assert (len(seen) < grid) if pruned else (len(seen) == grid)


class TestVectorParallel:
    def test_max_norm_pairs(self):
        x = np.array([1.0, -1.0])
        y = np.array([-1.0, -1.0])
        v = vector_parallel(x, y, NormSpec.max_norm())
        assert v.holds and abs(v.achieved - 2.0) <= 1e-9
        x2 = np.array([0.0, 1.0])
        y2 = np.array([-1.0, 0.0])
        v2 = vector_parallel(x2, y2, NormSpec.max_norm())
        assert not v2.holds
        assert abs(v2.achieved - 1.0) <= 1e-9

    def test_lp_vectors(self):
        x = np.array([1.0, 0.0])
        assert vector_parallel(x, 3j * x, NormSpec.lp(1.5)).holds
        # l2: parallel iff dependent.
        y = np.array([0.0, 1.0])
        assert not vector_parallel(x, y, NormSpec.lp(2.0)).holds

    def test_rejects_matrix_spec(self):
        with pytest.raises(ValueError):
            vector_parallel(np.ones(2), np.ones(2), SPECTRAL)


class TestLinearDependence:
    def test_multiples_and_zero(self):
        rng = _rng(229)
        a = _draw(rng, (3, 3))
        assert linearly_dependent(a, (2.0 - 1.0j) * a)
        assert linearly_dependent(a, np.zeros((3, 3)))
        assert linearly_dependent(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_independent(self):
        rng = _rng(233)
        a = _draw(rng, (3, 3))
        b = _draw(rng, (3, 3))
        assert not linearly_dependent(a, b)
        # Tiny independent perturbations stay independent at the default tol.
        assert not linearly_dependent(a, a + 1e-5 * b)

    def test_vectors_and_shape_mismatch(self):
        assert linearly_dependent([1.0, 2.0], [2.0, 4.0])
        with pytest.raises(ValueError):
            linearly_dependent(np.ones(2), np.ones(3))


class TestTraceRoutes:
    def test_trace_p_on_dependent_pairs(self):
        rng = _rng(239)
        a = _draw(rng, (3, 3))
        b = -1.3j * a
        for p in (1.5, 2.0, 3.0):
            assert parallel_trace_p(a, b, p)
            assert parallel_definitional(a, b, NormSpec.schatten(p)).holds

    def test_trace_p_on_independent_pairs(self):
        rng = _rng(241)
        for p in (1.5, 2.0, 3.0):
            a = _draw(rng, (3, 3))
            b = _draw(rng, (3, 3))
            assert not parallel_trace_p(a, b, p)
            assert not parallel_definitional(a, b, NormSpec.schatten(p)).holds

    def test_trace_p_validation(self):
        a = np.eye(2)
        for p in (1.0, INF):
            with pytest.raises(ValueError):
                parallel_trace_p(a, a, p)

    def test_trace_class_invertible(self):
        assert parallel_trace_class(np.eye(2), np.diag([2.0, 1.0]))
        assert not parallel_trace_class(np.eye(2), np.diag([1.0, -1.0]))
        rng = _rng(251)
        a = np.eye(3) + 0.1 * _draw(rng, (3, 3))
        assert parallel_trace_class(a, 0.4j * a)

    def test_trace_class_agrees_with_definitional(self):
        rng = _rng(257)
        for _ in range(5):
            a = np.eye(3) + 0.2 * _draw(rng, (3, 3))
            b = _draw(rng, (3, 3))
            assert parallel_trace_class(a, b) == parallel_definitional(
                a, b, TRACE
            ).holds

    def test_trace_class_rejects_singular(self):
        with pytest.raises(ValueError):
            parallel_trace_class(np.diag([1.0, 0.0]), np.eye(2))


class TestIdentityRoutes:
    def test_identity_trace_closed_forms(self):
        # Scalar matrices attain at every p; traceless ones never do.
        for p in (1.0, 1.5, 2.0, 3.0):
            assert parallel_identity_trace(3j * np.eye(2), p)
            assert not parallel_identity_trace(np.diag([1.0, -1.0]), p)
        # PSD matrices are parallel to I in the trace norm (trace adds up),
        # but an unbalanced diagonal loses parallelism for p > 1.
        a = np.diag([3.0, 1.0])
        assert parallel_identity_trace(a, 1.0)
        for p in (1.5, 2.0, 3.0):
            assert not parallel_identity_trace(a, p)

    def test_identity_trace_validation(self):
        with pytest.raises(ValueError):
            parallel_identity_trace(np.eye(2), INF)
        with pytest.raises(ValueError):
            parallel_identity_trace(np.eye(2), 0.5)

    def test_identity_radius_hilbert(self):
        rng = _rng(263)
        # Normal matrices are radius-attaining, so parallel to I.
        d = _draw(rng, 3)
        u = _haar(rng, 3)
        assert parallel_identity_radius(u @ np.diag(d) @ u.conj().T)
        # The Jordan cell has w = 1/2 < 1 = norm.
        assert not parallel_identity_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity_radius_banach(self):
        d = np.diag([1.0, -0.4, 0.2]).astype(complex)
        assert parallel_identity_radius(d, NormSpec.induced(3.0))
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not parallel_identity_radius(nil, NormSpec.induced(3.0))
        # A real rotation attains its radius only at complex vectors.
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert parallel_identity_radius(rot, NormSpec.induced(3.0))
        for p in (1.5, 2.0, 3.0):
            assert abs(numerical_radius_banach(rot, p).value - 1.0) <= 1e-9

    def test_identity_radius_validation(self):
        with pytest.raises(ValueError):
            parallel_identity_radius(np.eye(2), TRACE)
        with pytest.raises(ValueError):
            parallel_identity_radius(np.eye(2), NormSpec.induced(1.0))

    def test_eigen_route(self):
        rng = _rng(269)
        d = np.array([2.0 * np.exp(0.3j), 0.5, -0.1])
        u = _haar(rng, 3)
        a = u @ np.diag(d) @ u.conj().T
        lam = eigen_parallel_identity(a)
        assert lam is not None
        assert abs(lam - np.exp(0.3j)) <= 1e-9
        # The returned phase certifies parallelism to I.
        attained = schatten_norm(a + lam * np.eye(3), INF)
        assert abs(attained - (schatten_norm(a, INF) + 1.0)) <= 1e-9

    def test_eigen_route_no_conclusion(self):
        assert eigen_parallel_identity(np.array([[0.0, 1.0], [0.0, 0.0]])) is None
        for m in (2, 5, 8):
            shift = np.diag(np.ones(m - 1), 1)
            assert eigen_parallel_identity(shift) is None
            assert not parallel_definitional(shift, np.eye(m), SPECTRAL).holds

    def test_eigen_route_zero_matrix(self):
        assert eigen_parallel_identity(np.zeros((2, 2))) == 1.0 + 0j


class TestNormingSet:
    def test_spectral_isolated_top(self):
        ns = norming_set(np.diag([2.0, 1.0]))
        assert ns.exact
        assert abs(ns.norm_value - 2.0) <= 1e-12
        assert len(ns.members) == 1
        x = ns.members[0]
        assert abs(abs(x[0]) - 1.0) <= 1e-12 and abs(x[1]) <= 1e-12

    def test_spectral_degenerate_top(self):
        ns = norming_set(np.eye(2))
        assert ns.exact and len(ns.members) == 2

    def test_induced_one_and_inf(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        ns1 = norming_set(a, NormSpec.induced(1.0))
        assert ns1.exact and abs(ns1.norm_value - 6.0) <= 1e-12
        assert len(ns1.members) == 1 and abs(ns1.members[0][1] - 1.0) <= 1e-12
        nsi = norming_set(a, NormSpec.induced(INF))
        assert nsi.exact and abs(nsi.norm_value - 7.0) <= 1e-12
        x = nsi.members[0]
        assert np.allclose(np.abs(x), 1.0, atol=1e-12)
        assert abs(np.max(np.abs(a @ x)) - 7.0) <= 1e-12

    def test_vector_specs_map_to_induced(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        via_vec = norming_set(a, NormSpec.max_norm())
        via_ind = norming_set(a, NormSpec.induced(INF))
        assert via_vec.norm_value == via_ind.norm_value
        assert np.allclose(via_vec.members[0], via_ind.members[0])

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_closed_forms_match_induced_norm(self, p):
        rng = _rng(277)
        mats = [_draw(rng, shape) for shape in ((2, 2), (3, 4), (4, 3), (4, 4))]
        mats += [np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(3)]  # ties
        specs = [NormSpec.induced(p)] + ([SPECTRAL] if p == 2.0 else [])
        for a in mats:
            res = induced_norm(a, p)
            x = res.witness_vector
            for spec in specs:
                ns = norming_set(a, spec)
                assert ns.exact and ns.norm_value == res.value
                # The witness is a member up to a unimodular factor.
                assert any(abs(np.vdot(x, m)) > 0 and np.allclose(
                    m, x * np.vdot(x, m) / abs(np.vdot(x, m)), rtol=0, atol=1e-12)
                    for m in ns.members)
        assert len(norming_set(mats[4], NormSpec.induced(p)).members) == 2
        assert len(norming_set(mats[5], NormSpec.induced(p)).members) == 3

    @pytest.mark.parametrize("spec", [SPECTRAL, NormSpec.induced(1.0),
                                      NormSpec.induced(2.0), NormSpec.induced(INF)])
    def test_zero_matrix_has_one_member(self, spec):
        ns = norming_set(np.zeros((3, 2)), spec)
        assert ns.exact and ns.norm_value == 0.0 and len(ns.members) == 1
        p = 2.0 if spec == SPECTRAL else spec.p
        assert abs(vector_norm(ns.members[0], NormSpec.lp(p)) - 1.0) <= 1e-12

    def test_sampled_generic_p(self):
        ns = norming_set(np.diag([2.0, 1.0]), NormSpec.induced(1.5), seed=3)
        assert not ns.exact
        assert abs(ns.norm_value - 2.0) <= 1e-6
        assert any(abs(abs(m[0]) - 1.0) <= 1e-4 for m in ns.members)

    def test_rejects_plain_schatten(self):
        with pytest.raises(ValueError):
            norming_set(np.eye(2), FROBENIUS)


class TestHilbertWitness:
    def test_shared_top_pair_holds(self):
        rng = _rng(271)
        u = _haar(rng, 3)
        v = _haar(rng, 3)
        a = u @ np.diag([2.0, 0.5, 0.1]) @ v.conj().T
        b = u @ np.diag([3.0, 1.0, 0.2]) @ v.conj().T
        rep = hilbert_parallel_witness(a, b)
        assert rep.holds
        assert abs(rep.value - 6.0) <= 1e-6
        x = rep.witness
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-9
        # The witness is norming for both and the images are phase-aligned.
        assert abs(np.linalg.norm(a @ x) - 2.0) <= 1e-5
        assert abs(np.linalg.norm(b @ x) - 3.0) <= 1e-5
        assert abs(abs(np.vdot(a @ x, b @ x)) - 6.0) <= 1e-5

    def test_witness_agrees_with_definitional(self):
        rng = _rng(277)
        for _ in range(5):
            a = _draw(rng, (3, 3))
            b = _draw(rng, (3, 3))
            rep = hilbert_parallel_witness(a, b)
            ver = parallel_definitional(a, b, SPECTRAL)
            assert rep.holds == ver.holds
            # The two maxima agree: sup |<ax, bx>| = max_lambda ||a+lb|| gap.
            assert rep.value <= schatten_norm(a, INF) * schatten_norm(b, INF) + 1e-9


class TestScaleInvariance:
    """Parallelism is homogeneous: an independent pair is not parallel, and
    a scale common to both operands must not change that verdict."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(5)
        return ginibre(rng, 4), ginibre(rng, 4)

    @pytest.mark.parametrize("s", [1.0, 1e-7, 1e-8])
    def test_definitional_frobenius(self, s):
        a, b = self._pair()
        assert not parallel_definitional(s * a, s * b, FROBENIUS).holds

    # Separate scales (a by the first factor, b by the second): parallelism
    # is homogeneous in each operand alone too.  From a ratio of about 6e7
    # the tolerance is the round-off floor, 16 eps (||a|| + ||b||), which
    # still separates this pair at 1e12 (its gap is about 190 tolerances).
    _SCALES = (1e-12, 1e-10, 1e-8, 1e-4, 1e4, 1e8, 1e10, 1e12)
    _SEPARATE = [(1.0, s) for s in _SCALES] + [(s, 1.0) for s in _SCALES]

    @pytest.mark.parametrize("spec", [FROBENIUS, SPECTRAL, NormSpec.schatten(3.0)], ids=str)
    @pytest.mark.parametrize("sa, sb", _SEPARATE)
    def test_definitional_separate_scales(self, spec, sa, sb):
        a, b = self._pair()
        assert not parallel_definitional(sa * a, sb * b, spec).holds

    @pytest.mark.parametrize("spec", [FROBENIUS, SPECTRAL, NormSpec.schatten(3.0)], ids=str)
    @pytest.mark.parametrize("sa, sb", [(1.0, 1.0), (1e-8, 1e-8)] + _SEPARATE)
    def test_definitional_dependent_pair_at_every_scale(self, spec, sa, sb):
        _, b = self._pair()
        assert parallel_definitional(sa * b, sb * (0.7 - 0.4j) * b, spec).holds

    @pytest.mark.parametrize("s", [1.0, 1e-7, 1e-8])
    def test_identity_radius(self, s):
        a, _ = self._pair()
        assert not parallel_identity_radius(s * a)

    @pytest.mark.parametrize("s", [1.0, 1e-7, 1e-8])
    def test_hilbert_witness(self, s):
        a, b = self._pair()
        assert not hilbert_parallel_witness(s * a, s * b).holds


class TestIsometryTransfer:
    def _parallel_pair(self, rng, n=3):
        u = _haar(rng, n)
        v = _haar(rng, n)
        a = u @ np.diag([2.0, 0.5, 0.1]) @ v.conj().T
        b = u @ np.diag([3.0, 1.0, 0.2]) @ v.conj().T
        return a, b

    def test_exact_isometry_preserves_parallelism(self):
        rng = _rng(281)
        a, b = self._parallel_pair(rng)
        q = _haar(rng, 3)
        rep = epsilon_isometry_transfer(a, b, q, 0.0)
        assert rep.conjugated_parallel.holds
        assert rep.lower_bound_ok is True
        assert abs(rep.lower_bound - 5.0) <= 1e-9

    def test_distorted_conjugation_keeps_lower_bound(self):
        # Conjugation by a strict eps-isometry does not preserve exact
        # parallelism, so arrange the hypothesis the way the bound needs it:
        # pick the source pair so that its conjugation is exactly parallel.
        rng = _rng(283)
        for eps in (0.01, 0.05):
            alpha, beta = self._parallel_pair(rng)
            q1 = _haar(rng, 3)
            q2 = _haar(rng, 3)
            s = np.diag(1.0 + eps * np.array([1.0, -1.0, 0.3]))
            u = q1 @ s @ q2
            uinv = np.linalg.inv(u)
            a = uinv @ alpha @ u
            b = uinv @ beta @ u
            rep = epsilon_isometry_transfer(a, b, u, eps)
            assert rep.conjugated_parallel.holds
            ratio = (1.0 - eps) / (1.0 + eps)
            target = schatten_norm(a, INF) + schatten_norm(b, INF)
            assert abs(rep.lower_bound - ratio * ratio * target) <= 1e-9
            assert rep.lower_bound_ok is True
            assert rep.achieved >= rep.lower_bound - 1e-9

    def test_verdict_does_not_depend_on_scale(self):
        # The slack is relative to the target, so a common scale of the
        # operands changes neither the hypothesis nor the conclusion.
        rng = _rng(287)
        eps = 0.05
        alpha, beta = self._parallel_pair(rng)
        u = _haar(rng, 3) @ np.diag(1.0 + eps * np.array([1.0, -1.0, 0.3])) @ _haar(rng, 3)
        uinv = np.linalg.inv(u)
        for a, b, w, e in ((alpha, beta, _haar(rng, 3), 0.0),
                           (uinv @ alpha @ u, uinv @ beta @ u, u, eps)):
            reps = [epsilon_isometry_transfer(s * a, s * b, w, e) for s in (1.0, 1e-8)]
            assert [r.lower_bound_ok for r in reps] == [True, True]
            assert abs(reps[1].lower_bound - 1e-8 * reps[0].lower_bound) \
                <= 1e-12 * reps[1].lower_bound

    def test_non_parallel_source_gives_no_conclusion(self):
        rng = _rng(293)
        a = _draw(rng, (3, 3))
        b = _draw(rng, (3, 3))
        q = _haar(rng, 3)
        rep = epsilon_isometry_transfer(a, b, q, 0.0)
        assert not rep.conjugated_parallel.holds
        assert rep.lower_bound_ok is None

    def test_rejects_bad_conjugators(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            epsilon_isometry_transfer(a, a, np.diag([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            epsilon_isometry_transfer(a, a, np.diag([2.0, 1.0]), 0.01)
        with pytest.raises(ValueError):
            epsilon_isometry_transfer(a, a, np.eye(2), 1.5)
        with pytest.raises(ValueError):
            epsilon_isometry_transfer(a, a, np.eye(3), 0.0)
