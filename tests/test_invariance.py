"""Scale, unitary and adjoint invariance of the verdicts, as seeded property
tests on three pairs: the seed-5 Ginibre pair, a dependent pair and a
disjoint pair; and scale invariance of the lp family (vector lp, the max
norm, generic induced p and the lp numerical radius).

Every relation here is homogeneous, so a joint scale of both operands far
from 1 must keep the scale-1 verdict; the Schatten relations are also
unitarily invariant, ``(u a v, u b v)``, and invariant under adjoints."""

import math
import warnings

import numpy as np
import pytest

from schatten_lab import ensembles
from schatten_lab.cmatrix import hermitian_eigensystem
from schatten_lab.norms import NormSpec, induced_norm, norm_value, numerical_radius_banach
from schatten_lab.ortho import (
    bj_definitional,
    bj_trace,
    clarkson_gap,
    disjoint_supports,
    loewner_domination,
    norm_additivity,
    semi_inner_product,
)
from schatten_lab.parallel import (
    parallel_definitional,
    parallel_identity_radius,
    parallel_trace_p,
)

INF = math.inf

# The benchmark's eight norms.
_NORMS = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
    NormSpec.induced(p) for p in (1.0, 2.0, INF)]
_SCHATTEN = [spec for spec in _NORMS if spec.kind == "schatten"]
# Joint scales whose squares, cubes or products leave the float range.
_SCALES = (2.0 ** -500, 2.0 ** 500, 1e-150, 1e150)
# Scales at which the trace routes, supports and additivity once broke.
_WIDE_SCALES = _SCALES + (1e-200, 1e-160, 1e-110, 1e-100, 1e110, 1e160, 1e200)
_TRACE_PS = (1.5, 3.0)


def _seed5_pair():
    rng = np.random.default_rng(5)
    return ensembles.ginibre(rng, 4), ensembles.ginibre(rng, 4)


def _pairs():
    a, b = _seed5_pair()
    rng = np.random.default_rng(61)
    x, y = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
    x[:2, :2], y[2:, 2:] = ensembles.ginibre(rng, 2), ensembles.ginibre(rng, 2)
    return {"seed-5": (a, b), "dependent": (b, (0.7 - 0.4j) * b), "disjoint": (x, y)}


_PAIRS = _pairs()


def _cheap_verdicts(a, b):
    """The trace routes, supports and additivity: no search, so cheap."""
    out = {}
    for p in _TRACE_PS:
        out["bj_trace", p] = bj_trace(a, b, p)
        out["parallel_trace_p", p] = parallel_trace_p(a, b, p)
        out["norm_additivity", p] = norm_additivity(a, b, p)
    rep = disjoint_supports(a, b)
    out["supports"] = (rep.right_disjoint, rep.left_disjoint, rep.degenerate)
    return out


@pytest.mark.parametrize("name", list(_PAIRS))
class TestJointScale:
    def test_definitional_verdicts(self, name):
        a, b = _PAIRS[name]
        for spec in _NORMS:
            bj = bj_definitional(a, b, spec).holds
            par = parallel_definitional(a, b, spec).holds
            for s in _SCALES:
                assert bj_definitional(s * a, s * b, spec).holds == bj, (spec, s)
                assert parallel_definitional(s * a, s * b, spec).holds == par, (spec, s)

    def test_trace_supports_and_additivity(self, name):
        a, b = _PAIRS[name]
        at_one = _cheap_verdicts(a, b)
        for s in _WIDE_SCALES:
            assert _cheap_verdicts(s * a, s * b) == at_one, s


def _unitary(rng, n):
    q, r = np.linalg.qr(ensembles.ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _schatten_verdicts(a, b):
    out = _cheap_verdicts(a, b)
    for spec in _SCHATTEN:
        out["bj", spec.p] = bj_definitional(a, b, spec).holds
        out["parallel", spec.p] = parallel_definitional(a, b, spec).holds
    return out


@pytest.mark.parametrize("name", list(_PAIRS))
def test_schatten_verdicts_unitarily_invariant_and_under_adjoints(name):
    a, b = _PAIRS[name]
    rng = np.random.default_rng(67)
    u, v = _unitary(rng, 4), _unitary(rng, 4)
    at_one = _schatten_verdicts(a, b)
    assert _schatten_verdicts(u @ a @ v, u @ b @ v) == at_one
    adjoint = _schatten_verdicts(a.conj().T, b.conj().T)
    # The adjoint exchanges the row and the column spaces.
    right, left, degenerate = adjoint.pop("supports")
    assert (left, right, degenerate) == at_one.pop("supports")
    assert adjoint == at_one


class TestScaleRepros:
    """Scale-1 verdicts once lost to a power or product formed at scale."""

    def test_bj_trace(self):
        a, b = _seed5_pair()
        assert not bj_definitional(a, b, NormSpec.schatten(3.0)).holds
        assert not bj_trace(a, b, 3.0)
        assert not bj_trace(1e-110 * a, 1e-110 * b, 3.0)
        for s in (1e-160, 1e160):
            assert not bj_trace(s * a, s * b, 1.5)

    def test_parallel_trace_p(self):
        # Raised ZeroDivisionError at 1e-110 and OverflowError at 1e160.
        a, b = _seed5_pair()
        for s in (1e-110, 1e160):
            assert not parallel_trace_p(s * a, s * b, 3.0)

    def test_semi_inner_product(self):
        # Was 0j at 1e-110 and NaN at 1e110; the form has degree 2.
        a, b = _seed5_pair()
        at_one = semi_inner_product(b, a, 3.0)
        for s in (1e-110, 1e110):
            assert abs(semi_inner_product(s * b, s * a, 3.0) / s ** 2 - at_one) \
                <= 1e-13 * abs(at_one)

    def test_supports(self):
        # ||a b*||_F underflowed at 1e-100; the norms themselves at 1e-200.
        a, b = _seed5_pair()
        for s in (1e-100, 1e-200):
            rep = disjoint_supports(s * a, s * b)
            assert not (rep.right_disjoint or rep.left_disjoint or rep.degenerate)
        assert not loewner_domination(1e-200 * a, 1e-200 * b, bj_ps=()).trace_orthogonal

    def test_norm_additivity(self):
        # True at 1e-110; an OverflowError from a float power at 1e110.
        a, b = _seed5_pair()
        for s in (1e-110, 1e110):
            assert not norm_additivity(s * a, s * b, 3.0)

    def test_clarkson_gap(self):
        # An OverflowError at 1e110 and exactly 0.0, the equality case, at
        # 1e-110; the gap has degree p.
        a, b = _seed5_pair()
        at_one = clarkson_gap(a, b, 3.0)
        assert at_one > 6.0
        for s in (1e-50, 1e50):
            assert abs(clarkson_gap(s * a, s * b, 3.0) / s ** 3 - at_one) <= 1e-12 * at_one
        for s in (1e-110, 1e110):
            with pytest.raises(ValueError, match="float range"):
                clarkson_gap(s * a, s * b, 3.0)

    def test_hermitian_gate_is_relative(self):
        # The gate overflowed inside np.linalg.norm at 1e160, and its
        # absolute floor let a tiny non-Hermitian matrix through.
        a, b = _seed5_pair()
        at_one = loewner_domination(a, b, bj_ps=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-160, 1e160):
                assert loewner_domination(s * a, s * b, bj_ps=()) == at_one, s
        for s in (1.0, 1e-20):
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eigensystem(s * np.eye(2, k=1))
        w, _ = hermitian_eigensystem(np.zeros((2, 2)))
        assert not w.any()

    def test_semi_inner_product_outside_the_float_range(self):
        # Was inf - inf j at 1e160, where [b, a] ~ 1e320.
        a, b = _seed5_pair()
        with pytest.raises(ValueError, match="semi-inner product"):
            semi_inner_product(1e160 * b, 1e160 * a, 3.0)

    def test_trace_forms_outside_the_float_range(self):
        # ||a||_3 read inf, so the unit trace form was 0: bj_trace called a
        # orthogonal to a multiple of itself, and parallel_trace_p read a
        # NaN residual as "not parallel"; only numpy's overflow warning told.
        a = np.diag([1.5e308, 1.5e308])
        with pytest.raises(ValueError, match="evaluated to inf"):
            bj_trace(a, 1e-10 * a, 3.0)
        with pytest.raises(ValueError, match="evaluated to inf"):
            parallel_trace_p(a, a, 3.0)

    def test_radius_and_induced_norm_outside_the_float_range(self):
        # Both read inf, with numpy's overflow warning, where a norm raises;
        # the induced norm's Ax ~ 1.2e308 is finite, its l3 norm is not.
        with pytest.raises(ValueError, match="radius evaluated to inf"):
            numerical_radius_banach(1.5e308 * np.ones((3, 3)), 3.0)
        with pytest.raises(ValueError, match="induced norm evaluated to inf"):
            induced_norm(1.2e308 * np.ones((4, 1)), 3.0)
        # The exact routes read inf, silently at p = 2 and with numpy's
        # overflow warning at p = 1 and inf.
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(ValueError, match="induced norm evaluated to inf"):
                induced_norm(1.5e308 * np.ones((2, 2)), p)


# The lp family: vector lp, with the max norm at p = inf, and generic
# induced p; the scales add those at which p-th powers leave the float range.
_LP_SPECS = {"vector": (NormSpec.lp(1.5), NormSpec.lp(3.0), NormSpec.max_norm()),
             "induced": (NormSpec.induced(1.5), NormSpec.induced(3.0))}
_LP_SCALES = _SCALES + (1e-120, 1e120, 1e-200, 1e200)


def _lp_pairs(vector):
    """A pair that is not parallel and a dependent pair: 3-vectors, or
    the 2x2 seed-5 Ginibre pair (generic induced p searches are slow)."""
    if vector:
        x, y = np.array([1.0, 0.3 + 0.2j, -0.5]), np.array([0.2, 1.0, 0.4j])
    else:
        rng = np.random.default_rng(5)
        x, y = ensembles.ginibre(rng, 2), ensembles.ginibre(rng, 2)
    return (x, y), (x, (0.7 - 0.4j) * x)


class TestLpFamilyScale:
    """Once, the plain sums of p-th powers underflowed at 1e-120, so the
    norms read 0 and every verdict was a degenerate "holds", and overflowed
    at 1e120; the lp radius's ascent stopped early at 1e-200 and 1e200."""

    @pytest.mark.parametrize("family", list(_LP_SPECS))
    def test_norms_and_verdicts(self, family):
        for spec in _LP_SPECS[family]:
            for a, b in _lp_pairs(spec.is_vector):
                nrm = norm_value(a, spec)
                bj = spec.is_vector and bj_definitional(a, b, spec).holds
                par = parallel_definitional(a, b, spec).holds
                for s in _LP_SCALES:
                    assert norm_value(s * a, spec) / s == pytest.approx(nrm, rel=1e-12), \
                        (spec, s)
                    if spec.is_vector:  # BJ runs only exactly computable norms
                        assert bj_definitional(s * a, s * b, spec).holds == bj, (spec, s)
                    assert parallel_definitional(s * a, s * b, spec).holds == par, (spec, s)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_numerical_radius(self, p):
        # At p = 3 the radius read 4.5840 at 1e+-200, against 4.7515.
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        at_one = numerical_radius_banach(g, p).value
        for s in _LP_SCALES:
            value = numerical_radius_banach(s * g, p).value
            assert value / s == pytest.approx(at_one, rel=1e-12), s

    def test_parallel_identity_radius(self):
        d = np.diag([1.5, 0.7j, -0.4])
        spec = NormSpec.induced(3.0)
        assert parallel_identity_radius(d, spec)
        for s in _LP_SCALES:
            assert parallel_identity_radius(s * d, spec), s
