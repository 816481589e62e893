"""Orthogonality predicates for matrices under Schatten and induced norms.

Birkhoff-James orthogonality ``a beats every perturbation``:

    a _|_ b  iff  ||a + gamma b|| >= ||a|| for every scalar gamma,

decided by global minimization of the convex map gamma -> ||a + gamma b||.
Alongside it: the semi-inner-product trace form that characterizes the
relation for 1 < p < inf, isosceles orthogonality, support disjointness,
Clarkson-type inequality gaps, and Loewner-order modulus tests.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .norms import INF, NormSpec, _cut_oracle, _exponent, _lp_sum, evaluator, schatten_norm
from .search import _CUT_GAP, gamma_min

# Default decision tolerance, relative (for Birkhoff-James, to ||a||).
PREDICATE_RTOL = 1e-7
# Scaled residual below which supports count as disjoint.
SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of a Birkhoff-James test.

    ``gap = min_gamma ||a + gamma b|| - ||a||`` (never meaningfully positive);
    the relation holds iff ``gap >= -tolerance``, taken relative to ``||a||``
    as the gap is.  ``extremal_scalar`` is the minimizing gamma found; where
    the norm is smooth at a unique minimizer, a refinement that stops on
    values resolves it to about the square root of their rounding, some
    1e-7 of the search radius, and where the minimizers form a set it is
    any point of it.  ``lower``
    is a certified lower bound on the gap, ``lower <= gap``: the cutting
    plane's bound less ``||a||`` (under Schatten 1 and the operator norm
    also the bound of the nine cuts that certify a Newton point), ``-||a||``
    for a dependent pair, 0.0 for a degenerate verdict, and None where the
    Newton model converged under a smooth norm (Schatten and vector lp with
    1 < p < inf), which carries no certificate.
    """

    holds: bool
    extremal_scalar: complex
    gap: float
    tolerance: float
    degenerate: bool = False
    lower: float | None = None


@dataclass(frozen=True)
class SupportReport:
    """Support disjointness of a pair, both sides.

    Right supports are disjoint iff ``a b* = 0`` (orthogonal row spaces);
    left supports iff ``a* b = 0`` (orthogonal column spaces).  Residuals are
    Frobenius norms scaled by ``||a||_F ||b||_F``.
    """

    right_disjoint: bool
    left_disjoint: bool
    right_residual: float
    left_residual: float
    degenerate: bool = False


@dataclass(frozen=True)
class LoewnerDominationReport:
    """Sampled test of ``|b + gamma a| >= |b|`` and its consequences.

    ``dominates`` reports the sampled hypothesis; the other fields report the
    conclusions it implies: trace orthogonality of the pair, the kernel
    identity ``ker(b + gamma a) = ker(b) /\\ ker(a)`` at each sampled gamma
    other than 0, and Birkhoff-James orthogonality of ``b`` to ``a`` at every
    requested p.  ``bj_all_p`` is None when the p-sweep was not requested.
    """

    dominates: bool
    trace_orthogonal: bool
    kernel_identity: bool
    bj_all_p: bool | None
    tolerance: float


def bj_definitional(a, b, spec: NormSpec, tol_rel: float = PREDICATE_RTOL) -> Verdict:
    """Birkhoff-James orthogonality of ``a`` to ``b`` under ``spec``.

    Minimizes ``gamma -> ||a + gamma b||`` over the complex plane with
    ``search.gamma_min``, from gamma = 0.  Under a norm smooth away from 0
    (``NormSpec.smooth``: Schatten and vector lp with 1 < p < inf) it takes
    Newton steps on batched quadratic models and hands over to Kelley's
    cutting planes at a kink (as where two models running undershoot the
    gain); under Schatten 1 and the operator norm (induced 2), whose kinks
    are isolated or rare, Newton runs first too, and its point stands once
    nine cuts around it bound the minimum to within 1e-9 ``||a||``; under
    the others (induced 1 and inf, whose kinks lie along curves, vector lp 1
    and max) it is the cutting plane.  Its cuts come from norming
    functionals of ``a + gamma b`` (``norms._cut_oracle``), and the minimum
    of the cut model over the box ``|Re gamma|, |Im gamma| <= 4 ||a|| /
    ||b||``, which holds every minimizer (each lies within ``2 ||a|| /
    ||b||`` of 0), bounds the minimum from below: ``Verdict.lower``.  A
    self-conjugate pencil, ``||a + conj(gamma) b|| = ||a + gamma b||`` (real
    operands, or Hermitian ones under a Schatten norm; ``_self_conjugate``),
    has a minimizer on the real axis, so the cutting plane searches the
    segment ``[-4 ||a|| / ||b||, 4 ||a|| / ||b||]`` alone, without Newton
    under the non-smooth norms.  A dependent pair, ``a = c b``, takes its
    closed form (``_apex``): the minimum 0, at -c.  Every search tolerance is
    relative to that radius or to ``||a||``, so the verdict does not
    depend on the operands' separate scales.  The map is convex, so the
    refined minimum is global.  Both operands are validated once, up front;
    every norm comes from the closures of ``norms.evaluator(spec)`` or the
    cut oracle, resolved once per call, and the reported gap is the
    evaluator's value; a non-finite evaluation raises ``ValueError`` rather
    than giving a verdict.  Not symmetric in general.
    """
    if spec.kind == "schatten" and not spec.p >= 1:
        raise ValueError(f"Birkhoff-James needs a norm: schatten p >= 1, got p={spec.p}")
    batch, scalar, exact = evaluator(spec)
    if not exact:
        raise ValueError(
            "Birkhoff-James under induced norms supports the exactly computable "
            f"p in {{1, 2, inf}}, got p={spec.p}"
        )
    a, b = cmatrix.as_pair(a, b, vector=spec.is_vector)
    na, nb = scalar(a), scalar(b)
    tol = tol_rel * na
    if nb == 0.0 or na == 0.0:
        return Verdict(True, 0j, 0.0, tol, degenerate=True, lower=0.0)

    apex = _apex(a, b, na, nb, scalar)
    if apex is not None:  # a dependent pair: the minimum 0 at -c, and f >= 0
        gamma, gap = apex[0], apex[1] - na
        return Verdict(bool(gap >= -tol), gamma, float(gap), tol, lower=-na)

    shape_pad = (1,) * a.ndim
    a1, b1 = a[None, ...], b[None, ...]
    cut = _cut_oracle(spec, b)

    def pencil(gammas):
        return a1 + np.asarray(gammas).reshape((-1,) + shape_pad) * b1

    def f_batch(gammas):
        return batch(pencil(gammas))

    def f_scalar(g):
        return scalar(a + g * b)

    def cuts(gammas):
        return cut(pencil(gammas))

    schatten = spec.kind == "schatten"
    with np.errstate(over="ignore", invalid="ignore"):  # the evaluator rejects inf, NaN
        gamma, vmin, lower = gamma_min(f_batch, f_scalar, radius=4.0 * (na / nb),
                                       smooth=spec.smooth, cuts=cuts, newton=schatten,
                                       real=_self_conjugate(a, b, schatten))
    gap = vmin - na
    return Verdict(bool(gap >= -tol), gamma, float(gap), tol,
                   lower=None if lower is None else float(lower - na))


def _apex(a: np.ndarray, b: np.ndarray, na: float, nb: float,
          scalar) -> tuple[complex, float] | None:
    """``(-c, ||a - c b||)`` for a dependent pair, ``a = c b``, once that
    value is within ``_CUT_GAP ||a||``, else None.  The minimum of ``||a +
    gamma b||`` is then 0, at -c, so the bound ``f >= 0`` certifies the
    value as the cutting plane's stop would.  The unit operands ``a / ||a||``
    and ``b / ||b||`` (entries at most 1 in modulus, which every norm here
    bounds, so no product overflows) give c by projection, and their
    Cauchy-Schwarz defect, ``|a|^2 |b|^2 sin^2`` of their angle, turns the
    other pairs away before any norm is evaluated: 1e-12 of it is some 1e4
    rounding units, far above a dependent pair's."""
    au, bu = a / na, b / nb
    ab, bb, aa = complex(np.vdot(bu, au)), np.vdot(bu, bu).real, np.vdot(au, au).real
    if aa * bb - (ab.real ** 2 + ab.imag ** 2) > 1e-12 * aa * bb:
        return None
    with np.errstate(over="ignore"):  # c itself may lie above the float range
        gamma = complex(-ab / bb * (na / nb))
    if not cmath.isfinite(gamma):
        return None
    v = scalar(a + gamma * b)
    return (gamma, v) if v <= _CUT_GAP * na else None


def _self_conjugate(a: np.ndarray, b: np.ndarray, schatten: bool) -> bool:
    """Whether ``||a + conj(gamma) b|| = ||a + gamma b||`` for every gamma:
    when ``a`` and ``b`` are both real (every norm here is invariant under
    entrywise conjugation), or both Hermitian under a Schatten norm (which
    is invariant under the adjoint; induced 1 and inf are not)."""
    if not (a.imag.any() or b.imag.any()):
        return True
    return schatten and np.array_equal(a, a.conj().T) and np.array_equal(b, b.conj().T)


def _trace_form(b: np.ndarray, a: np.ndarray, p: float,
                f: cmatrix.SvdFactors | None = None) -> tuple[complex, float]:
    """``(tr(|a / ||a||_p|^{p-1} u* b), ||a||_p)`` for a validated pair, with
    ``a = u |a|`` polar, both from one SVD of ``a`` (``f``, if the caller
    has it already).  The unit operand's singular values are at most 1, so
    the form scales with ``b`` alone, at any scale of ``a``.

    Null singular directions of ``a`` contribute nothing to the trace form
    for every p >= 1 (the p = 1 power ``|a|^0`` is the support projection).
    """
    if f is None:
        f = cmatrix.svd(a)
    s = f.singular_values
    na = float(_lp_sum(s, p, s[0]))
    if not np.isfinite(na):
        raise ValueError(f"norm evaluated to {na} under {NormSpec.schatten(p)}")
    keep = cmatrix._kept(s)
    if not np.any(keep):
        return 0j, na
    diag = np.einsum("ik,ij,jk->k", f.u[:, keep].conj(), b, f.v[:, keep])
    return complex(np.sum((s[keep] / na) ** (p - 1.0) * diag)), na


def semi_inner_product(b, a, p: float) -> complex:
    """Semi-inner product ``[b, a] = ||a||_p^{2-p} tr(|a|^{p-1} u* b)``.

    Compatible with the Schatten p-norm: ``[a, a] = ||a||_p^2``, linear in
    ``b``, conjugate-homogeneous in ``a``.  Returns 0 for ``a = 0``; a value
    outside the float range raises ``ValueError``, as a norm's does.
    """
    p = _exponent(p, "[1, inf)", "semi-inner product")
    a, b = cmatrix.as_pair(a, b)
    t, na = _trace_form(b, a, p)
    if not np.isfinite(na * t):
        raise ValueError(f"semi-inner product evaluated to {na * t} at p={p}")
    return na * t


def bj_trace(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace characterization of Birkhoff-James orthogonality, 1 < p < inf.

    True iff ``|[b, a]| <= tol * ||a||_p ||b||_p``, read at unit ``a``.
    """
    p = _exponent(p, "(1, inf)", "the trace characterization")
    a, b = cmatrix.as_pair(a, b)
    t, na = _trace_form(b, a, p)
    return bool(na == 0.0 or abs(t) <= tol_rel * schatten_norm(b, p))


def isosceles(a, b, p: float, complex_mode: bool = True,
              tol_rel: float = PREDICATE_RTOL) -> bool:
    """Isosceles orthogonality ``||a + b||_p = ||a - b||_p``.

    In complex mode the imaginary pairing ``||a + ib||_p = ||a - ib||_p``
    must hold as well (the two equalities jointly).
    """
    p = _exponent(p, "[1, inf]", "isosceles orthogonality")
    a, b = cmatrix.as_pair(a, b)
    scale = max(schatten_norm(a, p) + schatten_norm(b, p), 1e-300)
    ok = abs(schatten_norm(a + b, p) - schatten_norm(a - b, p)) <= tol_rel * scale
    if complex_mode and ok:
        ok = abs(schatten_norm(a + 1j * b, p) - schatten_norm(a - 1j * b, p)) \
            <= tol_rel * scale
    return bool(ok)


def disjoint_supports(a, b, tol: float = SUPPORT_RTOL) -> SupportReport:
    a, b = cmatrix.as_pair(a, b)
    na, nb = schatten_norm(a, 2.0), schatten_norm(b, 2.0)
    if na == 0.0 or nb == 0.0:
        return SupportReport(True, True, 0.0, 0.0, degenerate=True)
    a, b = a / na, b / nb  # unit operands, whose products cannot underflow
    right = schatten_norm(a @ b.conj().T, 2.0)
    left = schatten_norm(a.conj().T @ b, 2.0)
    return SupportReport(bool(right <= tol), bool(left <= tol), right, left)


def clarkson_gap(a, b, p: float) -> float:
    """Two-sided Clarkson gap ``||a+b||^p + ||a-b||^p - 2(||a||^p + ||b||^p)``.

    Non-positive for 0 < p <= 2, non-negative for p >= 2, zero at p = 2;
    for p != 2 the gap vanishes exactly on pairs with ``a* a b* b = 0``.
    The four p-th powers are formed on the pair scaled to a top norm of 1
    and the gap is scaled back; a nonzero gap beyond the float range, above
    or below, raises ``ValueError``.
    """
    p = _exponent(p, "(0, inf)", "clarkson gap")
    plus, minus, base, top = _unit_powers(*cmatrix.as_pair(a, b), p)
    unit = plus + minus - 2.0 * base
    with np.errstate(over="ignore", under="ignore"):
        gap = float(unit * np.float64(top) ** p) if unit else 0.0
    if (gap == 0.0 and unit != 0.0) or not np.isfinite(gap):
        raise ValueError(f"clarkson gap {unit:.6e} * {top:.6e}^{p} is outside the float range")
    return gap


def _unit_powers(a: np.ndarray, b: np.ndarray, p: float) -> tuple[float, float, float, float]:
    """``(||a' + b'||^p, ||a' - b'||^p, ||a'||^p + ||b'||^p, top)`` for a
    validated pair scaled to a top norm of 1, ``a' = a / top``: no p-th power
    can overflow, nor all of them underflow."""
    na, nb = schatten_norm(a, p), schatten_norm(b, p)
    top = max(na, nb) or 1.0
    a, b = a / top, b / top
    return (schatten_norm(a + b, p) ** p, schatten_norm(a - b, p) ** p,
            (na / top) ** p + (nb / top) ** p, top)


def norm_additivity(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Both p-th power additivity equalities at once:

    ``||a + b||_p^p = ||a - b||_p^p = ||a||_p^p + ||b||_p^p``.
    """
    p = _exponent(p, "(0, inf)", "norm additivity")
    plus, minus, base, _ = _unit_powers(*cmatrix.as_pair(a, b), p)
    return bool(abs(plus - base) <= tol_rel * base and abs(minus - base) <= tol_rel * base)


def default_gamma_samples(seed: int = 0) -> np.ndarray:
    """Scalar sample set for the Loewner tests.

    The structured part walks ``+-1/m, +-i/m`` for m in {1, 2, 4, 8, 16}
    (directional probes whose Hermitian parts witness any violation); the
    rest is a seeded uniform draw of 32 points from the disk of radius 2.
    """
    base = [sgn / m for m in (1, 2, 4, 8, 16) for sgn in (1.0, -1.0, 1j, -1j)]
    rng = np.random.default_rng(np.random.SeedSequence([0x10E4, seed]))
    r = 2.0 * np.sqrt(rng.uniform(size=32))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=32)
    return np.concatenate([np.asarray(base, dtype=complex), r * np.exp(1j * phi)])


def loewner_identity_test(a, gamma_samples=None) -> bool:
    """Sampled test of ``|I + gamma a| >= I`` for all scalars gamma: the
    ``dominates`` verdict of ``loewner_domination(I, a, gamma_samples)``.

    Characterizes ``a = 0``: any nonzero ``a`` is betrayed by a small real or
    imaginary gamma in the default sample set.
    """
    a = cmatrix.as_square(a)
    return loewner_domination(np.eye(a.shape[0]), a, gamma_samples, bj_ps=()).dominates


def loewner_domination(b, a, gamma_samples=None, *, tol_rel: float = PREDICATE_RTOL,
                       bj_ps=(1.0, 1.5, 2.0, 3.0, INF)) -> LoewnerDominationReport:
    """Sampled test of the modulus domination ``|b + gamma a| >= |b|``.

    Reports the hypothesis over the sample set together with the conclusions
    it implies: ``tr(b* a) = 0``, the kernel identity at each sampled gamma,
    and Birkhoff-James orthogonality of ``b`` to ``a`` at every p in
    ``bj_ps`` (pass an empty sweep to skip, leaving ``bj_all_p`` as None).
    The samples run as one stack ``b + gamma a``: one batched SVD gives the
    moduli and ranks, one ``eigvalsh`` the Loewner verdicts.  Trace
    orthogonality is judged relative to ``||a||_F ||b||_F``; the kernel
    identity as ``rank(b + gamma a) = rank([b; a])``, since ``ker(b) /\\
    ker(a)`` always lies in ``ker(b + gamma a)``.
    """
    b, a = cmatrix.as_pair(cmatrix.as_square(b), a)
    if gamma_samples is None:
        gamma_samples = default_gamma_samples()
    gammas = np.asarray(gamma_samples, dtype=complex).reshape(-1)

    moduli, ranks = cmatrix.moduli_and_ranks(b + gammas[:, None, None] * a)
    dominates = bool(cmatrix.loewner_geq_batch(moduli, cmatrix.modulus(b)).all())

    na, nb = schatten_norm(a, 2.0), schatten_norm(b, 2.0)
    trace_orthogonal = bool(na == 0.0 or nb == 0.0 or abs(np.vdot(b / nb, a / na)) <= tol_rel)

    joint_rank = np.sum(cmatrix._kept(cmatrix.singular_values(np.vstack([b, a]))))
    kernel_identity = bool(np.all(ranks[gammas != 0] == joint_rank))

    bj_all_p: bool | None = None
    if len(tuple(bj_ps)) > 0:
        bj_all_p = all(
            bj_definitional(b, a, NormSpec.schatten(p), tol_rel=tol_rel).holds
            for p in bj_ps
        )
    return LoewnerDominationReport(dominates, trace_orthogonal, kernel_identity,
                                   bj_all_p, tol_rel)
