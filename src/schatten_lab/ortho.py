"""Orthogonality predicates for matrices under Schatten and induced norms.

Birkhoff-James orthogonality ``a beats every perturbation``:

    a _|_ b  iff  ||a + gamma b|| >= ||a|| for every scalar gamma,

decided by global minimization of the convex map gamma -> ||a + gamma b||.
Alongside it: the semi-inner-product trace form that characterizes the
relation for 1 < p < inf, isosceles orthogonality, support disjointness,
Clarkson-type inequality gaps, and Loewner-order modulus tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .norms import INF, NormSpec, _exponent, _schatten_sum, evaluator, schatten_norm
from .search import gamma_min

# Default decision tolerance, relative (for Birkhoff-James, to ||a||).
PREDICATE_RTOL = 1e-7
# Scaled residual below which supports count as disjoint.
SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of a Birkhoff-James test.

    ``gap = min_gamma ||a + gamma b|| - ||a||`` (never meaningfully positive);
    the relation holds iff ``gap >= -tolerance``, taken relative to ``||a||``
    as the gap is.  ``extremal_scalar`` is the minimizing gamma.
    """

    holds: bool
    extremal_scalar: complex
    gap: float
    tolerance: float
    degenerate: bool = False


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
    identity ``ker(b + gamma a) = ker(b) /\\ ker(a)`` at each sampled gamma,
    and Birkhoff-James orthogonality of ``b`` to ``a`` at every requested p.
    ``bj_all_p`` is None when the p-sweep was not requested.
    """

    dominates: bool
    trace_orthogonal: bool
    kernel_identity: bool
    bj_all_p: bool | None
    tolerance: float


def bj_definitional(a, b, spec: NormSpec, tol_rel: float = PREDICATE_RTOL) -> Verdict:
    """Birkhoff-James orthogonality of ``a`` to ``b`` under ``spec``.

    Minimizes ``gamma -> ||a + gamma b||`` over the complex plane with
    ``search.gamma_min``: a 16x16 polar grid of radius ``4 ||a|| / ||b||``,
    evaluated ring by ring on the rays still descending, then a refinement
    from the best grid point.  Under a norm smooth away from 0
    (``NormSpec.smooth``: Schatten and vector lp with 1 < p < inf) it takes
    Newton steps on batched quadratic models and hands over to Nelder-Mead
    at a kink (the cone of a dependent pair); under the others (p = 1 or
    inf, induced 2, max) it is Nelder-Mead.  Every refinement tolerance is
    relative to the radius or to the grid minimum, so the verdict does not
    depend on the operands' separate scales.  The map is convex, so the
    refined minimum is global.  Both operands are validated once, up front;
    every norm, on the grid and in the refinement, comes from the closures
    of ``norms.evaluator(spec)``, resolved once per call, and a non-finite
    evaluation raises ``ValueError`` rather than giving a verdict.  Not
    symmetric in general.
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
        return Verdict(True, 0j, 0.0, tol, degenerate=True)

    shape_pad = (1,) * a.ndim

    def f_batch(gammas):
        g = np.asarray(gammas).reshape((-1,) + shape_pad)
        return batch(a[None, ...] + g * b[None, ...])

    def f_scalar(g):
        return scalar(a + g * b)

    gamma, vmin = gamma_min(f_batch, f_scalar, radius=4.0 * (na / nb), smooth=spec.smooth)
    gap = vmin - na
    return Verdict(bool(gap >= -tol), gamma, float(gap), tol)


def _trace_form(b: np.ndarray, a: np.ndarray, p: float,
                f: cmatrix.SvdFactors | None = None) -> tuple[complex, float]:
    """``(tr(|a|^{p-1} u* b), ||a||_p)`` for a validated pair, with
    ``a = u |a|`` polar, both from one SVD of ``a`` (``f``, if the caller
    has it already).

    Null singular directions of ``a`` contribute nothing to the trace form
    for every p >= 1 (the p = 1 power ``|a|^0`` is the support projection).
    """
    if f is None:
        f = cmatrix.svd(a)
    s = f.singular_values
    na = float(_schatten_sum(s, p))
    keep = cmatrix._kept(s)
    if not np.any(keep):
        return 0j, na
    diag = np.einsum("ik,ij,jk->k", f.u[:, keep].conj(), b, f.v[:, keep])
    return complex(np.sum(s[keep] ** (p - 1.0) * diag)), na


def sip_trace_core(b, a, p: float) -> complex:
    """The trace form ``tr(|a|^{p-1} u* b)`` with ``a = u |a|`` polar."""
    a, b = cmatrix.as_pair(a, b)
    return _trace_form(b, a, p)[0]


def semi_inner_product(b, a, p: float) -> complex:
    """Semi-inner product ``[b, a] = ||a||_p^{2-p} tr(|a|^{p-1} u* b)``.

    Compatible with the Schatten p-norm: ``[a, a] = ||a||_p^2``, linear in
    ``b``, conjugate-homogeneous in ``a``.  Returns 0 for ``a = 0``.
    """
    p = _exponent(p, "[1, inf)", "semi-inner product")
    a, b = cmatrix.as_pair(a, b)
    t, na = _trace_form(b, a, p)
    return na ** (2.0 - p) * t if na > 0.0 else 0j


def bj_trace(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace characterization of Birkhoff-James orthogonality, 1 < p < inf.

    True iff ``|[b, a]| <= tol * ||a||_p ||b||_p``.
    """
    p = _exponent(p, "(1, inf)", "the trace characterization")
    a, b = cmatrix.as_pair(a, b)
    t, na = _trace_form(b, a, p)
    scale = na * schatten_norm(b, p)
    return bool(na == 0.0 or abs(na ** (2.0 - p) * t) <= tol_rel * max(scale, 1e-300))


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
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return SupportReport(True, True, 0.0, 0.0, degenerate=True)
    right = float(np.linalg.norm(a @ b.conj().T)) / (na * nb)
    left = float(np.linalg.norm(a.conj().T @ b)) / (na * nb)
    return SupportReport(bool(right <= tol), bool(left <= tol), right, left)


def clarkson_gap(a, b, p: float) -> float:
    """Two-sided Clarkson gap ``||a+b||^p + ||a-b||^p - 2(||a||^p + ||b||^p)``.

    Non-positive for 0 < p <= 2, non-negative for p >= 2, zero at p = 2;
    for p != 2 the gap vanishes exactly on pairs with ``a* a b* b = 0``.
    """
    p = _exponent(p, "(0, inf)", "clarkson gap")
    a, b = cmatrix.as_pair(a, b)
    return float(
        schatten_norm(a + b, p) ** p + schatten_norm(a - b, p) ** p
        - 2.0 * (schatten_norm(a, p) ** p + schatten_norm(b, p) ** p)
    )


def norm_additivity(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Both p-th power additivity equalities at once:

    ``||a + b||_p^p = ||a - b||_p^p = ||a||_p^p + ||b||_p^p``.
    """
    p = _exponent(p, "(0, inf)", "norm additivity")
    a, b = cmatrix.as_pair(a, b)
    base = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
    scale = max(base, 1e-300)
    return bool(
        abs(schatten_norm(a + b, p) ** p - base) <= tol_rel * scale
        and abs(schatten_norm(a - b, p) ** p - base) <= tol_rel * scale
    )


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
    """Sampled test of ``|I + gamma a| >= I`` for all scalars gamma.

    Characterizes ``a = 0``: any nonzero ``a`` is betrayed by a small real or
    imaginary gamma in the default sample set.
    """
    a = cmatrix.as_square(a)
    if gamma_samples is None:
        gamma_samples = default_gamma_samples()
    eye = np.eye(a.shape[0], dtype=complex)
    gammas = np.asarray(gamma_samples, dtype=complex).reshape(-1)
    moduli, _ = cmatrix.moduli_and_kernels(eye + gammas[:, None, None] * a)
    return bool(cmatrix.loewner_geq_batch(moduli, eye).all())


def _subspaces_equal(n1: np.ndarray, n2: np.ndarray, tol: float) -> bool:
    if n1.shape[1] != n2.shape[1]:
        return False
    if n1.shape[1] == 0:
        return True
    resid = n2 - n1 @ (n1.conj().T @ n2)
    # Largest singular value of the residual = sin of the largest principal angle.
    return bool(np.linalg.norm(resid, 2) <= tol)


def loewner_domination(b, a, gamma_samples=None, *, tol_rel: float = PREDICATE_RTOL,
                       bj_ps=(1.0, 1.5, 2.0, 3.0, INF)) -> LoewnerDominationReport:
    """Sampled test of the modulus domination ``|b + gamma a| >= |b|``.

    Reports the hypothesis over the sample set together with the conclusions
    it implies: ``tr(b* a) = 0``, the kernel identity at each sampled gamma,
    and Birkhoff-James orthogonality of ``b`` to ``a`` at every p in
    ``bj_ps`` (pass an empty sweep to skip, leaving ``bj_all_p`` as None).
    The samples run as one stack ``b + gamma a``: one batched SVD gives the
    moduli and kernels, one ``eigvalsh`` the Loewner verdicts.  Trace
    orthogonality is judged relative to ``||a||_F ||b||_F`` and kernels
    agree when their largest principal angle has sine at most 1e-6.
    """
    b, a = cmatrix.as_pair(cmatrix.as_square(b), a)
    if gamma_samples is None:
        gamma_samples = default_gamma_samples()
    gammas = np.asarray(gamma_samples, dtype=complex).reshape(-1)

    moduli, kernels = cmatrix.moduli_and_kernels(b + gammas[:, None, None] * a)
    dominates = bool(cmatrix.loewner_geq_batch(moduli, cmatrix.modulus(b)).all())

    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    trace_orthogonal = bool(abs(np.trace(b.conj().T @ a)) <= tol_rel * scale)

    joint = cmatrix.null_space(np.vstack([b, a]))
    kernel_identity = all(_subspaces_equal(kernel, joint, 1e-6)
                          for g, kernel in zip(gammas, kernels) if g != 0)

    bj_all_p: bool | None = None
    if len(tuple(bj_ps)) > 0:
        bj_all_p = all(
            bj_definitional(b, a, NormSpec.schatten(p), tol_rel=tol_rel).holds
            for p in bj_ps
        )
    return LoewnerDominationReport(dominates, trace_orthogonal, kernel_identity,
                                   bj_all_p, tol_rel)
