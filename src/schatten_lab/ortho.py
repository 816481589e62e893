"""Orthogonality predicates for matrices under Schatten and induced norms.

Birkhoff-James orthogonality ``a beats every perturbation``:

    a _|_ b  iff  ||a + gamma b|| >= ||a|| for every scalar gamma,

decided by global minimization of the convex map gamma -> ||a + gamma b||.
Alongside it: the semi-inner-product trace form that characterizes the
relation for 1 < p < inf, isosceles orthogonality, support disjointness,
Clarkson-type inequality gaps, and Loewner-order modulus tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .norms import (INF, NormSpec, norm_value, norm_value_batch, schatten_norm,
                    schatten_norm_trusted)
from .search import gamma_min

# Default decision tolerance, relative to the larger operand norm.
PREDICATE_RTOL = 1e-7
# Scaled residual below which supports count as disjoint.
SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of a Birkhoff-James test.

    ``gap = min_gamma ||a + gamma b|| - ||a||`` (never meaningfully positive);
    the relation holds iff ``gap >= -tolerance``.  ``extremal_scalar`` is the
    minimizing gamma.
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


def _bj_spec_ok(spec: NormSpec) -> None:
    if spec.kind == "schatten" and not spec.p >= 1:
        raise ValueError(f"Birkhoff-James needs a norm: schatten p >= 1, got p={spec.p}")
    if spec.kind == "induced_lp" and spec.p not in (1.0, 2.0, INF):
        raise ValueError(
            "Birkhoff-James under induced norms supports the exactly computable "
            f"p in {{1, 2, inf}}, got p={spec.p}"
        )


def bj_definitional(a, b, spec: NormSpec, tol_rel: float = PREDICATE_RTOL) -> Verdict:
    """Birkhoff-James orthogonality of ``a`` to ``b`` under ``spec``.

    Minimizes ``gamma -> ||a + gamma b||`` over the complex plane with
    ``search.gamma_min``: a 16x16 polar grid of radius ``4 ||a|| / ||b||``
    evaluated by batched SVD, then the in-repo Nelder-Mead from the best grid
    point.  The map is convex, so the refined minimum is global.  Under
    Schatten norms the refinement reads singular values straight off
    ``a + gamma b`` (both operands are validated once, up front); a
    non-finite evaluation raises ``ValueError`` rather than giving a
    verdict.  Not symmetric in general.
    """
    _bj_spec_ok(spec)
    a, b = cmatrix.as_pair(a, b, vector=spec.is_vector)
    na = norm_value(a, spec)
    nb = norm_value(b, spec)
    tol = tol_rel * max(na, nb)
    if nb == 0.0 or na == 0.0:
        return Verdict(True, 0j, 0.0, tol, degenerate=True)

    shape_pad = (1,) * a.ndim

    def f_batch(gammas):
        g = np.asarray(gammas).reshape((-1,) + shape_pad)
        return norm_value_batch(a[None, ...] + g * b[None, ...], spec)

    if spec.kind == "schatten":
        def f_scalar(g):
            return schatten_norm_trusted(a + g * b, spec.p)
    else:
        def f_scalar(g):
            return norm_value(a + g * b, spec)

    gamma, vmin = gamma_min(f_batch, f_scalar, radius=4.0 * na / nb)
    gap = vmin - na
    return Verdict(bool(gap >= -tol), gamma, float(gap), tol)


def sip_trace_core(b, a, p: float) -> complex:
    """The trace form ``tr(|a|^{p-1} u* b)`` with ``a = u |a|`` polar.

    Null singular directions of ``a`` contribute nothing for every p >= 1
    (the p = 1 power ``|a|^0`` is the support projection).
    """
    a, b = cmatrix.as_pair(a, b)
    f = cmatrix.svd(a)
    s = f.singular_values
    cutoff = cmatrix.RANK_RTOL * (s[0] if s.size else 0.0)
    keep = s > cutoff
    if not np.any(keep):
        return 0j
    uk = f.u[:, keep]
    vk = f.v[:, keep]
    sk = s[keep]
    diag = np.einsum("ik,ij,jk->k", uk.conj(), b, vk)
    return complex(np.sum(sk ** (p - 1.0) * diag))


def semi_inner_product(b, a, p: float) -> complex:
    """Semi-inner product ``[b, a] = ||a||_p^{2-p} tr(|a|^{p-1} u* b)``.

    Compatible with the Schatten p-norm: ``[a, a] = ||a||_p^2``, linear in
    ``b``, conjugate-homogeneous in ``a``.  Returns 0 for ``a = 0``.
    """
    p = float(p)
    if not (1 <= p < INF):
        raise ValueError(f"semi-inner product needs 1 <= p < inf, got {p}")
    na = schatten_norm(a, p)
    if na == 0.0:
        return 0j
    return na ** (2.0 - p) * sip_trace_core(b, a, p)


def bj_trace(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace characterization of Birkhoff-James orthogonality, 1 < p < inf.

    True iff ``|[b, a]| <= tol * ||a||_p ||b||_p``.
    """
    p = float(p)
    if not (1 < p < INF):
        raise ValueError(f"the trace characterization needs 1 < p < inf, got {p}")
    val = semi_inner_product(b, a, p)
    scale = schatten_norm(a, p) * schatten_norm(b, p)
    return bool(abs(val) <= tol_rel * max(scale, 1e-300))


def isosceles(a, b, p: float, complex_mode: bool = True,
              tol_rel: float = PREDICATE_RTOL) -> bool:
    """Isosceles orthogonality ``||a + b||_p = ||a - b||_p``.

    In complex mode the imaginary pairing ``||a + ib||_p = ||a - ib||_p``
    must hold as well (the two equalities jointly).
    """
    p = float(p)
    if not p >= 1:
        raise ValueError(f"isosceles orthogonality needs p >= 1, got {p}")
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
    p = float(p)
    if not (0 < p < INF):
        raise ValueError(f"clarkson gap needs finite p > 0, got {p}")
    a, b = cmatrix.as_pair(a, b)
    return float(
        schatten_norm(a + b, p) ** p + schatten_norm(a - b, p) ** p
        - 2.0 * (schatten_norm(a, p) ** p + schatten_norm(b, p) ** p)
    )


def norm_additivity(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Both p-th power additivity equalities at once:

    ``||a + b||_p^p = ||a - b||_p^p = ||a||_p^p + ||b||_p^p``.
    """
    p = float(p)
    if not (0 < p < INF):
        raise ValueError(f"norm additivity needs finite p > 0, got {p}")
    a, b = cmatrix.as_pair(a, b)
    base = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
    scale = max(base, 1e-300)
    return bool(
        abs(schatten_norm(a + b, p) ** p - base) <= tol_rel * scale
        and abs(schatten_norm(a - b, p) ** p - base) <= tol_rel * scale
    )


def default_gamma_samples(seed: int = 0, random_count: int = 32,
                          radius: float = 2.0) -> np.ndarray:
    """Scalar sample set for the Loewner tests.

    The structured part walks ``+-1/m, +-i/m`` for m in {1, 2, 4, 8, 16}
    (directional probes whose Hermitian parts witness any violation); the
    rest is a seeded uniform draw from the disk of the given radius.
    """
    base = [sgn / m for m in (1, 2, 4, 8, 16) for sgn in (1.0, -1.0, 1j, -1j)]
    rng = np.random.default_rng(np.random.SeedSequence([0x10E4, seed]))
    r = radius * np.sqrt(rng.uniform(size=random_count))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=random_count)
    return np.concatenate([np.asarray(base, dtype=complex), r * np.exp(1j * phi)])


def loewner_identity_test(a, gamma_samples=None) -> bool:
    """Sampled test of ``|I + gamma a| >= I`` for all scalars gamma.

    Characterizes ``a = 0``: any nonzero ``a`` is betrayed by a small real or
    imaginary gamma in the default sample set.
    """
    a = cmatrix.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"identity test needs a square matrix, got {a.shape}")
    if gamma_samples is None:
        gamma_samples = default_gamma_samples()
    eye = np.eye(a.shape[0], dtype=complex)
    for g in gamma_samples:
        if not cmatrix.loewner_geq(cmatrix.modulus(eye + g * a), eye):
            return False
    return True


def _subspaces_equal(n1: np.ndarray, n2: np.ndarray, tol: float) -> bool:
    if n1.shape[1] != n2.shape[1]:
        return False
    if n1.shape[1] == 0:
        return True
    resid = n2 - n1 @ (n1.conj().T @ n2)
    # Largest singular value of the residual = sin of the largest principal angle.
    return bool(np.linalg.norm(resid, 2) <= tol)


def loewner_domination(b, a, gamma_samples=None, *, tol_rel: float = PREDICATE_RTOL,
                       bj_ps=(1.0, 1.5, 2.0, 3.0, INF),
                       kernel_angle_tol: float = 1e-6) -> LoewnerDominationReport:
    """Sampled test of the modulus domination ``|b + gamma a| >= |b|``.

    Reports the hypothesis over the sample set together with the conclusions
    it implies: ``tr(b* a) = 0``, the kernel identity at each sampled gamma,
    and Birkhoff-James orthogonality of ``b`` to ``a`` at every p in
    ``bj_ps`` (pass an empty sweep to skip, leaving ``bj_all_p`` as None).
    """
    b = cmatrix.as_matrix(b)
    a = cmatrix.as_matrix(a)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"domination test needs equal square shapes, got {b.shape} vs {a.shape}")
    if gamma_samples is None:
        gamma_samples = default_gamma_samples()

    abs_b = cmatrix.modulus(b)
    dominates = True
    for g in gamma_samples:
        if not cmatrix.loewner_geq(cmatrix.modulus(b + g * a), abs_b):
            dominates = False
            break

    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    trace_orthogonal = bool(abs(np.trace(b.conj().T @ a)) <= tol_rel * scale)

    joint = cmatrix.null_space(np.vstack([b, a]))
    kernel_identity = True
    for g in gamma_samples:
        if g == 0:
            continue
        if not _subspaces_equal(cmatrix.null_space(b + g * a), joint, kernel_angle_tol):
            kernel_identity = False
            break

    bj_all_p: bool | None = None
    if len(tuple(bj_ps)) > 0:
        bj_all_p = all(
            bj_definitional(b, a, NormSpec.schatten(p), tol_rel=tol_rel).holds
            for p in bj_ps
        )
    return LoewnerDominationReport(dominates, trace_orthogonal, kernel_identity,
                                   bj_all_p, tol_rel)
