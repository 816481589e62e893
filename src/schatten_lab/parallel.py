"""Norm-parallelism predicates: ``a`` is parallel to ``b`` when some
unimodular scalar achieves equality in the triangle inequality,

    ||a + lambda b|| = ||a|| + ||b||,   |lambda| = 1.

The definitional test maximizes over the circle; alongside it live the trace
characterizations valid on Schatten classes, identity-parallelism via
numerical radii and eigenvalues, norm attainment sets, the Hilbert-space
witness functional, and transfer of parallelism along approximate isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .norms import (INF, NormSpec, SPECTRAL, induced_norm, norm_value,
                    norm_value_batch, numerical_radius_banach,
                    numerical_radius_hilbert, schatten_norm, vector_norm)
from .ortho import PREDICATE_RTOL, sip_trace_core
from .search import circle_max, hill_climb

# Relative scale below which the smaller singular value means dependence.
DEPENDENCE_RTOL = 1e-9


@dataclass(frozen=True)
class ParallelVerdict:
    """Outcome of a definitional parallelism test.

    ``achieved = max_lambda ||a + lambda b||`` at ``lambda_star``; the pair is
    parallel iff ``achieved`` reaches ``target = ||a|| + ||b||`` within
    ``tolerance``.
    """

    holds: bool
    lambda_star: complex
    achieved: float
    target: float
    tolerance: float
    degenerate: bool = False

    @property
    def gap(self) -> float:
        """``achieved - target``; the pair is parallel iff this clears
        ``-tolerance``."""
        return self.achieved - self.target


@dataclass(frozen=True)
class NormingSet:
    """Unit vectors at which an operator attains its norm.

    ``exact`` members come from closed-form attainment structure; sampled
    members are ascent limits filtered to the near-attaining cluster.
    """

    members: tuple
    exact: bool
    norm_value: float
    tolerance: float


@dataclass(frozen=True)
class WitnessReport:
    """A maximized witness functional against its theoretical ceiling."""

    value: float
    witness: np.ndarray
    holds: bool
    tolerance: float


@dataclass(frozen=True)
class IsometryTransferReport:
    """Parallelism pushed through a conjugation by an approximate isometry.

    A conjugator that distorts lengths by more than the stated factor is
    rejected with ``ValueError``, so a report always rests on a validated
    conjugator.  ``achieved`` is the circle maximum for the source pair and
    must reach ``lower_bound`` whenever the conjugated pair is parallel;
    ``lower_bound_ok`` is None when that hypothesis failed.
    """

    conjugated_parallel: ParallelVerdict
    lower_bound: float
    achieved: float
    lower_bound_ok: bool | None


def parallel_definitional(a, b, spec: NormSpec = SPECTRAL,
                          tol_rel: float = PREDICATE_RTOL) -> ParallelVerdict:
    """Definitional parallelism under ``spec`` via maximization over the circle.

    ``theta -> ||a + e^{i theta} b||`` is scanned on a dense grid and the best
    windows are refined by golden-section; since the computed maximum never
    exceeds the true one, a ``holds`` verdict is trustworthy and a failure is
    a failure of the refined scan only up to ``tolerance``.
    """
    a, b = cmatrix.as_pair(a, b, vector=spec.is_vector)
    na = norm_value(a, spec)
    nb = norm_value(b, spec)
    target = na + nb
    tol = tol_rel * target
    if na == 0.0 or nb == 0.0:
        return ParallelVerdict(True, 1.0 + 0j, target, target, tol, degenerate=True)

    pad = (1,) * a.ndim

    def f_batch(thetas):
        lam = np.exp(1j * np.asarray(thetas)).reshape((-1,) + pad)
        return norm_value_batch(a[None, ...] + lam * b[None, ...], spec)

    def f_scalar(t):
        return norm_value(a + np.exp(1j * t) * b, spec)

    # Generic induced-p norms have no batched formula; use a coarser scan.
    expensive = spec.kind == "induced_lp" and spec.p not in (1.0, 2.0, INF)
    theta, achieved = circle_max(f_batch, f_scalar, grid=96 if expensive else 720)
    return ParallelVerdict(bool(target - achieved <= tol),
                           complex(np.exp(1j * theta)), float(achieved),
                           float(target), tol)


def vector_parallel(x, y, spec: NormSpec, tol_rel: float = PREDICATE_RTOL) -> ParallelVerdict:
    """Parallelism of vectors under a vector norm spec."""
    if not spec.is_vector:
        raise ValueError(f"vector_parallel needs a vector spec, got kind={spec.kind!r}")
    return parallel_definitional(x, y, spec, tol_rel)


def _flat(operand) -> np.ndarray:
    arr = np.asarray(operand)
    if arr.ndim <= 1:
        return cmatrix.as_vector(operand).ravel()
    return cmatrix.as_matrix(operand).ravel()


def linearly_dependent(a, b, tol: float = DEPENDENCE_RTOL) -> bool:
    """Linear dependence of two operands (matrices or vectors) of equal shape."""
    va = _flat(a)
    vb = _flat(b)
    if va.shape != vb.shape:
        raise ValueError(f"operand shapes differ: {va.shape} vs {vb.shape}")
    s = np.linalg.svd(np.column_stack([va, vb]), compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[1] <= tol * s[0])


def parallel_trace_p(a, b, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace characterization of parallelism in the Schatten p-class, 1 < p < inf.

    Checks norm equality in the trace form both ways round:
    ``|tr(|a|^{p-1} u_a* b)| = ||a||_p^{p-1} ||b||_p`` and the same with the
    roles of ``a`` and ``b`` exchanged.
    """
    p = float(p)
    if not (1 < p < INF):
        raise ValueError(f"the trace characterization needs 1 < p < inf, got {p}")
    a, b = cmatrix.as_pair(a, b)
    na = schatten_norm(a, p)
    nb = schatten_norm(b, p)
    if na == 0.0 or nb == 0.0:
        return True

    def attains(x, y, nx, ny):
        rhs = nx ** (p - 1.0) * ny
        return abs(abs(sip_trace_core(y, x, p)) - rhs) <= tol_rel * rhs

    return bool(attains(a, b, na, nb) and attains(b, a, nb, na))


def parallel_trace_class(a, b, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace-norm parallelism for an invertible first operand:

    ``a`` is parallel to ``b`` in the trace norm iff ``|tr(|a| a^{-1} b)| = ||b||_1``.
    Raises for (numerically) singular ``a``, where the characterization does
    not apply -- use ``parallel_definitional`` with the trace spec instead.
    """
    a, b = cmatrix.as_pair(a, b)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"invertible-operand test needs square matrices, got {a.shape}")
    s = cmatrix.singular_values(a)
    if s[0] == 0.0 or s[-1] <= cmatrix.RANK_RTOL * s[0]:
        raise ValueError(
            "first operand is singular to working precision; "
            "use parallel_definitional with the trace norm"
        )
    t = complex(np.trace(cmatrix.modulus(a) @ np.linalg.solve(a, b)))
    nb = schatten_norm(b, 1.0)
    return bool(abs(abs(t) - nb) <= tol_rel * max(nb, 1e-300))


def parallel_identity_trace(a, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Parallelism to the identity in the Schatten p-class, 1 <= p < inf:

    ``a`` is parallel to ``I`` iff ``|tr a| = n^{(p-1)/p} ||a||_p``.
    """
    p = float(p)
    if not (1 <= p < INF):
        raise ValueError(f"identity-trace test needs 1 <= p < inf, got {p}")
    a = cmatrix.as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"identity test needs a square matrix, got {a.shape}")
    na = schatten_norm(a, p)
    if na == 0.0:
        return True
    rhs = float(n) ** ((p - 1.0) / p) * na
    return bool(abs(abs(np.trace(a)) - rhs) <= tol_rel * na)


def parallel_identity_radius(a, spec: NormSpec = SPECTRAL, *, seed: int = 0) -> bool:
    """Parallelism to the identity via the numerical radius.

    Under the operator norm ``a`` is parallel to ``I`` iff the numerical
    radius equals the norm; on lp^n (1 < p < inf) the same holds for the
    lp numerical radius against the induced norm.
    """
    a = cmatrix.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"identity test needs a square matrix, got {a.shape}")
    if spec.kind == "schatten" and spec.p == INF:
        radius = numerical_radius_hilbert(a)
        nrm = schatten_norm(a, INF)
        tol = 1e-7 * nrm
    elif spec.kind == "induced_lp" and 1 < spec.p < INF:
        radius = numerical_radius_banach(a, spec.p, seed=seed)
        nrm = induced_norm(a, spec.p).value
        tol = 1e-6 * nrm
    else:
        raise ValueError(
            "radius characterization needs the operator norm or an induced "
            f"lp norm with 1 < p < inf, got {spec}"
        )
    return bool(abs(nrm - radius.value) <= tol)


def eigen_parallel_identity(a, spec: NormSpec = SPECTRAL,
                            tol_rel: float = PREDICATE_RTOL) -> complex | None:
    """The unimodular scalar realizing parallelism to the identity, if an
    eigenvalue of maximum modulus attains the operator norm.

    When some eigenvalue ``mu`` has ``|mu| = ||a||``, the scalar
    ``lambda = mu / |mu|`` satisfies ``||a + lambda I|| = ||a|| + 1``.
    Returns None when no eigenvalue reaches the norm (no conclusion), and
    ``1 + 0j`` for the zero matrix.
    """
    if not (spec.kind == "induced_lp" or (spec.kind == "schatten" and spec.p == INF)):
        raise ValueError(f"eigenvalue test needs an operator or induced norm, got {spec}")
    a = cmatrix.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"identity test needs a square matrix, got {a.shape}")
    nrm = norm_value(a, spec)
    if nrm == 0.0:
        return 1.0 + 0j
    top = cmatrix.eigenvalues(a)[0]
    if abs(top) >= nrm * (1.0 - tol_rel):
        return complex(top / abs(top))
    return None


def _canonical_phase(x: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(x)))
    pivot = x[j]
    if abs(pivot) == 0.0:
        return x
    return x * (np.conj(pivot) / abs(pivot))


def norming_set(a, spec: NormSpec = SPECTRAL, *, starts: int = 64,
                tol: float = 1e-6, seed: int = 0) -> NormingSet:
    """Unit vectors where ``a`` attains its operator norm under ``spec``.

    Exact for the operator norm / induced l2 (top right-singular cluster),
    induced l1 (norm-achieving coordinate vectors) and induced l-inf
    (conjugate-phase vectors of norm-achieving rows).  For other induced p
    the set is sampled: limits of seeded random-ascent runs, filtered to the
    attaining cluster and deduplicated up to phase.
    """
    a = cmatrix.as_matrix(a)
    # Vector specs describe the domain norm; the operator then carries the
    # norm induced by it (max-norm domain -> induced l-inf operator norm).
    if spec.kind == "vector_max":
        spec = NormSpec.induced(INF)
    elif spec.kind == "vector_lp":
        spec = NormSpec.induced(spec.p)
    hilbert = spec.kind == "schatten" and spec.p == INF
    if not hilbert and spec.kind != "induced_lp":
        raise ValueError(f"norming sets are defined for operator/induced norms, got {spec}")

    if hilbert or spec.p == 2.0:
        f = cmatrix.svd(a)
        s = f.singular_values
        top = float(s[0])
        if top == 0.0:
            e = np.zeros(a.shape[1], dtype=complex)
            e[0] = 1.0
            return NormingSet((e,), True, 0.0, tol)
        keep = s >= top * (1.0 - 1e-8)
        members = tuple(_canonical_phase(f.v[:, k]) for k in np.nonzero(keep)[0])
        return NormingSet(members, True, top, tol)

    if spec.p == 1.0:
        sums = np.abs(a).sum(axis=0)
        top = float(sums.max())
        if top == 0.0:
            e = np.zeros(a.shape[1], dtype=complex)
            e[0] = 1.0
            return NormingSet((e,), True, 0.0, tol)
        members = []
        for j in np.nonzero(sums >= top * (1.0 - 1e-8))[0]:
            e = np.zeros(a.shape[1], dtype=complex)
            e[j] = 1.0
            members.append(e)
        return NormingSet(tuple(members), True, top, tol)

    if spec.p == INF:
        sums = np.abs(a).sum(axis=1)
        top = float(sums.max())
        if top == 0.0:
            return NormingSet((np.ones(a.shape[1], dtype=complex),), True, 0.0, tol)
        members = []
        for i in np.nonzero(sums >= top * (1.0 - 1e-8))[0]:
            row = a[i]
            x = np.where(np.abs(row) > 0,
                         np.conj(row) / np.maximum(np.abs(row), 1e-300), 1.0)
            members.append(_canonical_phase(x))
        return NormingSet(tuple(members), True, top, tol)

    p = spec.p
    n = a.shape[1]
    real = bool(np.all(a.imag == 0))
    out_spec = NormSpec.lp(p)

    def value(x):
        return vector_norm(a @ x, out_spec)

    best, _, limits = hill_climb(value, p, n, starts=starts, seed=seed, real=real,
                                 extra_starts=list(np.eye(n, dtype=complex)))
    members = []
    for x in limits:
        if value(x) < best * (1.0 - tol):
            continue
        cand = _canonical_phase(x)
        if all(np.linalg.norm(cand - m) > 1e-5 for m in members):
            members.append(cand)
    return NormingSet(tuple(members), False, float(best), tol)


def hilbert_parallel_witness(a, b, *, tol_rel: float = PREDICATE_RTOL) -> WitnessReport:
    """Witness functional for operator-norm parallelism on Hilbert space:

    ``a`` is parallel to ``b`` iff ``sup_{||x||=1} |<a x, b x>| = ||a|| ||b||``.
    The sup is the numerical radius of ``b* a``, taken with its maximizing
    unit vector from ``numerical_radius_hilbert``.
    """
    a, b = cmatrix.as_pair(a, b)
    radius = numerical_radius_hilbert(b.conj().T @ a)
    ceiling = schatten_norm(a, INF) * schatten_norm(b, INF)
    tol = tol_rel * ceiling
    return WitnessReport(radius.value, radius.witness_vector,
                         bool(ceiling - radius.value <= tol), tol)


def epsilon_isometry_transfer(a, b, u, eps: float, *,
                              tol_rel: float = PREDICATE_RTOL) -> IsometryTransferReport:
    """Push operator-norm parallelism through conjugation by an approximate
    isometry ``u`` (length distortion within factors ``1 -+ eps``).

    The distortion hypothesis is validated on the extreme singular values of
    ``u`` with slack ``eps/10`` -- those extremes are the exact best and
    worst ratios ``||u x|| / ||x||``, so the check dominates sampling any
    number of unit vectors; failure raises.  When the conjugated pair
    ``u a u^{-1}, u b u^{-1}`` is parallel, the original pair satisfies

        max_lambda ||a + lambda b|| >= ((1-eps)/(1+eps))^2 (||a|| + ||b||),

    reported as ``lower_bound_ok`` (None when the conjugated pair is not
    parallel, so the bound's hypothesis fails and no conclusion is claimed).
    """
    eps = float(eps)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"distortion must satisfy 0 <= eps < 1, got {eps}")
    a = cmatrix.as_matrix(a)
    b = cmatrix.as_matrix(b)
    u = cmatrix.as_matrix(u)
    n = a.shape[0]
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"transfer needs equal square operands, got {a.shape} vs {b.shape}")
    if u.shape != (n, n):
        raise ValueError(f"conjugator shape {u.shape} does not match operands {a.shape}")
    su = cmatrix.singular_values(u)
    if su[0] == 0.0 or su[-1] <= cmatrix.RANK_RTOL * su[0]:
        raise ValueError("conjugator is singular to working precision")
    slack = eps / 10.0 + 1e-9
    if su[0] > 1.0 + eps + slack or su[-1] < 1.0 - eps - slack:
        raise ValueError(
            f"conjugator is not a {eps}-isometry: length distortion spans "
            f"[{su[-1]:.6g}, {su[0]:.6g}] outside [{1 - eps:.6g}, {1 + eps:.6g}]"
        )

    uinv = np.linalg.inv(u)
    conj = parallel_definitional(u @ a @ uinv, u @ b @ uinv, SPECTRAL, tol_rel)
    source = parallel_definitional(a, b, SPECTRAL, tol_rel)
    ratio = (1.0 - eps) / (1.0 + eps)
    lower_bound = ratio * ratio * source.target

    ok: bool | None = None
    if conj.holds:
        ok = bool(source.achieved >= lower_bound - tol_rel * max(1.0, source.target))
    return IsometryTransferReport(conj, lower_bound, float(source.achieved), ok)
