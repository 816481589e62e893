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
from .norms import (INF, NormSpec, SPECTRAL, _attaining, _exponent, evaluator,
                    induced_norm, norm_value, numerical_radius_banach,
                    numerical_radius_hilbert, schatten_norm)
from .ortho import PREDICATE_RTOL, _trace_form
from .search import _EPS, circle_max, hill_climb

# Relative scale below which the smaller singular value means dependence.
DEPENDENCE_RTOL = 1e-9
# Relative tolerance of ``parallel_identity_radius`` on the gap between an
# induced lp norm and the lp radius (an ascent); the operator norm takes the
# l2 witness at its default, ``PREDICATE_RTOL``.
LP_RADIUS_RTOL = 1e-6


@dataclass(frozen=True)
class ParallelVerdict:
    """Outcome of a definitional parallelism test.

    ``achieved = max_lambda ||a + lambda b||`` at ``lambda_star``; the pair is
    parallel iff ``achieved`` reaches ``target = ||a|| + ||b||`` within
    ``tolerance`` (relative to the smaller norm, floored at round-off).
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

    ``theta -> ||a + e^{i theta} b||`` is scanned on a phase grid by
    ``search.circle_max`` and the best windows are refined by golden section
    with Brent's parabolic steps; since the computed maximum never exceeds
    the true one, a ``holds`` verdict is trustworthy and a failure is a
    failure of the refined scan only up to ``tolerance``.  Every norm comes
    from the closures of ``norms.evaluator(spec)``, resolved once per call.
    Exact convex norms (Schatten p >= 1, induced p in {1, 2, inf}, vector
    norms) search the 720-angle grid from every 32nd angle and prune it with
    ``F(0) = ||a||``; Schatten p < 1 evaluates all 720 angles, and generic
    induced p, whose values are only lower bounds, all of a 96-angle grid
    (one power iteration per angle).
    The tolerance, ``2 tol_rel min(||a||, ||b||)``, is scale-free: for unit
    a', b' the deficit ``t + 1 - max ||t a' + lambda b'||`` is concave,
    non-negative and 0 at t = 0, so it never falls, and a pair's deficit is
    at least ``min(||a||, ||b||)`` times its unit pair's.  Its floor,
    ``16 eps (||a|| + ||b||)``, is 8 times the round-off of ``target -
    achieved`` on dependent pairs and rules once the norms differ by 6e7.
    """
    a, b = cmatrix.as_pair(a, b, vector=spec.is_vector)
    batch, scalar, exact = evaluator(spec)
    na, nb = scalar(a), scalar(b)
    target = na + nb
    tol = max(2.0 * tol_rel * min(na, nb), 16 * _EPS * target)
    if na == 0.0 or nb == 0.0:
        return ParallelVerdict(True, 1.0 + 0j, target, target, tol, degenerate=True)

    pad = (1,) * a.ndim

    def f_batch(thetas):
        lam = np.exp(1j * np.asarray(thetas)).reshape((-1,) + pad)
        return batch(a[None, ...] + lam * b[None, ...])

    def f_scalar(t):
        return scalar(a + np.exp(1j * t) * b)

    # The arc bound needs exact values of a convex norm (not Schatten p < 1).
    convex = exact and not (spec.kind == "schatten" and spec.p < 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the evaluator rejects inf, NaN
        theta, achieved = circle_max(f_batch, f_scalar, grid=720 if exact else 96,
                                     origin=na if convex else None)
    return ParallelVerdict(bool(target - achieved <= tol),
                           complex(np.exp(1j * theta)), float(achieved),
                           float(target), tol)


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
    p = _exponent(p, "(1, inf)", "the trace characterization")
    a, b = cmatrix.as_pair(a, b)
    return bool(max(_trace_residuals(a, b, p)) <= tol_rel)


def _trace_residuals(a, b, p: float) -> tuple[float, float]:
    """Relative defects of the two norm-equality trace conditions:
    ``|tr(|a|^{p-1} u_a* b)|`` against ``||a||_p^{p-1} ||b||_p``, and the same
    with ``a`` and ``b`` exchanged, both read at unit ``a`` (``_trace_form``)
    so that no power of a norm is formed.  Both are 0 when either operand
    has zero norm, as a zero operand is parallel to everything."""
    ta, na = _trace_form(b, a, p)
    tb, nb = _trace_form(a, b, p)
    if na == 0.0 or nb == 0.0:
        return 0.0, 0.0
    return abs(abs(ta) - nb) / nb, abs(abs(tb) - na) / na


def parallel_trace_class(a, b, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Trace-norm parallelism for an invertible first operand:

    ``a`` is parallel to ``b`` in the trace norm iff ``|tr(|a| a^{-1} b)| = ||b||_1``,
    and ``|a| a^{-1} = u*`` for ``a = u |a|``: the p = 1 trace form.  Raises
    for (numerically) singular ``a``, where the characterization does not
    apply -- use ``parallel_definitional`` with the trace spec instead.
    """
    a, b = cmatrix.as_pair(cmatrix.as_square(a), b)
    f = cmatrix.svd(a)
    if not cmatrix._kept(f.singular_values).all():
        raise ValueError(
            "first operand is singular to working precision; "
            "use parallel_definitional with the trace norm"
        )
    t, _ = _trace_form(b, a, 1.0, f)
    nb = schatten_norm(b, 1.0)
    return bool(abs(abs(t) - nb) <= tol_rel * max(nb, 1e-300))


def parallel_identity_trace(a, p: float, tol_rel: float = PREDICATE_RTOL) -> bool:
    """Parallelism to the identity in the Schatten p-class, 1 <= p < inf:

    ``a`` is parallel to ``I`` iff ``|tr a| = n^{(p-1)/p} ||a||_p``.
    """
    p = _exponent(p, "[1, inf)", "identity-trace test")
    a = cmatrix.as_square(a)
    n = a.shape[0]
    na = schatten_norm(a, p)
    if na == 0.0:
        return True
    rhs = float(n) ** ((p - 1.0) / p) * na
    return bool(abs(abs(np.trace(a)) - rhs) <= tol_rel * na)


def parallel_identity_radius(a, spec: NormSpec = SPECTRAL) -> bool:
    """Parallelism to the identity via the numerical radius.

    Under the operator norm (``SPECTRAL``, which ``NormSpec.induced(2)``
    is) ``a`` is parallel to ``I`` iff the numerical radius equals the norm:
    ``hilbert_parallel_witness(a, I)``.  On lp^n (1 < p < inf, p != 2) the
    same holds for the lp numerical radius against the induced norm.
    """
    a = cmatrix.as_square(a)
    if spec == SPECTRAL:
        return hilbert_parallel_witness(a, np.eye(a.shape[0])).holds
    if spec.kind == "induced_lp" and 1 < spec.p < INF:
        radius = numerical_radius_banach(a, spec.p)
        nrm = induced_norm(a, spec.p).value
        return bool(abs(nrm - radius.value) <= LP_RADIUS_RTOL * nrm)
    raise ValueError(
        "radius characterization needs the operator norm or an induced "
        f"lp norm with 1 < p < inf, got {spec}"
    )


def eigen_parallel_identity(a, spec: NormSpec = SPECTRAL,
                            tol_rel: float = PREDICATE_RTOL) -> complex | None:
    """The unimodular scalar realizing parallelism to the identity, if an
    eigenvalue of maximum modulus attains the operator norm.

    When some eigenvalue ``mu`` has ``|mu| = ||a||``, the scalar
    ``lambda = mu / |mu|`` satisfies ``||a + lambda I|| = ||a|| + 1``.
    Returns None when no eigenvalue reaches the norm (no conclusion), and
    ``1 + 0j`` for the zero matrix.
    """
    if not (spec.kind == "induced_lp" or spec == SPECTRAL):
        raise ValueError(f"eigenvalue test needs an operator or induced norm, got {spec}")
    a = cmatrix.as_square(a)
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


def norming_set(a, spec: NormSpec = SPECTRAL, *, seed: int = 0) -> NormingSet:
    """Unit vectors where ``a`` attains its operator norm under ``spec``.

    Exact for the operator norm (top right-singular cluster),
    induced l1 (norm-achieving coordinate vectors) and induced l-inf
    (conjugate-phase vectors of norm-achieving rows), read from
    ``norms._attaining`` with each member's phase made canonical; the zero
    matrix gives one member.  For other induced p the set is sampled: limits
    of seeded random-ascent runs, filtered to within 1e-6 of the best and
    deduplicated up to phase.
    """
    tol = 1e-6
    a = cmatrix.as_matrix(a)
    # Vector specs describe the domain norm; the operator then carries the
    # norm induced by it (max-norm domain -> induced l-inf operator norm).
    if spec.is_vector:
        spec = NormSpec.induced(spec.p)
    hilbert = spec == SPECTRAL
    if not hilbert and spec.kind != "induced_lp":
        raise ValueError(f"norming sets are defined for operator/induced norms, got {spec}")

    p = 2.0 if hilbert else spec.p
    if p in (1, 2, INF):
        top, xs = _attaining(a, p)
        if top == 0.0:
            xs = xs[:1]
        return NormingSet(tuple(_canonical_phase(x) for x in xs), True, top, tol)

    n = a.shape[1]
    _, out_norm, _ = evaluator(NormSpec.lp(p))

    def value(x):
        return out_norm(a @ x)

    best, _, limits = hill_climb(value, p, n, seed=seed,
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
    a, b = cmatrix.as_pair(cmatrix.as_square(a), b)
    u = cmatrix.as_matrix(u)
    n = a.shape[0]
    if u.shape != (n, n):
        raise ValueError(f"conjugator shape {u.shape} does not match operands {a.shape}")
    su = cmatrix.singular_values(u)
    if not cmatrix._kept(su).all():
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
        ok = bool(source.achieved >= lower_bound - tol_rel * source.target)
    return IsometryTransferReport(conj, lower_bound, float(source.achieved), ok)
