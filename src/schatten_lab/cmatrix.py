"""Dense complex matrix core: validation, factorizations, operator modulus.

All operands are finite complex matrices held as 2-D ``numpy`` arrays of
``complex128``.  Everything downstream (norms, orthogonality and parallelism
predicates, the law suites) is built on the routines here, so the conventions
are fixed once:

* ``svd(a)`` returns the reduced decomposition ``a = u @ diag(s) @ v*`` with
  the singular values sorted in descending order.
* The modulus is ``|a| = (a* a)^(1/2)``, acting on the domain side, so that
  ``a = isometry @ |a|`` is the right polar decomposition.
* A singular value ``s_i <= RANK_RTOL * s_max`` is treated as zero whenever a
  rank decision has to be made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * s_max count as zero in rank decisions.
RANK_RTOL = 1e-10
# Gate for inputs that must be Hermitian (Loewner comparisons).
HERMITIAN_RTOL = 1e-8


class ConvergenceFailure(RuntimeError):
    """A factorization failed to converge within its iteration cap."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array.

    Rejects inputs that are not two-dimensional, are empty, or contain
    non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(x) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim == 2 and 1 in v.shape:
        v = v.reshape(-1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def as_pair(a, b, *, vector: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Validate two operands of one shape: matrices, or vectors if ``vector``."""
    convert = as_vector if vector else as_matrix
    a, b = convert(a), convert(b)
    if a.shape != b.shape:
        raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True)
class SvdFactors:
    """Reduced singular value decomposition ``a = u @ diag(s) @ v*``.

    ``u`` is n-by-r and ``v`` is m-by-r with orthonormal columns,
    r = min(n, m); ``singular_values`` is real, non-negative, descending.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v.conj().T


@dataclass(frozen=True)
class PolarFactors:
    """Right polar decomposition ``a = isometry @ modulus``.

    ``modulus`` is the Hermitian positive-semidefinite square root of
    ``a* a``; ``isometry`` is the partial isometry with ``u* u`` equal to
    the projection onto the range of ``modulus``.
    """

    isometry: np.ndarray
    modulus: np.ndarray


def svd(a) -> SvdFactors:
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(
            f"svd did not converge for a {a.shape[0]}x{a.shape[1]} matrix "
            f"with Frobenius norm {np.linalg.norm(a):.6e}: {exc}"
        ) from exc
    return SvdFactors(u=u, singular_values=s, v=vh.conj().T)


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(
            f"svd did not converge for a {a.shape[0]}x{a.shape[1]} matrix "
            f"with Frobenius norm {np.linalg.norm(a):.6e}: {exc}"
        ) from exc


def singular_values_batch(stack: np.ndarray) -> np.ndarray:
    """Singular values for a stack of matrices, shape (..., n, m) -> (..., r)."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"batched svd did not converge: {exc}") from exc


def polar(a) -> PolarFactors:
    """Right polar decomposition of ``a``.

    Null singular directions are excluded from the isometry, so
    ``isometry* @ isometry`` is the support projection of ``a`` rather than
    a full isometry when ``a`` is rank deficient.
    """
    f = svd(a)
    s = f.singular_values
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    keep = s > cutoff
    modulus = (f.v * s) @ f.v.conj().T
    modulus = 0.5 * (modulus + modulus.conj().T)
    isometry = f.u[:, keep] @ f.v[:, keep].conj().T
    return PolarFactors(isometry=isometry, modulus=modulus)


def abs_power(a, t: float) -> np.ndarray:
    """Power of the modulus, ``|a|^t = v diag(s^t) v*``, with ``0^0 -> 0``.

    Null singular directions stay null for every ``t >= 0``, so
    ``abs_power(a, 0)`` is the projection onto the row space of ``a``.
    """
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"power must be a finite real >= 0, got {t}")
    f = svd(a)
    s = f.singular_values
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    st = np.power(s, t, out=np.zeros_like(s), where=s > cutoff)
    m = (f.v * st) @ f.v.conj().T
    return 0.5 * (m + m.conj().T)


def modulus(a) -> np.ndarray:
    """The operator modulus ``|a| = (a* a)^(1/2)``."""
    return abs_power(a, 1.0)


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, with multiplicity.

    Sorted by descending magnitude, ties broken by phase angle.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {a.shape}")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(
            f"eigenvalue iteration did not converge for a {a.shape[0]}x"
            f"{a.shape[0]} matrix with Frobenius norm "
            f"{np.linalg.norm(a):.6e}: {exc}"
        ) from exc
    order = np.lexsort((np.angle(w), -np.abs(w)))
    return w[order]


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix."""
    h = as_matrix(h)
    _require_hermitian(h, "hermitian_eigensystem")
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return w[::-1], v[:, ::-1]


def _require_hermitian(m: np.ndarray, who: str) -> None:
    dev = np.linalg.norm(m - m.conj().T)
    if dev > HERMITIAN_RTOL * max(1.0, np.linalg.norm(m)):
        raise ValueError(f"{who}: input is not Hermitian (deviation {dev:.3e})")


def loewner_geq(p, q, tol: float = RANK_RTOL) -> bool:
    """Loewner order test: is ``p >= q`` as Hermitian forms?

    True iff the minimum eigenvalue of ``p - q`` is at least
    ``-tol * max(1, ||p||, ||q||)`` in the spectral norm scale.
    Non-Hermitian input is a domain error.
    """
    p = as_matrix(p)
    q = as_matrix(q)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ValueError(f"loewner_geq needs equal square shapes, got {p.shape} vs {q.shape}")
    _require_hermitian(p, "loewner_geq")
    _require_hermitian(q, "loewner_geq")
    d = 0.5 * (p + p.conj().T) - 0.5 * (q + q.conj().T)
    wmin = np.linalg.eigvalsh(d)[0]
    scale = max(
        1.0,
        float(np.abs(np.linalg.eigvalsh(0.5 * (p + p.conj().T))).max()),
        float(np.abs(np.linalg.eigvalsh(0.5 * (q + q.conj().T))).max()),
    )
    return bool(wmin >= -tol * scale)


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``a`` (m-by-k array).

    Uses the RANK_RTOL cutoff relative to the top singular value; the zero
    matrix has the full space as kernel.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    m = a.shape[1]
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_RTOL * smax)) if smax > 0 else 0
    return vh.conj().T[:, rank:m]


def support_projection(a, side: str = "right") -> np.ndarray:
    """Projection onto the row space (``right``) or column space (``left``)."""
    a = as_matrix(a)
    if side == "right":
        return abs_power(a, 0.0)
    if side == "left":
        return abs_power(a.conj().T, 0.0)
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")
