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
  rank decision has to be made; ``_kept`` is that decision.
* LAPACK non-convergence raises ``ConvergenceFailure`` (``_lapack``), except
  in ``null_space`` and ``hermitian_eigensystem`` (a ``ValueError`` there).
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


def as_square(a) -> np.ndarray:
    """``as_matrix(a)``, rejecting a matrix that is not square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
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


def _lapack(fn, a: np.ndarray, **kwargs):
    """``fn(a, **kwargs)`` for a ``numpy.linalg`` routine, with LAPACK's
    non-convergence raised as ``ConvergenceFailure``.  Callers pass
    ``np.linalg.<fn>`` at each call, never an alias bound at import, so that
    a replaced ``numpy.linalg`` attribute is the one called."""
    try:
        return fn(a, **kwargs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(
            f"LAPACK did not converge on an operand of shape {a.shape} "
            f"with Frobenius norm {np.linalg.norm(a):.6e}: {exc}"
        ) from exc


def _kept(s: np.ndarray) -> np.ndarray:
    """Mask of the singular values above ``RANK_RTOL * s_max`` along the last
    axis (one matrix or a stack); a zero matrix keeps none."""
    return s > RANK_RTOL * s[..., :1]


def svd(a) -> SvdFactors:
    a = as_matrix(a)
    u, s, vh = _lapack(np.linalg.svd, a, full_matrices=False)
    return SvdFactors(u=u, singular_values=s, v=vh.conj().T)


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order."""
    return _lapack(np.linalg.svd, as_matrix(a), compute_uv=False)


def polar(a) -> PolarFactors:
    """Right polar decomposition of ``a``.

    Null singular directions are excluded from both factors, so the modulus
    is ``modulus(a)`` and ``isometry* @ isometry`` is the support projection
    of ``a`` rather than a full isometry when ``a`` is rank deficient.
    """
    f = svd(a)
    keep = _kept(f.singular_values)
    isometry = f.u[:, keep] @ f.v[:, keep].conj().T
    return PolarFactors(isometry=isometry, modulus=_abs_power(f.singular_values, f.v, 1.0))


def abs_power(a, t: float) -> np.ndarray:
    """Power of the modulus, ``|a|^t = v diag(s^t) v*``, with ``0^0 -> 0``.

    Null singular directions stay null for every ``t >= 0``, so
    ``abs_power(a, 0)`` is the projection onto the row space of ``a``.
    """
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"power must be a finite real >= 0, got {t}")
    f = svd(a)
    return _abs_power(f.singular_values, f.v, t)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _abs_power(s: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """``v diag(s^t) v*`` for one matrix or a stack, with singular values at
    or below the ``RANK_RTOL`` cutoff sent to 0."""
    st = np.power(s, t, out=np.zeros_like(s), where=_kept(s))
    m = (v * st[..., None, :]) @ _adjoint(v)
    return 0.5 * (m + _adjoint(m))


def modulus(a) -> np.ndarray:
    """The operator modulus ``|a| = (a* a)^(1/2)``."""
    return abs_power(a, 1.0)


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, with multiplicity.

    Sorted by descending magnitude, ties broken by phase angle.
    """
    w = _lapack(np.linalg.eigvals, as_square(a))
    order = np.lexsort((np.angle(w), -np.abs(w)))
    return w[order]


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix."""
    h = as_matrix(h)
    _require_hermitian(h, "hermitian_eigensystem")
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return w[::-1], v[:, ::-1]


def _require_hermitian(m: np.ndarray, who: str) -> None:
    """Raise unless ``m`` (one matrix or each member of a stack) is Hermitian."""
    dev = np.linalg.norm(m - _adjoint(m), axis=(-2, -1))
    bad = dev > HERMITIAN_RTOL * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    if np.any(bad):
        raise ValueError(f"{who}: input is not Hermitian "
                         f"(deviation {np.ravel(dev)[np.ravel(bad)][0]:.3e})")


def loewner_geq(p, q, tol: float = RANK_RTOL) -> bool:
    """Loewner order test: is ``p >= q`` as Hermitian forms?

    True iff the minimum eigenvalue of ``p - q`` is at least
    ``-tol * max(||p||, ||q||)`` in the spectral norm scale.  The test is
    homogeneous: scaling ``p`` and ``q`` together never changes it.
    Non-Hermitian input is a domain error.
    """
    p, q = as_pair(as_square(p), q)
    return bool(loewner_geq_batch(p[None], q, tol)[0])


def loewner_geq_batch(ps: np.ndarray, q: np.ndarray, tol: float = RANK_RTOL) -> np.ndarray:
    """``loewner_geq(p, q, tol)`` for every member ``p`` of a (k, n, n) stack.

    Takes complex128 operands of matching square shapes without further
    validation, but gates every member (and ``q``) as Hermitian.  All the
    eigenvalues come from one ``eigvalsh`` call on a (2k + 1, n, n) stack.
    """
    _require_hermitian(ps, "loewner_geq")
    _require_hermitian(q, "loewner_geq")
    ph = 0.5 * (ps + _adjoint(ps))
    qh = 0.5 * (q + q.conj().T)
    k = len(ps)
    w = np.linalg.eigvalsh(np.concatenate([ph - qh, ph, qh[None]]))
    scale = np.maximum(np.abs(w[k:2 * k]).max(axis=-1), np.abs(w[-1]).max())
    return w[:k, 0] >= -tol * scale


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``a`` (m-by-k array).

    Uses the RANK_RTOL cutoff relative to the top singular value; the zero
    matrix has the full space as kernel.
    """
    a = as_matrix(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return _kernel(s, vh)


def _kernel(s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    return vh.conj().T[:, int(np.sum(_kept(s))):]


def moduli_and_kernels(stack: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``modulus(m)`` and ``null_space(m)`` for every member of a (k, n, m)
    complex128 stack, from one batched SVD, with the same cutoffs."""
    _, s, vh = _lapack(np.linalg.svd, stack, full_matrices=True)
    r = min(stack.shape[-2:])
    moduli = _abs_power(s, _adjoint(vh[..., :r, :]), 1.0)
    return moduli, [_kernel(sk, vk) for sk, vk in zip(s, vh)]


def support_projection(a, side: str = "right") -> np.ndarray:
    """Projection onto the row space (``right``) or column space (``left``)."""
    a = as_matrix(a)
    if side == "right":
        return abs_power(a, 0.0)
    if side == "left":
        return abs_power(a.conj().T, 0.0)
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")
