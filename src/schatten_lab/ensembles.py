"""Seeded random-matrix ensembles for the law suites.

Every generator takes a ``numpy.random.Generator`` and is deterministic for
a fixed generator state; ``rng_for`` derives independent streams from
``(seed, *coordinates)`` so any single draw is replayable in isolation.

Constructive pair generators carry their certificate in the construction:
``both_disjoint_pair`` outputs satisfy ``a b* = a* b = 0`` exactly (up to
rounding), ``dependent_pair`` outputs are exact scalar multiples, and
``commuting_disjoint_psd_pair`` outputs are simultaneously diagonalizable
PSD matrices with disjoint eigenvalue supports.
"""

from __future__ import annotations

import numpy as np

_STREAM_SALT = 0x5CA77E

#: Named single-matrix and pair ensembles selectable through configuration.
KINDS = (
    "ginibre",
    "psd",
    "unitary",
    "projection",
    "nilpotent",
    "partial_isometry",
    "disjoint_pair",
    "dependent_pair",
    "commuting_kernel_pair",
)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream for a (seed, coordinates...) tuple."""
    return np.random.default_rng(np.random.SeedSequence([_STREAM_SALT, int(seed) % (1 << 63),
                                                         *[int(k) for k in key]]))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian matrix scaled so the spectral norm is O(1)."""
    return _complex_gaussian(rng, (n, n)) / np.sqrt(2.0 * n)


def psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """PSD draw with a spectral floor: smallest eigenvalue >= trace/(2n) > 0."""
    g = _complex_gaussian(rng, (n, n))
    h = g @ g.conj().T / n
    h = 0.5 * (h + h.conj().T)
    return h + (float(np.trace(h).real) / (2.0 * n)) * np.eye(n)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    lam = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * lam[None, :]


def projection(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random orthogonal projection of rank 1..n-1 (never 0 or full)."""
    rank = int(rng.integers(1, n))
    u = haar_unitary(rng, n)[:, :rank]
    p = u @ u.conj().T
    return 0.5 * (p + p.conj().T)


def nilpotent(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly upper-triangular complex Gaussian (nilpotent of index <= n)."""
    return np.triu(_complex_gaussian(rng, (n, n)), k=1)


def partial_isometry(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random partial isometry of random rank 1..n."""
    rank = int(rng.integers(1, n + 1))
    u = haar_unitary(rng, n)[:, :rank]
    v = haar_unitary(rng, n)[:, :rank]
    return u @ v.conj().T


def normal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitarily diagonalized random complex spectrum (entries in an annulus)."""
    u = haar_unitary(rng, n)
    radii = 0.25 + 1.75 * rng.uniform(size=n)
    spectrum = radii * np.exp(2j * np.pi * rng.uniform(size=n))
    return u @ np.diag(spectrum) @ u.conj().T


def both_disjoint_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair with orthogonal row spaces and orthogonal column spaces."""
    k = int(rng.integers(1, n))
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    m1 = _complex_gaussian(rng, (k, k)) / np.sqrt(2.0 * k)
    m2 = _complex_gaussian(rng, (n - k, n - k)) / np.sqrt(2.0 * max(1, n - k))
    a = u[:, :k] @ m1 @ v[:, :k].conj().T
    b = u[:, k:] @ m2 @ v[:, k:].conj().T
    return a, b


def dependent_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, c*a) for a random complex c with modulus in [1/2, 2]."""
    a = ginibre(rng, n)
    c = (0.5 + 1.5 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return a, c * a


def commuting_disjoint_psd_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneously diagonalizable PSD pair with disjoint eigen-supports.

    Satisfies a b = b a = 0, hence disjoint supports on both sides, and
    ``|b + gamma a| = |b| + |gamma| |a| >= |b|`` for every scalar gamma.
    For n >= 3 one eigendirection is left in the kernel of both factors, so
    joint-kernel identities are exercised non-trivially.
    """
    top = n - 1 if n >= 3 else n
    k = int(rng.integers(1, top))
    q = haar_unitary(rng, n)
    da = np.zeros(n)
    db = np.zeros(n)
    da[:k] = 0.5 + 1.5 * rng.uniform(size=k)
    db[k:top] = 0.5 + 1.5 * rng.uniform(size=top - k)
    a = q @ np.diag(da) @ q.conj().T
    b = q @ np.diag(db) @ q.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def near_isometry(rng: np.random.Generator, n: int, eps: float) -> np.ndarray:
    """Invertible matrix with all singular values inside [1-eps, 1+eps]."""
    w1 = haar_unitary(rng, n)
    w2 = haar_unitary(rng, n)
    s = 1.0 - eps + 2.0 * eps * rng.uniform(size=n)
    return (w1 * s[None, :]) @ w2.conj().T


def shared_top_direction_pair(rng: np.random.Generator, n: int, *,
                              real: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Operator-norm parallel pair that is generically linearly independent.

    Both factors send the same unit vector ``v`` to positive multiples of
    the same unit vector ``u``, so ``<a x, b x>`` at ``x = v`` equals
    ``||a|| ||b||``; the remaining singular values sit below 3/4 of the top
    one, with all directions drawn Haar on the orthogonal complements.
    """
    def frame(m):
        if real:
            q, r = np.linalg.qr(rng.standard_normal((m, m)))
            lam = np.where(np.abs(np.diagonal(r)) > 0,
                           np.sign(np.diagonal(r)), 1.0)
            return (q * lam[None, :]).astype(complex)
        return haar_unitary(rng, m)

    shared_u = frame(n)[:, 0]
    shared_v = frame(n)[:, 0]

    def factor():
        scale = 0.5 + 1.5 * rng.uniform()
        left = frame(n)
        right = frame(n)
        # Re-anchor the top singular pair at the shared directions.
        left = np.column_stack([shared_u, _complement(left, shared_u)])
        right = np.column_stack([shared_v, _complement(right, shared_v)])
        tail = scale * 0.75 * rng.uniform(size=n - 1)
        s = np.concatenate([[scale], np.sort(tail)[::-1]])
        return (left * s[None, :]) @ right.conj().T

    return factor(), factor()


def _complement(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of ``v`` inside ``basis``'s span."""
    n = basis.shape[0]
    m = basis - np.outer(v, v.conj() @ basis)
    q, r = np.linalg.qr(m)
    keep = np.abs(np.diagonal(r)) > 1e-10
    cols = q[:, keep]
    if cols.shape[1] != n - 1:  # pragma: no cover - degenerate draw, retry upstream
        raise RuntimeError("complement construction lost rank")
    return cols[:, : n - 1]


def intersecting_projection_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal projections whose ranges share a common unit vector."""
    u = haar_unitary(rng, n)
    shared = u[:, 0]
    kp = int(rng.integers(1, n - 1)) if n > 2 else 1
    kq = int(rng.integers(1, n - 1)) if n > 2 else 1
    up = np.column_stack([shared, haar_unitary(rng, n)[:, :kp - 1]]) if kp > 1 \
        else shared[:, None]
    uq = np.column_stack([shared, haar_unitary(rng, n)[:, :kq - 1]]) if kq > 1 \
        else shared[:, None]
    p = _project_basis(up)
    q = _project_basis(uq)
    return p, q


def _project_basis(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    m = q @ q.conj().T
    return 0.5 * (m + m.conj().T)


def trivial_intersection_projection_pair(rng: np.random.Generator,
                                         n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal projections with complementary-dimension generic ranges.

    Ranks kp + kq <= n, so generic draws have trivial range intersection;
    callers should still guard the largest principal angle.
    """
    kp = int(rng.integers(1, n))
    kq = int(rng.integers(1, max(2, n - kp + 1)))
    u = haar_unitary(rng, n)[:, :kp]
    v = haar_unitary(rng, n)[:, :kq]
    return _project_basis(u), _project_basis(v)
