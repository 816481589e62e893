"""Reference computations the benchmark checks the program against.

Everything here is plain numpy and imports nothing from schatten_lab, so a
check never compares the program with itself.  Each function is tested
against brute force or a hand-worked case in ``perfbench/tests``.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def matrix_norms(stack: np.ndarray, kind: str, p: float) -> np.ndarray:
    """Norms of a stack of matrices, shape (..., n, m) -> (...).

    ``kind`` is ``"schatten"`` (any p >= 1) or ``"induced"`` (p in {1, 2, inf}).
    """
    if kind == "schatten":
        s = np.linalg.svd(stack, compute_uv=False)
        if p == INF:
            return s[..., 0]
        return np.sum(s**p, axis=-1) ** (1.0 / p)
    if kind == "induced":
        if p == 1:
            return np.abs(stack).sum(axis=-2).max(axis=-1)
        if p == INF:
            return np.abs(stack).sum(axis=-1).max(axis=-1)
        if p == 2:
            return np.linalg.svd(stack, compute_uv=False)[..., 0]
    raise ValueError(f"no reference norm for {kind} p={p}")


def matrix_norm(m: np.ndarray, kind: str, p: float) -> float:
    return float(matrix_norms(m[None, ...], kind, p)[0])


def frobenius_bj_min(a: np.ndarray, b: np.ndarray) -> float:
    """``min over complex gamma of ||a + gamma b||_F``, in closed form.

    The minimizer is the orthogonal projection of ``-a`` onto the line
    spanned by ``b`` in the trace inner product, so the minimum is
    ``sqrt(||a||^2 - |<a, b>|^2 / ||b||^2)``.
    """
    na2 = float(np.vdot(a, a).real)
    nb2 = float(np.vdot(b, b).real)
    inner = complex(np.vdot(b, a))
    return math.sqrt(max(na2 - abs(inner) ** 2 / nb2, 0.0))


def trace_condition(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """``|tr(|a|^{p-1} u* b)| / (||a||_p^{p-1} ||b||_p)`` for ``a = u|a|``.

    For 1 < p < inf, ``a`` is Birkhoff-James orthogonal to ``b`` in the
    Schatten p-norm exactly when the trace vanishes.  The ratio is
    invariant under scaling the pair and lies in [0, 1] by Hoelder.
    Singular directions below 1e-10 of the top one carry no weight.
    """
    w, s, vh = np.linalg.svd(a)
    keep = s > 1e-10 * s[0]
    w, s, v = w[:, keep], s[keep], vh[keep].conj().T
    core = np.einsum("ik,ij,jk->k", w.conj(), b, v)
    value = abs(complex(np.sum(s ** (p - 1.0) * core)))
    na = float(np.sum(s**p) ** (1.0 / p))
    nb = float(np.sum(np.linalg.svd(b, compute_uv=False) ** p) ** (1.0 / p))
    return value / (na ** (p - 1.0) * nb)


def circle_bracket(a: np.ndarray, b: np.ndarray, kind: str, p: float,
                   grid: int) -> tuple[float, float]:
    """Bracket for ``max over theta of ||a + e^{i theta} b||``.

    The map is ``||b||``-Lipschitz in theta, and every angle lies within
    ``pi / grid`` of a grid angle, so the maximum lies between the grid
    maximum and the grid maximum plus ``||b|| pi / grid``.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    lam = np.exp(1j * thetas)[:, None, None]
    lo = float(matrix_norms(a[None] + lam * b[None], kind, p).max())
    return lo, lo + matrix_norm(b, kind, p) * math.pi / grid


def radius_bracket(a: np.ndarray, grid: int) -> tuple[float, float]:
    """Bracket for the numerical radius ``w(a) = max_theta lmax(Re(e^{i theta} a))``.

    ``theta -> lmax(Re(e^{i theta} a))`` is ``||a||_2``-Lipschitz, which
    gives the same grid bracket as ``circle_bracket``.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    ph = np.exp(1j * thetas)[:, None, None]
    herm = 0.5 * (ph * a[None] + np.conj(ph) * a.conj().T[None])
    lo = float(np.linalg.eigvalsh(herm)[:, -1].max())
    return lo, lo + matrix_norm(a, "schatten", INF) * math.pi / grid


def normal_radius(a: np.ndarray) -> float:
    """Numerical radius of a normal matrix: its largest eigenvalue modulus."""
    return float(np.abs(np.linalg.eigvals(a)).max())


def top_eigen_phase(a: np.ndarray) -> complex:
    """``mu / |mu|`` for the eigenvalue ``mu`` of largest modulus."""
    ev = np.linalg.eigvals(a)
    mu = ev[int(np.argmax(np.abs(ev)))]
    return complex(mu / abs(mu))


def shift_radius(n: int) -> float:
    """Numerical radius of the n x n truncated shift, ``cos(pi / (n + 1))``.

    It is also the ceiling on ``w(t)`` for every n x n nilpotent ``t`` with
    ``||t|| = 1`` (Haagerup-de la Harpe).
    """
    return math.cos(math.pi / (n + 1))


def structured_gammas() -> np.ndarray:
    """The scalars ``+-1/m, +-i/m`` for m in {1, 2, 4, 8, 16}.

    ``loewner_domination`` documents these as part of every default sample
    set, so a violation of domination at one of them must be reported.
    """
    return np.array([sgn / m for m in (1, 2, 4, 8, 16) for sgn in (1.0, -1.0, 1j, -1j)])


def _modulus(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m.conj().T @ m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def domination_margin(b: np.ndarray, a: np.ndarray, gammas: np.ndarray) -> float:
    """``min over gamma of lmin(|b + gamma a| - |b|)``, relative to ``||b||_2``.

    Negative means ``|b + gamma a| >= |b|`` fails at some sampled gamma.
    """
    abs_b = _modulus(b)
    scale = matrix_norm(b, "schatten", INF)
    worst = min(float(np.linalg.eigvalsh(_modulus(b + g * a) - abs_b)[0]) for g in gammas)
    return worst / scale
