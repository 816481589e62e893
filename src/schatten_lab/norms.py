"""Norms and radii: Schatten p-(quasi-)norms, vector and induced lp norms,
numerical radii in Hilbert and lp settings.

A ``NormSpec`` names the norm every predicate works under:

* ``schatten`` with ``0 < p <= inf`` -- singular value p-sums (quasi-norm for
  p < 1, operator norm at p = inf);
* ``induced_lp`` with ``1 <= p <= inf`` -- operator norm induced by the
  vector lp norm (exact for p in {1, 2, inf}; otherwise Boyd's power
  iteration, run on a whole stack at once, whose value is attained at a unit
  vector and so is a certified lower bound);
* ``vector_lp`` / ``vector_max`` -- norms of vector operands.

``evaluator(spec)`` resolves a spec once into batched and scalar closures
over validated operands; the predicates' optimizers call those closures, and
``norm_value`` / ``norm_value_batch`` dispatch through them.

Radius computations return a ``RadiusResult`` carrying the value, a witness
vector, and the phase that makes the defining functional real positive at
the witness.  The lp numerical radius runs ``search.multistart_ascent`` on
the norming functional over the complex sphere, real operands included (a
rotation attains its radius only at complex vectors); ``search`` owns the lp
sphere, so the radius passes only the exponent, value and gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .search import _lp_normalize, golden_section_max, multistart_ascent, sphere_starts

INF = math.inf

_KINDS = ("schatten", "induced_lp", "vector_lp", "vector_max")


@dataclass(frozen=True)
class NormSpec:
    """Which norm a predicate runs under; ``p`` is unused for vector_max."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "vector_max":
            if self.p is not None:
                raise ValueError("vector_max takes no exponent")
            return
        if self.p is None:
            raise ValueError(f"{self.kind} requires an exponent p")
        p = float(self.p)
        if math.isnan(p):
            raise ValueError("p must not be NaN")
        if self.kind == "schatten" and not p > 0:
            raise ValueError(f"schatten norms need p in (0, inf], got {p}")
        if self.kind in ("induced_lp", "vector_lp") and not p >= 1:
            raise ValueError(f"{self.kind} needs p in [1, inf], got {p}")
        object.__setattr__(self, "p", p)

    @classmethod
    def schatten(cls, p) -> "NormSpec":
        return cls("schatten", float(p))

    @classmethod
    def induced(cls, p) -> "NormSpec":
        return cls("induced_lp", float(p))

    @classmethod
    def lp(cls, p) -> "NormSpec":
        return cls("vector_lp", float(p))

    @classmethod
    def max_norm(cls) -> "NormSpec":
        return cls("vector_max")

    @property
    def is_vector(self) -> bool:
        return self.kind in ("vector_lp", "vector_max")


SPECTRAL = NormSpec.schatten(INF)
TRACE = NormSpec.schatten(1.0)
FROBENIUS = NormSpec.schatten(2.0)


@dataclass(frozen=True)
class RadiusResult:
    """A maximized functional value together with its maximizer.

    ``witness_phase * functional(witness_vector)`` is real positive and
    equals ``value`` up to ``tolerance``.
    """

    value: float
    witness_vector: np.ndarray
    witness_phase: complex
    tolerance: float


def _check_p(p) -> float:
    p = float(p)
    if math.isnan(p):
        raise ValueError("p must not be NaN")
    return p


def schatten_norm(a, p) -> float:
    """Schatten p-(quasi-)norm: lp norm of the singular values."""
    p = _check_p(p)
    if not p > 0:
        raise ValueError(f"schatten norms need p > 0, got {p}")
    return _schatten_from_singular_values(cmatrix.singular_values(a), p)


def _schatten_from_singular_values(s: np.ndarray, p: float) -> float:
    if p == INF:
        return float(s[0])
    return float((s**p).sum() ** (1.0 / p))


def schatten_norm_batch(stack: np.ndarray, p: float) -> np.ndarray:
    s = cmatrix.singular_values_batch(stack)
    if p == INF:
        return s[..., 0]
    return np.sum(s**p, axis=-1) ** (1.0 / p)


def vector_norm(x, spec: NormSpec) -> float:
    """Norm of a vector operand under a vector_lp or vector_max spec."""
    if not spec.is_vector:
        raise ValueError(f"vector_norm needs a vector spec, got kind={spec.kind!r}")
    return norm_value(x, spec)


def _induced_one(a: np.ndarray) -> tuple[float, np.ndarray]:
    sums = np.abs(a).sum(axis=0)
    j = int(np.argmax(sums))
    e = np.zeros(a.shape[1], dtype=complex)
    e[j] = 1.0
    return float(sums[j]), e


def _induced_inf(a: np.ndarray) -> tuple[float, np.ndarray]:
    sums = np.abs(a).sum(axis=1)
    i = int(np.argmax(sums))
    row = a[i]
    x = np.where(np.abs(row) > 0, np.conj(row) / np.maximum(np.abs(row), 1e-300), 1.0)
    return float(sums[i]), x


def _signed_power(z: np.ndarray, r: float) -> np.ndarray:
    """``|z|^r sign z``, each row scaled to a top modulus of 1 (no overflow)."""
    az = np.abs(z)
    scale = 1.0 / np.maximum(az.max(axis=-1, keepdims=True), 1e-300)
    return np.maximum(az * scale, 1e-300) ** (r - 1.0) * (z * scale)


def _induced_power(stack: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Induced lp norms of a (k, n, m) stack, and unit vectors attaining them.

    Boyd's power iteration (Boyd 1974; Higham 1992) from the basis vectors and
    ``sphere_starts(m, 64, 0)``: ``x <- |g|^{1/(p-1)} sign g`` on the lp
    sphere, with ``g = A*(|Ax|^{p-1} sign Ax)``, never lowers ``||Ax||_p``.  A
    row drops out once it gains less than 1e-15 relative, or after 1000
    steps; the earliest start wins ties.
    """
    k, _, m = stack.shape
    starts = _lp_normalize(np.concatenate([np.eye(m), sphere_starts(m, 64, 0)]), p)
    s = len(starts)
    # Row r runs start r % s on matrix r // s; the rows still gaining are
    # compacted into ``ids``, ``ya`` (= Ax), ``va`` and their matrices ``aa``.
    x, aa = np.tile(starts, (k, 1)), np.repeat(stack, s, axis=0)
    ya = (aa @ x[..., None])[..., 0]
    v = np.linalg.norm(ya, p, axis=-1)
    ids = np.flatnonzero(np.isfinite(v))  # rows off to inf or NaN take no step
    ya, va, aa = ya[ids], v[ids], aa[ids]
    for _ in range(1000):
        if ids.size == 0:
            break
        z = _signed_power(ya, p - 1.0)
        g = (np.conj(z)[:, None, :] @ aa)[:, 0].conj()  # A* z = conj(z* A)
        xn = _lp_normalize(_signed_power(g, 1.0 / (p - 1.0)), p)
        yn = (aa @ xn[..., None])[..., 0]
        vn = np.linalg.norm(yn, p, axis=-1)
        up, keep = vn > va, vn > va * (1.0 + 1e-15)
        x[ids[up]], v[ids[up]] = xn[up], vn[up]
        ids, ya, va, aa = ids[keep], yn[keep], vn[keep], aa[keep]
    best = np.arange(k) * s + np.argmax(v.reshape(k, s), axis=1)
    return v[best], x[best]


def induced_norm(a, p) -> RadiusResult:
    """Operator norm induced by the vector lp norm, with a witness.

    Exact at p in {1, 2, inf} (column sums, top singular pair, row sums).
    Otherwise the power iteration ``_induced_power``; the value is attained
    at the witness, so it is a certified lower bound, and it is the exact
    norm whenever one start reaches the basin of a global maximizer.
    """
    a = cmatrix.as_matrix(a)
    p = _check_p(p)
    if not p >= 1:
        raise ValueError(f"induced norms need p in [1, inf], got {p}")
    if p == 1:
        val, x = _induced_one(a)
        return RadiusResult(val, x, 1.0 + 0j, 1e-12 * max(1.0, val))
    if p == INF:
        val, x = _induced_inf(a)
        return RadiusResult(val, x, 1.0 + 0j, 1e-12 * max(1.0, val))
    if p == 2:
        f = cmatrix.svd(a)
        val = float(f.singular_values[0])
        return RadiusResult(val, f.v[:, 0], 1.0 + 0j, 1e-12 * max(1.0, val))
    (val,), (x,) = _induced_power(a[None], p)
    return RadiusResult(float(val), x, 1.0 + 0j, 1e-8 * max(1.0, val))


def evaluator(spec: NormSpec):
    """Resolve ``spec`` once into ``(batch, scalar, exact)``.

    ``batch`` maps a stack of operands -- shape (k, n, m) for matrices, (k, n)
    for vectors -- to their k norms; ``scalar`` maps one operand to its norm
    as a float.  Both take complex128 operands that the caller has already
    validated (``cmatrix.as_pair``), so hot loops such as ``a + gamma b``
    inside an optimizer skip validation.  The scalar result is checked
    instead: a non-finite value raises ``ValueError`` (an SVD that fails, as
    on NaN entries, raises ``numpy.linalg.LinAlgError``, also a
    ``ValueError``), so it can never reach a verdict.  ``exact`` is False
    only for generic induced p, whose values are power-iteration bounds.

    Schatten norms read the singular values alone, induced p in {1, inf} the
    column or row sums, induced p = 2 the top singular value (no singular
    vectors); generic induced p runs ``_induced_power`` on the whole stack.
    """
    p = spec.p
    exact = True
    if spec.kind == "schatten":
        def value(m):
            return _schatten_from_singular_values(np.linalg.svd(m, compute_uv=False), p)

        def batch(stack):
            return schatten_norm_batch(stack, p)
    elif spec.kind == "vector_max" or (spec.is_vector and p == INF):
        def value(x):
            return float(np.abs(x).max())

        def batch(stack):
            return np.abs(stack).max(axis=-1)
    elif spec.is_vector:
        def value(x):
            return float(np.sum(np.abs(x) ** p) ** (1.0 / p))

        def batch(stack):
            return np.sum(np.abs(stack) ** p, axis=-1) ** (1.0 / p)
    elif p == 1:
        def value(m):
            return float(np.abs(m).sum(axis=0).max())

        def batch(stack):
            return np.abs(stack).sum(axis=-2).max(axis=-1)
    elif p == INF:
        def value(m):
            return float(np.abs(m).sum(axis=1).max())

        def batch(stack):
            return np.abs(stack).sum(axis=-1).max(axis=-1)
    elif p == 2:
        def value(m):
            return float(np.linalg.svd(m, compute_uv=False)[0])

        def batch(stack):
            return cmatrix.singular_values_batch(stack)[..., 0]
    else:
        exact = False

        def value(m):
            return float(_induced_power(m[None], p)[0][0])

        def batch(stack):
            return _induced_power(stack, p)[0]

    def scalar(m):
        v = value(m)
        if not math.isfinite(v):
            raise ValueError(f"norm evaluated to {v} under {spec}")
        return v

    return batch, scalar, exact


def operator_norm(a, spec: NormSpec) -> float:
    """Operator norm of a matrix under a schatten or induced spec."""
    if spec.is_vector:
        raise ValueError(f"operator_norm needs a matrix spec, got kind={spec.kind!r}")
    return norm_value(a, spec)


def norm_value(operand, spec: NormSpec) -> float:
    """Norm of a matrix or vector operand under ``spec``; a non-finite value
    raises ``ValueError``."""
    x = cmatrix.as_vector(operand) if spec.is_vector else cmatrix.as_matrix(operand)
    return evaluator(spec)[1](x)


def norm_value_batch(stack: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Norms of a stack of operands: shape (k, n, m) for matrices, (k, n) for vectors."""
    return evaluator(spec)[0](stack)


def numerical_radius_hilbert(a) -> RadiusResult:
    """Numerical radius sup over unit x of ``|<Ax, x>|`` in the l2 inner product.

    Scans the top eigenvalue of the Hermitian parts ``Re(e^{i theta} A)``
    over a 1024-point phase grid, then refines the best window by
    golden-section to 1e-10.  The witness is the top eigenvector at the
    optimal phase.
    """
    a = cmatrix.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"numerical radius needs a square matrix, got {a.shape}")
    ah = a.conj().T

    thetas = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    phases = np.exp(1j * thetas)
    stack = 0.5 * (phases[:, None, None] * a + np.conj(phases)[:, None, None] * ah)
    tops = np.linalg.eigvalsh(stack)[:, -1]
    k = int(np.argmax(tops))

    def top_at(t):
        h = 0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * ah)
        return float(np.linalg.eigvalsh(h)[-1])

    delta = 2.0 * np.pi / 1024
    t_ref, v_ref = golden_section_max(top_at, thetas[k] - delta, thetas[k] + delta,
                                      tol=1e-10)
    if v_ref >= tops[k]:
        t_star, value = t_ref, v_ref
    else:
        t_star, value = float(thetas[k]), float(tops[k])
    h = 0.5 * (np.exp(1j * t_star) * a + np.exp(-1j * t_star) * ah)
    w, vecs = np.linalg.eigh(h)
    witness = vecs[:, -1]
    return RadiusResult(float(value), witness, complex(np.exp(1j * t_star)),
                        1e-10 * max(1.0, value))


def _lp_radius_terms(a: np.ndarray, x: np.ndarray, p: float):
    """Functional value F(x) = sum_i conj(x_i)|x_i|^{p-2}(Ax)_i on the lp sphere.

    ``x`` is a vector or a (k, n) stack of rows; returns F per row together
    with ``Ax``, ``|x|`` and the functional's coefficients ``u``.
    """
    y = x @ a.T
    ax = np.abs(x)
    u = np.where(ax > 0, np.conj(x) * np.maximum(ax, 1e-300) ** (p - 2), 0.0)
    return (u * y).sum(axis=-1), y, ax, u


def numerical_radius_banach(a, p, *, starts: int = 64, max_steps: int = 500,
                            seed: int = 0) -> RadiusResult:
    """Numerical radius on lp^n, 1 < p < inf.

    For unit ``x`` the unique norming functional of lp^n evaluates to
    ``x*(y) = sum_i conj(x_i) |x_i|^{p-2} y_i``; the radius is the sup of
    ``|x*(Ax)|`` over the complex lp sphere, located by seeded multistart
    projected ascent with backtracking (value is a certified lower bound).
    """
    a = cmatrix.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"numerical radius needs a square matrix, got {a.shape}")
    p = _check_p(p)
    if not (1 < p < INF):
        raise ValueError(f"lp numerical radius needs 1 < p < inf, got {p}")
    n = a.shape[0]
    ac = a.conj()

    def value(x):
        return np.abs(_lp_radius_terms(a, x, p)[0])

    def grad(x):
        f, y, ax, u = _lp_radius_terms(a, x, p)
        af = np.abs(f)[..., None]
        f = f[..., None]
        safe = np.maximum(ax, 1e-9)
        hp2 = safe ** (p - 2)
        df_dconj = 0.5 * p * hp2 * y
        phase2 = np.where(ax > 0, (np.conj(x) / safe) ** 2, 0.0)
        df_dx = 0.5 * (p - 2) * hp2 * phase2 * y + u @ a
        g = (np.conj(f) * df_dconj + f * np.conj(df_dx)) / (2.0 * np.maximum(af, 1e-300))
        return np.where(af < 1e-300, y @ ac, g)

    val, x = multistart_ascent(value, grad, p, n, starts=starts,
                               max_steps=max_steps, seed=seed,
                               extra_starts=list(np.eye(n, dtype=complex)))
    f = _lp_radius_terms(a, x, p)[0]
    phase = complex(np.conj(f) / abs(f)) if abs(f) > 0 else 1.0 + 0j
    return RadiusResult(float(val), x, phase, 1e-8 * max(1.0, val))
