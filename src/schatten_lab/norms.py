"""Norms and radii: Schatten p-(quasi-)norms, vector and induced lp norms,
numerical radii in Hilbert and lp settings.

A ``NormSpec`` names the norm every predicate works under:

* ``schatten`` with ``0 < p <= inf`` -- singular value p-sums (quasi-norm for
  p < 1, operator norm at p = inf; at p = 2 the Frobenius norm, summed over
  the entries with no SVD), rescaled by a power of two where a plain sum
  would overflow or underflow;
* ``induced_lp`` with ``1 <= p <= inf`` -- operator norm induced by the
  vector lp norm (exact for p in {1, inf}, and p = 2 is ``SPECTRAL``;
  otherwise Boyd's power iteration, run on a whole stack at once, whose
  value is attained at a unit vector and so is a certified lower bound);
* ``vector_lp`` with ``1 <= p <= inf`` -- vector norms, the max norm at
  p = inf; every lp sum here, vectors' or singular values', is rescaled.

``evaluator(spec)`` resolves a spec once into one closure per norm, for a
validated operand or a stack, and its scalar form, both raising on a
non-finite value; the predicates' optimizers call those closures, and
``norm_value`` / ``norm_value_batch`` dispatch through them.  Beside it,
``_cut_oracle(spec, d)`` gives the norms of a stack together with
``phi_X(d)`` for a norming functional ``phi_X`` of each member: the cuts of
the Birkhoff-James cutting plane.

Radius computations return a ``RadiusResult`` carrying the value and a
witness vector.  The l2 radius sweeps the phase with ``search.circle_max``;
the lp numerical radius runs ``search.multistart_ascent`` on the norming
functional over the complex sphere, real operands included (a rotation
attains its radius only at complex vectors); ``search`` owns the lp sphere,
so the radius passes only the exponent, value and gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cmatrix
from .search import _lp_normalize, circle_max, multistart_ascent, sphere_starts

INF = math.inf

_KINDS = ("schatten", "induced_lp", "vector_lp")


def _exponent(p, domain: str, who: str) -> float:
    """``float(p)`` if it lies in ``domain``, an interval written like
    ``"(1, inf]"``; otherwise ``ValueError`` naming ``who``.  NaN lies in
    no interval."""
    p = float(p)
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    above = lo <= p if domain[0] == "[" else lo < p
    below = p <= hi if domain[-1] == "]" else p < hi
    if not (above and below):
        raise ValueError(f"{who} needs p in {domain}, got {p}")
    return p


@dataclass(frozen=True)
class NormSpec:
    """Which norm a predicate runs under, and its exponent ``p``.

    Each norm has one spelling: induced p = 2 is stored as the operator
    norm, Schatten p = inf, so ``NormSpec.induced(2) == SPECTRAL``, as the
    max norm is vector lp at p = inf."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {_KINDS}")
        if self.p is None:
            raise ValueError(f"{self.kind} requires an exponent p")
        domain = "(0, inf]" if self.kind == "schatten" else "[1, inf]"
        object.__setattr__(self, "p", _exponent(self.p, domain, f"{self.kind} norm"))
        if self.kind == "induced_lp" and self.p == 2.0:
            object.__setattr__(self, "kind", "schatten")
            object.__setattr__(self, "p", INF)

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
        return cls.lp(INF)

    @property
    def is_vector(self) -> bool:
        return self.kind == "vector_lp"

    @property
    def smooth(self) -> bool:
        """Whether the norm is differentiable away from 0: Schatten and
        vector lp with 1 < p < inf."""
        return self.kind in ("schatten", "vector_lp") and 1.0 < self.p < INF


SPECTRAL = NormSpec.schatten(INF)
TRACE = NormSpec.schatten(1.0)
FROBENIUS = NormSpec.schatten(2.0)


@dataclass(frozen=True)
class RadiusResult:
    """A maximized functional value together with its maximizer; the
    functional's modulus at ``witness_vector`` equals ``value`` up to
    ``tolerance``, which is relative to ``value`` (it scales with the
    operand)."""

    value: float
    witness_vector: np.ndarray
    tolerance: float


def schatten_norm(a, p) -> float:
    """Schatten p-(quasi-)norm, ``norm_value`` under ``NormSpec.schatten(p)``."""
    return norm_value(a, _schatten_spec(float(p)))


@functools.lru_cache(maxsize=16)
def _schatten_spec(p: float) -> NormSpec:
    """``NormSpec.schatten(p)``, parsed once per exponent (a spec is frozen,
    so one object serves every call; an invalid p raises and is not kept)."""
    return NormSpec.schatten(p)


# A sum of squares or p-th powers at or above _SUM_LO lost nothing that
# matters to underflow: each underflowed term is off by at most 2^-1075.
_SUM_LO = 2.0 ** -970
_HUGE = float(np.finfo(float).max)


def _within(v: np.ndarray, lo: float, hi: float) -> bool:
    """Whether every entry of ``v`` (0-d included) lies in [lo, hi]; NaN
    does not.  A 0-d array is compared as a scalar, which is much faster."""
    if v.ndim == 0:
        v = v[()]
        return bool(lo <= v <= hi)
    return bool(lo <= v.min() and v.max() <= hi)


def _top_scaled(norm, v: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``norm`` along the last axis of ``v`` as ``2^e norm(v / 2^e)``, with
    ``2^e`` the power of two just above each row's largest modulus ``top``:
    the scaling is exact, and the scaled terms can neither overflow nor
    underflow as a whole (Blue 1978, ACM TOMS 4).  A zero row gives 0."""
    e = np.frexp(top)[1]
    with np.errstate(over="ignore"):  # a norm above the float range is inf
        return np.ldexp(norm(np.ldexp(v, -e[..., None])), e)


def _l2(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes of a complex128 matrix or
    stack, ``sqrt(sum re^2 + im^2)``, with no SVD.

    A matrix whose sum of squares leaves ``[_SUM_LO, max]`` (squares that
    underflowed, or overflowed) is recomputed by ``_top_scaled``; the others
    keep the plain sum, so each value depends on its own matrix alone.
    """
    v = np.ascontiguousarray(x).reshape(x.shape[:-2] + (-1,)).view(np.float64)
    r = _l2(v)
    lo = _SUM_LO ** 0.5
    if _within(r, lo, _HUGE):
        return r
    ok = (r >= lo) & (r <= _HUGE)
    return np.where(ok, r, _top_scaled(_l2, v, np.abs(v).max(axis=-1)))


def _lp_sum(v: np.ndarray, p: float, top: np.ndarray | None = None) -> np.ndarray:
    """lp norm along the last axis of moduli ``v``; at p = inf the row maxima
    ``top``, which a caller holding sorted singular values ``s`` passes as
    ``s[..., 0]`` (a small row's ``v.max`` costs as much as its sum).  For
    1 < p < inf a row whose ``top`` would let the p-th powers overflow, or
    sum below ``_SUM_LO``, is recomputed by ``_top_scaled`` as
    ``top ||v / top||_p``; other rows keep the plain sum.  At p <= 1 every
    row keeps it: no term underflows, and a sum above the float range reads
    inf, without numpy's overflow warning (whose error state is entered only
    when a ``top`` above ``_HUGE / n^{1/p}`` lets the norm, at most
    ``n^{1/p} top``, overflow, or when no ``top`` is given)."""
    def plain(w):
        return w.sum(axis=-1) if p == 1.0 else (w**p).sum(axis=-1) ** (1.0 / p)

    if p <= 1.0:
        if top is not None and _within(top, 0.0, _HUGE / v.shape[-1] ** (1.0 / p)):
            return plain(v)
        with np.errstate(over="ignore"):
            return plain(v)
    top = v.max(axis=-1) if top is None else top
    if p == INF:
        return top
    lo, hi = _SUM_LO ** (1.0 / p), (_HUGE / v.shape[-1]) ** (1.0 / p)
    if _within(top, lo, hi):
        return plain(v)
    ok = (top >= lo) & (top <= hi)
    # Ones stand in for the rescaled rows, whose plain powers would overflow.
    return np.where(ok, plain(np.where(ok[..., None], v, 1.0)), _top_scaled(plain, v, top))


def _schatten(x: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norms over the last two axes of a matrix or stack:
    ``_frobenius`` at p = 2, else ``_lp_sum`` of the singular values."""
    if p == 2.0:
        return _frobenius(x)
    s = np.linalg.svd(x, compute_uv=False)
    return _lp_sum(s, p, s[..., 0])


def _attaining(a: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """Exact induced lp norm of ``a`` for p in {1, 2, inf}, and the unit
    vectors (rows) attaining it within 1e-8 relative, best first.

    Those are the top right-singular cluster (p = 2), the basis vectors of
    the columns with top absolute sum (p = 1), and the conjugate phases of
    the rows with top absolute sum (p = inf; 1 where an entry is 0).  A
    norm above the float range raises ``ValueError``.
    """
    with np.errstate(over="ignore"):  # a column or row sum above the float range is inf
        if p == 2:
            f = cmatrix.svd(a)
            sums, vecs = f.singular_values, f.v.T
        elif p == 1:
            sums, vecs = np.abs(a).sum(axis=0), np.eye(a.shape[1], dtype=complex)
        else:
            mod = np.abs(a)
            sums = mod.sum(axis=1)
            vecs = np.where(mod > 0, np.conj(a) / np.maximum(mod, 1e-300), 1.0)
    order = np.argsort(-sums, kind="stable")
    top = float(sums[order[0]])
    if not math.isfinite(top):
        raise ValueError(f"induced norm evaluated to {top} at p={p}")
    return top, vecs[order[sums[order] >= top * (1.0 - 1e-8)]]


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
    steps; the earliest start wins ties.  Overflow is left silent: callers
    reject a norm of inf or NaN.
    """
    k, _, m = stack.shape
    starts = _lp_normalize(np.concatenate([np.eye(m), sphere_starts(m, 64, 0)]), p)
    s = len(starts)
    # Row r runs start r % s on matrix r // s; the rows still gaining are
    # compacted into ``ids``, ``ya`` (= Ax), ``va`` and their matrices ``aa``.
    x, aa = np.tile(starts, (k, 1)), np.repeat(stack, s, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        ya = (aa @ x[..., None])[..., 0]
        v = _lp_sum(np.abs(ya), p)
        ids = np.flatnonzero(np.isfinite(v))  # rows off to inf or NaN take no step
        ya, va, aa = ya[ids], v[ids], aa[ids]
        for _ in range(1000):
            if ids.size == 0:
                break
            z = _signed_power(ya, p - 1.0)
            g = (np.conj(z)[:, None, :] @ aa)[:, 0].conj()  # A* z = conj(z* A)
            xn = _lp_normalize(_signed_power(g, 1.0 / (p - 1.0)), p)
            yn = (aa @ xn[..., None])[..., 0]
            vn = _lp_sum(np.abs(yn), p)
            up, keep = vn > va, vn > va * (1.0 + 1e-15)
            x[ids[up]], v[ids[up]] = xn[up], vn[up]
            ids, ya, va, aa = ids[keep], yn[keep], vn[keep], aa[keep]
    best = np.arange(k) * s + np.argmax(v.reshape(k, s), axis=1)
    return v[best], x[best]


def induced_norm(a, p) -> RadiusResult:
    """Operator norm induced by the vector lp norm, with a witness.

    Exact at p in {1, 2, inf}, with the first attaining vector of
    ``_attaining`` as witness (top column, top right-singular vector, phases
    of the top row).  Otherwise the power iteration ``_induced_power``; the
    value is attained at the witness, so it is a certified lower bound, and
    it is the exact norm whenever one start reaches the basin of a global
    maximizer.  A norm above the float range raises ``ValueError``.
    """
    a = cmatrix.as_matrix(a)
    p = _exponent(p, "[1, inf]", "induced norm")
    if p in (1, 2, INF):
        val, xs = _attaining(a, p)
        return RadiusResult(val, xs[0], 1e-12 * val)
    (val,), (x,) = _induced_power(a[None], p)  # _lp_sum reads an overflow as inf
    if not math.isfinite(val):
        raise ValueError(f"induced norm evaluated to {val} at p={p}")
    return RadiusResult(float(val), x, 1e-8 * val)


def evaluator(spec: NormSpec):
    """Resolve ``spec`` once into ``(batch, scalar, exact)``.

    ``batch``, the norm's one closure, reduces the last axis (vectors) or two
    (matrices): one operand gives a 0-d value, a (k, n) or (k, n, m) stack
    its k norms.  ``scalar`` is ``float(batch(x))``.  A non-finite value, of
    any stack member, raises ``ValueError`` in both, so it never reaches a
    search or a verdict; so does a failed SVD (numpy's ``LinAlgError``), as
    on a NaN member.  Both take complex128 operands the caller has validated
    (``cmatrix.as_pair``), so hot loops such as ``a + gamma b`` skip
    validation.  ``exact`` is False only for generic induced p, whose values
    are power-iteration bounds.

    Schatten norms read the singular values alone, except at p = 2, where
    ``_frobenius`` sums the squared entries; induced p = 1 (inf) the largest
    column (row) sum; generic induced p runs ``_induced_power`` on the whole
    stack.
    """
    p = spec.p
    exact = True
    if spec.kind == "schatten":
        def norm(x):
            return _schatten(x, p)
    elif spec.is_vector:
        def norm(x):
            return _lp_sum(np.abs(x), p)
    elif p in (1, INF):
        axis = -2 if p == 1 else -1

        def norm(x):
            return np.abs(x).sum(axis=axis).max(axis=-1)
    else:
        exact = False

        def norm(x):
            return _induced_power(x.reshape((-1,) + x.shape[-2:]), p)[0].reshape(x.shape[:-2])

    def batch(x):
        v = norm(x)
        if not np.isfinite(v).all():
            raise _not_finite(v, x, spec)
        return v

    def scalar(m):  # the same test, cheaper on one value
        v = float(norm(m))
        if not math.isfinite(v):
            raise _not_finite(v, m, spec)
        return v

    return batch, scalar, exact


def _not_finite(v, x: np.ndarray, spec: NormSpec) -> ValueError:
    """The error for norms ``v`` of ``x`` that are not all finite.

    A member with an entry of modulus inf or NaN (such as an overflowed
    pencil ``a + gamma b``) has a norm above the float range, whatever the
    SVD made of it (NaN singular values), since every norm here is at least
    each entry's modulus.  Otherwise the largest value is reported (norms
    are >= 0: it is NaN or inf).
    """
    with np.errstate(over="ignore"):  # an entry's modulus may overflow
        top = INF if not np.isfinite(np.abs(x)).all() else np.max(v)
    tail = " (above the float range)" if top == INF else ""
    return ValueError(f"norm evaluated to {top} under {spec}{tail}")


def _cut_oracle(spec: NormSpec, d: np.ndarray):
    """Resolve ``spec`` and a validated direction ``d`` once into ``cut``.

    ``cut(x)`` takes a validated (k,) + ``d.shape`` stack of members X and
    returns their norms and the slopes ``phi_X(d)``, with ``phi_X`` a norming
    functional of X: ``phi_X(X) = ||X||`` and dual norm at most 1.  So
    ``||X + delta d|| >= ||X|| + Re(delta phi_X(d))`` for every complex
    ``delta``: each member of a pencil ``X = a + gamma d`` gives a cut
    (a supporting plane) of ``gamma -> ||a + gamma d||``.

    Each exact norm here is the lq sum of a row of moduli, each paired with d:

    * the singular values (thin SVD ``X = U S V*``) with ``(U* d V)_rr``:
      Schatten p != 2, q = p (the operator norm at q = inf);
    * the column (induced 1) or row (induced inf) sums of ``|X|`` with the
      same sums of ``conj(sign X) d``, q = inf;
    * the entries' moduli with ``conj(sign x) d``: vector lp, q = p, and
      Frobenius, q = 2.

    ``phi_X(d)`` is the lq duality map on the pairings: their sum at q = 1
    (``U V*`` norms X at any rank), weighted by ``(mod / ||mod||_q)^{q-1}``
    at 1 < q < inf, and the top modulus's pairing (the first on ties) at
    q = inf.  The singular values come sorted, so under the operator norm
    the producer hands over the top one alone, with its pairing, and no
    ``argmax`` is needed.  A zero member gets the zero functional.  ``d`` is read as
    ``2^e du``, with the parts of ``du`` below 2 (``cmatrix._unit_parts``):
    exact, and no product with it overflows; a slope is at most ``||d||`` in
    modulus.  A non-finite norm raises ``ValueError``, as the evaluator
    does; a Schatten quasi-norm (p < 1) has no norming functional, and
    generic induced p no exact one: both raise at once.
    """
    p = spec.p
    if spec.kind == "induced_lp" and p not in (1, INF) or p < 1.0:
        raise ValueError(f"no exact norming functional under {spec}")
    du, e = cmatrix._unit_parts(d.reshape(1, -1))
    du, factor = 2.0 * du.reshape(d.shape), math.ldexp(1.0, int(e) - 1)
    dc = du.conj()
    tiny = float(np.finfo(float).tiny)

    def moduli_and_pairings(x):  # (moduli, pairings, q), one row per member
        if spec.kind == "schatten" and p != 2.0:
            u, s, vh = np.linalg.svd(x, full_matrices=False)
            if p == INF:  # sorted: the top, first, is the one the rule reads
                top = np.einsum("ki,ij,kj->k", u[..., 0], dc, vh[:, 0]).conj()
                return s[:, :1], top[:, None], p
            return s, np.einsum("kir,ij,krj->kr", u, dc, vh).conj(), p
        ax = np.abs(x)
        terms = x.conj() / np.maximum(ax, tiny) * du  # 0 where X is 0
        if spec.kind == "induced_lp":
            axis = -2 if p == 1 else -1
            return ax.sum(axis=axis), terms.sum(axis=axis), INF
        return ax.reshape(len(x), -1), terms.reshape(len(x), -1), p

    def cut(x):
        mod, pairs, q = moduli_and_pairings(x)
        if q == INF:
            if mod.shape[-1] == 1:  # the top alone
                nrm, slopes = mod[:, 0], pairs[:, 0]
            else:
                top = np.arange(len(x)), mod.argmax(axis=-1)
                nrm, slopes = mod[top], pairs[top]
        else:
            nrm = _lp_sum(mod, q)
            if q > 1.0:  # a zero row's moduli are 0, over any positive norm
                pairs = pairs * (mod / np.where(nrm > 0, nrm, 1.0)[:, None]) ** (q - 1.0)
            slopes = pairs.sum(axis=-1)
        if not _within(nrm, math.ulp(0.0), _HUGE):  # a zero or non-finite member
            if not np.isfinite(nrm).all():
                raise _not_finite(nrm, x, spec)
            slopes = np.where(nrm > 0, slopes, 0.0)
        return nrm, slopes * factor

    return cut


def norm_value(operand, spec: NormSpec) -> float:
    """Norm of a matrix or vector operand under ``spec``; a non-finite value
    raises ``ValueError``."""
    x = cmatrix.as_vector(operand) if spec.is_vector else cmatrix.as_matrix(operand)
    return evaluator(spec)[1](x)


def norm_value_batch(stack: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Norms of a (k, n, m) stack of matrices or (k, n) of vectors; raises if one is not finite."""
    return evaluator(spec)[0](stack)


def numerical_radius_hilbert(a) -> RadiusResult:
    """Numerical radius sup over unit x of ``|<Ax, x>|`` in the l2 inner product.

    Maximizes the top eigenvalue of the Hermitian parts ``Re(e^{i theta} A)``
    with ``search.circle_max``: a 1024-point phase grid searched coarse to
    fine from every 32nd phase with ``F(0) = 0`` (the top eigenvalue of
    ``Re(z A)`` is sublinear in ``z``, so arcs whose bound falls below the
    best value are skipped), then golden section with Brent's parabolic
    steps on the best window to 1e-10.  The witness is the top eigenvector
    at the optimal phase.
    """
    a = cmatrix.as_square(a)
    ah = a.conj().T

    def top(thetas):  # one phase or an array of them
        phases = np.exp(1j * np.asarray(thetas))[..., None, None]
        return np.linalg.eigvalsh(0.5 * (phases * a + np.conj(phases) * ah))[..., -1]

    t_star, value = circle_max(top, lambda t: float(top(t)), grid=1024, windows=1,
                               tol=1e-10, origin=0.0)
    h = 0.5 * (np.exp(1j * t_star) * a + np.exp(-1j * t_star) * ah)
    witness = np.linalg.eigh(h)[1][:, -1]
    return RadiusResult(float(value), witness, 1e-10 * value)


def _lp_radius_terms(a: np.ndarray, x: np.ndarray, p: float):
    """Functional value F(x) = sum_i conj(x_i)|x_i|^{p-2}(Ax)_i on the lp sphere.

    ``x`` is a vector or a (k, n) stack of rows; returns F per row together
    with ``Ax``, ``|x|`` and the functional's coefficients ``u``.
    """
    y = x @ a.T
    ax = np.abs(x)
    u = np.where(ax > 0, np.conj(x) * np.maximum(ax, 1e-300) ** (p - 2), 0.0)
    return (u * y).sum(axis=-1), y, ax, u


def numerical_radius_banach(a, p) -> RadiusResult:
    """Numerical radius on lp^n, 1 < p < inf.

    For unit ``x`` the unique norming functional of lp^n evaluates to
    ``x*(y) = sum_i conj(x_i) |x_i|^{p-2} y_i``; the radius is the sup of
    ``|x*(Ax)|`` over the complex lp sphere, located by seeded multistart
    projected ascent with backtracking (value is a certified lower bound).
    The ascent runs on ``a / 2^e``, ``2^e`` the power of two above the largest
    part of an entry: exact, so its products neither overflow nor underflow.
    """
    a, e = cmatrix._unit_parts(cmatrix.as_square(a))
    p = _exponent(p, "(1, inf)", "lp numerical radius")
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

    val, x = multistart_ascent(value, grad, p, n,
                               extra_starts=list(np.eye(n, dtype=complex)))
    with np.errstate(over="ignore"):
        val = float(np.ldexp(val, e))
    if not math.isfinite(val):
        raise ValueError(f"lp numerical radius evaluated to {val} at p={p}")
    return RadiusResult(val, x, 1e-8 * val)
