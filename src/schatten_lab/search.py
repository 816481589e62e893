"""Search helpers shared by the norm and predicate modules.

Three optimization shapes recur across the package:

* maximize a continuous function of a unimodular phase (parallelism,
  numerical radius) -- dense grid plus golden-section refinement;
* minimize a convex function over a complex scalar (Birkhoff-James
  orthogonality) -- 16x16 polar grid evaluated in one batch, then an
  in-repo two-dimensional Nelder-Mead refinement (no SciPy dependency);
* maximize a functional over the unit lp sphere (induced norms, Banach
  radius) -- seeded multistart gradient ascent, all starts advancing
  together as one (k, n) stack, so its callbacks take a stack of rows and
  return per-row values or gradients; norm attainment sets use a
  gradient-free, one-start-at-a-time hill climb.  Both take the exponent p
  and keep their points on the sphere with ``_lp_normalize``, the package's
  one lp normalization.

Every routine is deterministic for a fixed seed; multistart reductions keep
the earliest start on ties so results do not depend on iteration order.
"""

from __future__ import annotations

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

TWO_PI = 2.0 * np.pi


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12,
                       max_iter: int = 200) -> tuple[float, float]:
    """Maximize ``f`` on ``[lo, hi]`` by golden-section; returns (x, f(x)).

    Tracks the best evaluated point, so the result never falls below the
    value at any probe even when ``f`` is flat or multimodal on the bracket.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    if fc >= fd:
        best_x, best_v = c, fc
    else:
        best_x, best_v = d, fd
    for _ in range(max_iter):
        if (b - a) <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc > best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd > best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def circle_max(f_batch, f_scalar, grid: int = 720, windows: int = 3,
               tol: float = 1e-12) -> tuple[float, float]:
    """Maximize ``theta -> f(theta)`` over [0, 2pi).

    ``f_batch`` evaluates an array of angles at once; ``f_scalar`` a single
    angle.  The top ``windows`` circular local maxima of the grid are each
    refined by golden-section over one grid spacing on either side.
    """
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    vals = np.asarray(f_batch(thetas), dtype=float)
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    local = np.nonzero((vals >= left) & (vals >= right))[0]
    if local.size == 0:
        local = np.array([int(np.argmax(vals))])
    order = local[np.argsort(vals[local])[::-1]]
    delta = TWO_PI / grid
    k0 = int(np.argmax(vals))
    best_t, best_v = float(thetas[k0]), float(vals[k0])
    for k in order[:windows]:
        t, v = golden_section_max(f_scalar, thetas[k] - delta, thetas[k] + delta, tol)
        if v > best_v:
            best_t, best_v = t, v
    return best_t % TWO_PI, best_v


def gamma_min(f_batch, f_scalar, radius: float, grid_r: int = 16,
              grid_t: int = 16) -> tuple[complex, float]:
    """Minimize a convex ``gamma -> f(gamma)`` over the complex plane.

    Coarse polar grid out to ``radius`` (origin plus ``grid_r`` rings of
    ``grid_t`` angles, 257 points by default), then Nelder-Mead from the best
    grid point on an initial simplex of one ring spacing.  Convexity makes
    the refined local minimum global, so the grid only needs to land in the
    right basin.
    """
    radii = radius * np.arange(1, grid_r + 1) / grid_r
    angles = np.linspace(0.0, TWO_PI, grid_t, endpoint=False)
    gammas = np.concatenate(
        [[0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()]
    )
    vals = np.asarray(f_batch(gammas), dtype=float)
    k = int(np.argmin(vals))
    g0, v0 = complex(gammas[k]), float(vals[k])

    h = max(radius / grid_r, 1e-12)
    g, v = nelder_mead_complex(
        f_scalar, g0, h,
        xatol=1e-10 * (1.0 + radius),
        fatol=1e-13 * (1.0 + abs(v0)),
        maxfev=800,
    )
    if v < v0:
        return g, v
    return g0, v0


class _BudgetSpent(Exception):
    """Raised inside ``nelder_mead_complex`` when ``maxfev`` is reached."""


def nelder_mead_complex(f, g0: complex, h: float, *, xatol: float, fatol: float,
                        maxfev: int) -> tuple[complex, float]:
    """Nelder-Mead minimization of ``f`` over the complex plane as R^2.

    Standard non-adaptive coefficients (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) on the initial simplex ``g0, g0 + h,
    g0 + ih``.  Stops once every vertex lies within ``xatol`` of the best in
    each coordinate and every value within ``fatol`` of the best, or when
    ``maxfev`` evaluations of ``f`` are spent; a step cut short by the
    budget is discarded.  Returns the best vertex and its value.
    """
    nfev = 0

    def value(pt):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(f(complex(pt[0], pt[1])))

    def ordered(sim, fsim):
        idx = sorted(range(3), key=fsim.__getitem__)
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    def along(t):
        # Point on the line from the worst vertex (t=0) through the centroid
        # of the other two (t=1), for the current iteration's simplex.
        return (t * cx + (1 - t) * wx, t * cy + (1 - t) * wy)

    x0, y0 = g0.real, g0.imag
    sim = [(x0, y0), (x0 + h, y0), (x0, y0 + h)]
    fsim = [value(pt) for pt in sim]
    sim, fsim = ordered(sim, fsim)
    try:
        while True:
            (bx, by), (mx, my), (wx, wy) = sim
            if (max(abs(mx - bx), abs(my - by), abs(wx - bx), abs(wy - by)) <= xatol
                    and max(abs(fsim[0] - fsim[1]), abs(fsim[0] - fsim[2])) <= fatol):
                break
            cx, cy = (bx + mx) / 2, (by + my) / 2
            xr = along(2.0)
            fr = value(xr)
            if fr < fsim[0]:
                xe = along(3.0)
                fe = value(xe)
                sim[2], fsim[2] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fsim[1]:
                sim[2], fsim[2] = xr, fr
            else:
                if fr < fsim[2]:
                    xc = along(1.5)
                    fc = value(xc)
                    accept = fc <= fr
                else:
                    xc = along(0.5)
                    fc = value(xc)
                    accept = fc < fsim[2]
                if accept:
                    sim[2], fsim[2] = xc, fc
                else:
                    # Shrink the other two vertices halfway toward the best.
                    moved = [(bx + 0.5 * (px - bx), by + 0.5 * (py - by))
                             for px, py in sim[1:]]
                    fmoved = [value(pt) for pt in moved]
                    sim[1:], fsim[1:] = moved, fmoved
            sim, fsim = ordered(sim, fsim)
    except _BudgetSpent:
        pass
    (bx, by), fb = sim[0], fsim[0]
    return complex(bx, by), fb


def sphere_starts(n: int, count: int, seed: int, real: bool = False) -> np.ndarray:
    """Deterministic batch of random directions in R^n or C^n (unnormalized)."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed, n, count]))
    if real:
        return rng.standard_normal((count, n)) + 0j
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def _lp_normalize(x, p: float) -> np.ndarray:
    """Scale a vector, or each row of a (k, n) stack, onto the unit lp sphere.

    A (numerically) zero vector is replaced by the normalized all-ones vector.
    """
    x = np.asarray(x, dtype=complex)
    nrm = (np.abs(x) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
    zero = nrm < 1e-300
    if zero.any():
        x = np.where(zero, 1.0 + 0j, x)
        nrm = np.where(zero, float(x.shape[-1]) ** (1.0 / p), nrm)
    return x / nrm


def _tangent(g: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """The rows of ``g`` less their component along the lp sphere's normal.

    At a row ``x`` of the sphere the normal is ``|x|^{p-1} x / |x|`` (0 where
    ``x_i = 0``); the component is taken in the real inner product
    ``Re <u, v>``.
    """
    ax = np.abs(x)
    normal = ax ** (p - 1.0) * (x / np.maximum(ax, 1e-300))
    along = (normal.conj() * g).real.sum(axis=-1) / (ax ** (2.0 * p - 2.0)).sum(axis=-1)
    return g - along[:, None] * normal


def multistart_ascent(value_fn, grad_fn, p: float, n: int, *, starts: int = 64,
                      max_steps: int = 500, seed: int = 0, real: bool = False,
                      extra_starts=None) -> tuple[float, np.ndarray]:
    """Gradient ascent with backtracking over the unit lp sphere of C^n.

    All starts advance together as one (k, n) stack: ``extra_starts`` first,
    then ``sphere_starts``, each scaled onto the sphere.  Each callback
    receives a (k, n) stack of rows on the sphere; ``value_fn`` returns the k
    values and ``grad_fn`` the k ascent directions (Wirtinger gradients with
    respect to conj(x) for complex problems).  Only rows still searching are
    passed.  Each step moves along the part of the gradient tangent to the
    sphere (``_tangent``) and maps the result back onto it.  Per start: a
    step is accepted only if it improves the value; an accepted step doubles
    (capped at 1), a rejected one halves (at most 60 times); a start stops
    on a non-finite gradient, once the tangent part falls to ``1e-8`` of the
    gradient (a critical point on the sphere), when backtracking fails, or
    after 3 consecutive gains below ``1e-14 |v|``.  The best start wins,
    ties resolved in favor of the earliest start index.
    """
    x = sphere_starts(n, starts, seed, real)
    if extra_starts is not None:
        x = np.concatenate([np.asarray(extra_starts, dtype=complex).reshape(-1, n), x])
    x = _lp_normalize(x, p)
    v = np.asarray(value_fn(x), dtype=float)
    # The rows still ascending, compacted: start index, point, value, step, stalls.
    ids, xa, va = np.arange(len(v)), x.copy(), v.copy()
    step, stall = np.full(len(v), 0.5), np.zeros(len(v), dtype=int)

    def keep_only(keep):
        # Write the rows that stop back into x, v and drop them from the stack.
        nonlocal ids, xa, va, step, stall
        gone = ~keep
        x[ids[gone]], v[ids[gone]] = xa[gone], va[gone]
        ids, xa, va, step, stall = ids[keep], xa[keep], va[keep], step[keep], stall[keep]

    for _ in range(max_steps):
        if ids.size == 0:
            break
        g = grad_fn(xa)
        gn = np.sqrt((g.conj() * g).real.sum(axis=1))
        ok = np.isfinite(gn)
        # Non-finite rows stop anyway; zeroing them keeps the projection quiet.
        t = _tangent(np.where(ok[:, None], g, 0.0), xa, p)
        tn = np.sqrt((t.conj() * t).real.sum(axis=1))
        ok &= tn > 1e-8 * gn
        if not ok.all():
            keep_only(ok)
            t, tn = t[ok], tn[ok]
            if ids.size == 0:
                break
        v0 = va.copy()
        # Backtrack on the rows still searching (positions ``pos`` of the
        # active rows), compacted as they accept.
        pos, xr, vr, dr, sr = np.arange(ids.size), xa, v0, t / tn[:, None], step
        for _ in range(60):
            xn = _lp_normalize(xr + sr[:, None] * dr, p)
            vn = np.asarray(value_fn(xn), dtype=float)
            up = vn > vr
            if up.any():
                won = pos[up]
                xa[won], va[won] = xn[up], vn[up]
                step[won] = np.minimum(2.0 * sr[up], 1.0)
                keep = ~up
                pos, xr, vr, dr, sr = pos[keep], xr[keep], vr[keep], dr[keep], sr[keep]
                if pos.size == 0:
                    break
            sr = 0.5 * sr
        gained = va - v0
        stall = np.where(gained <= 1e-14 * np.maximum(np.abs(va), 1e-300), stall + 1, 0)
        keep = (gained > 0.0) & (stall < 3)
        if not keep.all():
            keep_only(keep)
    keep_only(np.zeros(ids.size, dtype=bool))  # rows still ascending at max_steps
    best = int(np.argmax(np.where(np.isnan(v), -np.inf, v)))
    return float(v[best]), x[best]


def hill_climb(value_fn, p: float, n: int, *, starts: int = 64, rounds: int = 64,
               proposals: int = 8, seed: int = 0, real: bool = False,
               extra_starts=None) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Gradient-free random-direction ascent over the unit lp sphere of C^n.

    Shrinking step scales; at each scale a fixed budget of random directions
    is proposed and improvements accepted.  Returns the best value, the best
    point, and the limit point of every start (for attainment-set sampling).
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xC11B, seed, n]))
    pts = list(sphere_starts(n, starts, seed, real))
    if extra_starts is not None:
        pts = [np.asarray(e, dtype=complex) for e in extra_starts] + pts
    limits = []
    best_v = -np.inf
    best_x = None
    for x0 in pts:
        x = _lp_normalize(x0, p)
        v = value_fn(x)
        step = 1.0
        for _ in range(rounds):
            improved = False
            for _ in range(proposals):
                if real:
                    d = rng.standard_normal(n) + 0j
                else:
                    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                xn = _lp_normalize(x + step * d, p)
                vn = value_fn(xn)
                if vn > v:
                    x, v = xn, vn
                    improved = True
            if not improved:
                step *= 0.5
                if step < 1e-10:
                    break
        limits.append(x)
        if v > best_v:
            best_v, best_x = v, x
    return float(best_v), best_x, limits
