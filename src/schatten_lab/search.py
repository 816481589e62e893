"""Search helpers shared by the norm and predicate modules.

Three optimization shapes recur across the package:

* maximize a continuous function of a unimodular phase (parallelism, l2
  numerical radius) -- ``circle_max``, a phase grid searched coarse to fine
  from every 32nd angle (arcs whose convexity bound, from the objective's
  value F(0) at the circle's centre, cannot reach the best value so far are
  skipped; the whole grid without F(0)), plus golden section with Brent's
  parabolic steps on the best windows;
* minimize a convex function over a complex scalar (Birkhoff-James
  orthogonality) -- ``gamma_min``, a 16x16 polar grid evaluated ring by
  ring (a ray stops once its values rise: convexity keeps it rising), then,
  for a function its caller declares smooth, Newton steps on quadratic
  models fitted to batched six-point stencils, and otherwise, or where a
  model fails (a kink), an in-repo two-dimensional Nelder-Mead (no SciPy
  dependency); every refinement tolerance is relative to the search radius
  or the grid minimum;
* maximize a functional over the unit lp sphere of C^n, with complex
  starts for real operands too (Banach radius, norm attainment sets) --
  seeded multistart gradient ascent, all starts advancing together as one
  (k, n) stack (its callbacks return per-row values or gradients), and a
  gradient-free hill climb, one start at a time.  Both keep their points on
  the sphere with ``_lp_normalize``, the package's one lp normalization.

Every routine is deterministic for a fixed seed; multistart reductions keep
the earliest start on ties so results do not depend on iteration order.
"""

from __future__ import annotations

import functools

import numpy as np

# The golden-section fraction 1 - 1/phi.
_CGOLD = (3.0 - np.sqrt(5.0)) / 2.0

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

TWO_PI = 2.0 * np.pi

# Relative slack on the circle search's arc bounds and on the rise that ends
# a ray of the gamma grid, far above their rounding.
_MARGIN = 1e-12


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Maximize ``f`` on ``[lo, hi]``; returns (x, f(x)) at the best probe.

    Golden section with Brent's parabolic steps (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 5; the ``fmin``/``fminbound``
    scheme): a parabola through the three best points (x, w, v) proposes the
    next probe, and a golden-section step replaces it when it leaves the
    bracket or fails to halve the step before last.  No probe lies closer
    than ``tol / 4`` to x.  Stops once the bracket is within ``tol``, or
    within ``sqrt(eps)`` while x, w and v agree in value to ``8 eps |f(x)|``
    (a smooth peak resolved to rounding; at a kink they keep differing), or
    after 200 steps.  x is the best evaluated point, so the result never
    falls below the value at any probe even when ``f`` is flat or
    multimodal on the bracket.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    tol1 = tol / 4.0
    for _ in range(200):
        if b - a <= tol:
            break
        if (b - a <= _SQRT_EPS
                and max(abs(fx - fw), abs(fx - fv)) <= 8.0 * _EPS * abs(fx)):
            break
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            # The vertex of the parabola through (x, fx), (w, fw), (v, fv)
            # is x + p / q.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if x < m else -tol1
        if golden:
            e = (a - x) if x >= m else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _arc_bound(m, steps, grid: int, origin: float):
    """Upper bound on ``F(e^{i theta})`` over an arc of ``steps`` grid spacings
    whose larger endpoint value is ``m``.

    A point of the arc is ``t w`` with ``w`` on the chord and
    ``1 <= t <= r = 1/cos(pi steps / grid)``; convexity bounds ``F(w)`` by
    ``m``, and ``F(t w) <= t F(w) + (t - 1) F(0)`` when ``F`` is a convex
    norm expression (``F(0) = ||a||``) or sublinear (``F(0) = 0``).
    """
    r = 1.0 / np.cos(np.pi * steps / grid)
    return m + (r - 1.0) * (np.maximum(m, 0.0) + origin)


@functools.lru_cache(maxsize=8)
def _grid_angles(grid: int) -> np.ndarray:
    """The ``grid`` equally spaced angles of [0, 2pi), built once per size
    (the package uses three: 96, 720 and 1024) and read-only."""
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    thetas.flags.writeable = False
    return thetas


def circle_max(f_batch, f_scalar, grid: int = 720, windows: int = 3,
               tol: float = 1e-12, origin: float | None = None) -> tuple[float, float]:
    """Maximize ``theta -> f(theta)`` over [0, 2pi).

    ``f_batch`` evaluates an array of angles at once; ``f_scalar`` a single
    angle.  With ``origin`` None the whole ``grid`` is one batch.  Given
    ``origin = F(0)`` of an objective ``F(e^{i theta})`` that ``_arc_bound``
    holds for, the grid is searched coarse to fine: every 32nd point (every
    8th on a grid under 256, so that arcs stay well under a half circle),
    then, level by level, the midpoint of every arc whose bound reaches the
    best value so far, less a relative ``_MARGIN`` so rounding never prunes
    a tie.  Skipped points cannot beat the grid maximum, so it is the full
    grid's.  The top ``windows`` circular local maxima (among points
    evaluated with both neighbours) are each refined by
    ``golden_section_max`` (golden section with Brent's parabolic steps)
    over one spacing on either side, skipping, with an ``origin``, those
    whose one-spacing bound is below the grid maximum.
    """
    thetas = _grid_angles(grid)
    vals = np.full(grid, -np.inf)
    seen = np.zeros(grid, dtype=bool)
    # The bound needs arcs well under a half circle; small grids run whole.
    if origin is None or grid < 32:
        step = 1
    else:
        step = 32 if grid >= 256 else 8
    idx = np.arange(0, grid, step)
    lo, hi = idx, np.append(idx[1:], grid)  # arcs [lo, hi]; index grid is 0
    while idx.size:
        vals[idx] = f_batch(thetas[idx])
        seen[idx] = True
        wide = hi - lo > 1
        lo, hi = lo[wide], hi[wide]
        if lo.size:
            best = vals.max()
            ub = _arc_bound(np.maximum(vals[lo], vals[hi % grid]), hi - lo, grid, origin)
            live = ub >= best - _MARGIN * abs(best)
            lo, hi = lo[live], hi[live]
        idx = (lo + hi) // 2
        lo, hi = np.concatenate([lo, idx]), np.concatenate([idx, hi])
    # Circular local maxima among the evaluated points with both neighbours.
    ks = np.flatnonzero(seen)
    left, right = (ks - 1) % grid, (ks + 1) % grid
    inner = seen[left] & seen[right]
    ks, left, right = ks[inner], left[inner], right[inner]
    local = ks[(vals[ks] >= vals[left]) & (vals[ks] >= vals[right])]
    if local.size == 0:
        local = np.array([int(np.argmax(vals))])
    order = local[np.argsort(vals[local])[::-1]]
    delta = TWO_PI / grid
    k0 = int(np.argmax(vals))
    best_t, best_v = float(thetas[k0]), float(vals[k0])
    floor = best_v - _MARGIN * abs(best_v)
    for k in order[:windows]:
        if origin is not None and _arc_bound(vals[k], 1, grid, origin) < floor:
            continue
        t, v = golden_section_max(f_scalar, thetas[k] - delta, thetas[k] + delta, tol)
        if v > best_v:
            best_t, best_v = t, v
    return best_t % TWO_PI, best_v


def gamma_min(f_batch, f_scalar, radius: float, smooth: bool = False) -> tuple[complex, float]:
    """Minimize a convex ``gamma -> f(gamma)`` over the complex plane.

    Coarse polar grid out to ``radius`` (origin plus 16 rings of 16 angles,
    257 points), evaluated ring by ring on the live rays; a ray (the origin
    its ring 0) dies once a ring's value exceeds the previous ring's by more
    than a relative ``_MARGIN``.  ``f`` is convex along the ray, so its later
    points lie above one evaluated and the grid minimum is the full grid's.
    A non-finite grid value raises ``ValueError``.  Then ``_refine`` from the
    best grid point: the quadratic-model Newton iteration when the caller
    declares ``f`` ``smooth`` (differentiable away from isolated points, as
    a Schatten or lp norm with 1 < p < inf is), Nelder-Mead otherwise and
    wherever the model fails.  Convexity makes the refined local minimum
    global, so the grid only needs to land in the right basin.
    """
    radii = radius * np.arange(1, 17) / 16
    angles = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    gammas = np.concatenate(
        [[0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()]
    )
    vals = np.full(gammas.size, np.inf)
    idx, last = np.arange(17), np.zeros(16, dtype=int)  # each live ray's newest point
    while idx.size:
        vals[idx] = _finite_values(f_batch, gammas[idx], "grid")
        ring = idx[-last.size:]
        last = ring[vals[ring] <= vals[last] + _MARGIN * np.abs(vals[last])]
        idx = last[last < gammas.size - 16] + 16
    k = int(np.argmin(vals))
    return _refine(f_batch, f_scalar, complex(gammas[k]), float(vals[k]), radius, smooth)


def _refine(f_batch, f_scalar, g0: complex, v0: float, radius: float,
            smooth: bool) -> tuple[complex, float]:
    """Refine ``gamma_min``'s grid minimum ``(g0, v0)``; never returns worse.

    Every tolerance is relative: positions to ``radius``, values to
    ``|v0|``, so scaling the problem scales the result.  A ``smooth`` ``f``
    runs ``_newton_min`` first, with the grid's ring spacing as its stencil
    spacing and values resolved to 1e-14 ``|v0|``; if its model converges,
    that is the result.  It sees the values scaled by the power of two that
    takes ``|v0|`` into [0.5, 1): exact, so no step changes, and no
    curvature overflows or underflows.  Otherwise Nelder-Mead (``xatol`` 1e-10 ``radius``,
    ``fatol`` 1e-13 ``|v0|``, 800 evaluations of ``f_scalar`` at most)
    continues from the best point so far, on a simplex of the last spacing.
    """
    g, v, h = g0, v0, radius / 16
    if smooth:
        s0, e = np.frexp(v0)  # v0 = s0 2^e exactly
        g, v, h, converged = _newton_min(lambda pts: np.ldexp(f_batch(pts), -e),
                                         g, float(s0), h, radius, 1e-14 * abs(float(s0)))
        v = float(np.ldexp(v, e))
        if converged:
            return g, v
    gn, vn = nelder_mead_complex(f_scalar, g, h, xatol=1e-10 * radius,
                                 fatol=1e-13 * abs(v0), maxfev=800)
    return (gn, vn) if vn < v else (g, v)


# Offsets of the quadratic model's stencil around its centre c, in units of
# the spacing h: c + h, c - h, c + ih, c - ih and the corner c + h + ih.
_STENCIL = np.array([1.0, -1.0, 1j, -1j, 1.0 + 1j])
_TRIAL = np.concatenate([[0.0], _STENCIL])


def _finite_values(f_batch, points, where: str) -> np.ndarray:
    """``f_batch(points)``; a non-finite value raises ``ValueError``."""
    vals = np.asarray(f_batch(points), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError(f"gamma_min: non-finite value on the {where}")
    return vals


def _newton_min(f_batch, g: complex, v: float, h: float, radius: float,
                ftol: float) -> tuple[complex, float, float, bool]:
    """Derivative-free Newton iteration for a smooth convex ``f`` from
    ``(g, v = f(g))``; returns the best point evaluated, its value, the last
    stencil spacing and whether the model converged.

    Each model is the quadratic through ``v`` and the values on the stencil
    ``g + h _STENCIL``: central differences give the gradient and the
    Hessian's diagonal, the corner the mixed term.  The Newton step of a
    positive definite model, cut to a trust radius (four spacings at first),
    is evaluated in one ``f_batch`` call together with the stencil around
    its end, whose spacing is the step's length (at least 1e-6 ``radius``,
    at most the current spacing).  If the best of those six points lowers
    the value it becomes the centre (a stencil point needs a stencil of its
    own, one more call) and the trust radius grows to twice the step;
    otherwise the trust radius shrinks to the minimum of the parabola along
    the step, 1/10 to 1/2 of it.

    Converged once the step is within 1e-10 ``radius``, or is rejected
    while the model's gain and the trial's loss are both within ``ftol``
    (the values cannot resolve it), on a stencil no wider than 1e-3 ``radius``: a wider
    stencil is narrowed to that and refitted first, because far from the
    minimum its differences can balance.  Not converged, so the caller hands
    over to Nelder-Mead, when three successive models are not positive
    definite though the spacing is quartered each time, when a step within
    1e-10 ``radius`` still promises a gain above ``ftol`` (a kink, such as
    the cone of a dependent pair), when the trust radius falls within
    1e-10 ``radius``, or after 50 models.  A non-finite stencil value raises
    ``ValueError``.
    """
    def stencil(c, h):
        return _finite_values(f_batch, c + h * _STENCIL, "stencil")

    xtol, hfine, hmin = 1e-10 * radius, 1e-3 * radius, 1e-6 * radius
    trust = 4.0 * h
    vals = stencil(g, h)
    indefinite = 0
    for _ in range(50):
        fx, fmx, fy, fmy, fxy = vals
        gx, gy = (fx - fmx) / (2.0 * h), (fy - fmy) / (2.0 * h)
        hxx, hyy = (fx - 2.0 * v + fmx) / h ** 2, (fy - 2.0 * v + fmy) / h ** 2
        hxy = (fxy - fx - fy + v) / h ** 2
        det = hxx * hyy - hxy * hxy
        if not (hxx > 0.0 and det > 0.0):
            indefinite += 1
            if indefinite == 3:
                break
            h /= 4.0
            vals = stencil(g, h)
            continue
        indefinite = 0
        d = complex(hxy * gy - hyy * gx, hxy * gx - hxx * gy) / det
        gain = -0.5 * (gx * d.real + gy * d.imag)  # the model's, at g + d
        step = abs(d)
        if step > xtol:
            if step > trust:
                d *= trust / step
                step = trust
            hn = min(h, max(step, hmin))
            pts = (g + d) + hn * _TRIAL
            out = _finite_values(f_batch, pts, "stencil")
            k = int(np.argmin(out))
            if out[k] < v:
                g, v, h = complex(pts[k]), float(out[k]), hn
                vals = out[1:] if k == 0 else stencil(g, h)
                trust = max(trust, 2.0 * step)
                continue
            if gain > ftol or out[0] - v > ftol:
                slope = gx * d.real + gy * d.imag
                curve = out[0] - v - slope
                t = -slope / (2.0 * curve) if curve > 0.0 else 0.5
                trust = min(max(t, 0.1), 0.5) * step
                if trust <= xtol:
                    break
                continue
        elif gain > ftol:
            break
        if h <= hfine:
            return g, v, h, True
        h = hfine
        vals = stencil(g, h)
    return g, v, h, False


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

    def vertex(x, y):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(f(complex(x, y))), x, y

    def ranked(*verts):
        # Best first; the sort is stable, so ties keep the order given.
        return sorted(verts, key=lambda v: v[0])

    x0, y0 = g0.real, g0.imag
    b, m, w = ranked(vertex(x0, y0), vertex(x0 + h, y0), vertex(x0, y0 + h))
    try:
        while True:
            (fb, bx, by), (fm, mx, my), (fw, wx, wy) = b, m, w
            if (max(abs(mx - bx), abs(my - by), abs(wx - bx), abs(wy - by)) <= xatol
                    and max(abs(fb - fm), abs(fb - fw)) <= fatol):
                break
            cx, cy = (bx + mx) / 2, (by + my) / 2
            # Points t c + (1 - t) w on the line from the worst vertex (t = 0)
            # through the centroid of the other two (t = 1): reflection t = 2,
            # expansion 3, outside contraction 3/2, inside contraction 1/2.
            new = r = vertex(2.0 * cx - wx, 2.0 * cy - wy)
            if r[0] < fb:
                e = vertex(3.0 * cx - 2.0 * wx, 3.0 * cy - 2.0 * wy)
                new = e if e[0] < r[0] else r
            elif r[0] >= fm:
                if r[0] < fw:
                    new = vertex(1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy)
                    accept = new[0] <= r[0]
                else:
                    new = vertex(0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy)
                    accept = new[0] < fw
                if not accept:
                    # Shrink the other two vertices halfway toward the best.
                    b, m, w = ranked(b, vertex(bx + 0.5 * (mx - bx), by + 0.5 * (my - by)),
                                     vertex(bx + 0.5 * (wx - bx), by + 0.5 * (wy - by)))
                    continue
            # Into the worst vertex's place, in rank: ties stay behind.
            if new[0] < fb:
                b, m, w = new, b, m
            elif new[0] < fm:
                m, w = new, m
            else:
                w = new
    except _BudgetSpent:
        pass
    return complex(b[1], b[2]), b[0]


def sphere_starts(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic batch of random directions in C^n (unnormalized)."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed, n, count]))
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
                      max_steps: int = 500, seed: int = 0,
                      extra_starts=None) -> tuple[float, np.ndarray]:
    """Gradient ascent with backtracking over the unit lp sphere of C^n.

    All starts advance together as one (k, n) stack: ``extra_starts`` first,
    then ``sphere_starts``, each scaled onto the sphere.  Each callback
    receives a (k, n) stack of rows on the sphere; ``value_fn`` returns the k
    values and ``grad_fn`` the k ascent directions (Wirtinger gradients with
    respect to conj(x)).  Only rows still searching are passed.  Each step
    moves along the part of the gradient tangent to the sphere
    (``_tangent``) and maps the result back onto it.  Per start: a
    step is accepted only if it improves the value; an accepted step doubles
    (capped at 1), a rejected one halves (at most 60 times); a start stops
    on a non-finite gradient, once the tangent part falls to ``1e-8`` of the
    gradient (a critical point on the sphere), when backtracking fails, or
    after 3 consecutive gains below ``1e-14 |v|``.  The best start wins,
    ties resolved in favor of the earliest start index.
    """
    x = sphere_starts(n, starts, seed)
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


def hill_climb(value_fn, p: float, n: int, *, seed: int = 0,
               extra_starts=None) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Gradient-free random-direction ascent over the unit lp sphere of C^n.

    ``extra_starts`` and then 64 ``sphere_starts`` each climb for at most 64
    rounds of 8 random proposals, halving the step after a round without
    gain.  Returns the best value, the best point, and the limit point of
    every start (for attainment-set sampling).
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xC11B, seed, n]))
    pts = list(sphere_starts(n, 64, seed))
    if extra_starts is not None:
        pts = [np.asarray(e, dtype=complex) for e in extra_starts] + pts
    limits = []
    best_v = -np.inf
    best_x = None
    for x0 in pts:
        x = _lp_normalize(x0, p)
        v = value_fn(x)
        step = 1.0
        for _ in range(64):
            improved = False
            for _ in range(8):
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
