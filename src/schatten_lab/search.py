"""Search helpers shared by the norm and predicate modules.

Three optimization shapes recur across the package:

* maximize a continuous function of a unimodular phase (parallelism, l2
  numerical radius) -- ``circle_max``, a phase grid searched coarse to fine
  from every 32nd angle (arcs whose convexity bound, from the objective's
  value F(0) at the circle's centre, cannot reach the best value so far are
  skipped; the whole grid without F(0)), plus golden section with Brent's
  parabolic steps on the best windows;
* minimize a convex function over a complex scalar (Birkhoff-James
  orthogonality) -- ``gamma_min``, from gamma = 0: for a function its
  caller declares smooth, Newton steps on quadratic models fitted to
  batched six-point stencils, and otherwise, or where a model fails (a
  kink), Kelley's cutting planes from the caller's subgradients, whose
  model minimum over a box is a certified lower bound (the master LP a
  dual simplex in plain floats; no SciPy dependency); every refinement
  tolerance is relative to the search radius or to the value at 0;
* maximize a functional over the unit lp sphere of C^n, with complex
  starts for real operands too (Banach radius, norm attainment sets) --
  seeded multistart gradient ascent, all starts advancing together as one
  (k, n) stack (its callbacks return per-row values or gradients), and a
  gradient-free hill climb, one start at a time.  Both keep their points on
  the sphere with ``_lp_normalize``, the package's one lp normalization.

Every routine is deterministic for a fixed seed; multistart reductions keep
the earliest start on ties so results do not depend on iteration order.
The routines take the objective's values as given: the predicates' norm
closures (``norms.evaluator``) raise ``ValueError`` on a non-finite one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The golden-section fraction 1 - 1/phi.
_CGOLD = (3.0 - np.sqrt(5.0)) / 2.0

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

TWO_PI = 2.0 * np.pi

# Relative slack on the circle search's arc bounds, far above their rounding.
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
    grid's, and its arcs' bounds keep both its neighbours evaluated.  The
    top ``windows`` circular local maxima (among points evaluated with both
    neighbours) are each refined by
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


def gamma_min(f_batch, f_scalar, radius: float, smooth: bool = False, *,
              cuts) -> tuple[complex, float, float | None]:
    """Minimize a convex, nonnegative ``gamma -> f(gamma)`` over the complex
    plane from gamma = 0; returns the minimizer found, its value, never
    above ``f(0)``, and a certified lower bound on the minimum (None where
    the Newton model converged).

    ``f(0)``, from one ``f_batch`` call, is the unit of every value
    tolerance, and ``radius`` of every position tolerance, so scaling the
    problem scales the result.  When the caller declares ``f`` ``smooth``
    (differentiable away from isolated points, as a Schatten or lp norm
    with 1 < p < inf is), ``_newton_min`` runs first, with stencil spacing
    ``radius / 16`` and values resolved to 1e-14 ``f(0)``; if its model
    converges, that is the result.  It sees the values scaled by the power
    of two that takes ``f(0)`` into [0.5, 1): exact, so no step changes,
    and no curvature overflows or underflows.  Otherwise, and wherever the
    model fails (one that is not positive definite hands over at once),
    Kelley's cutting planes (``_cutting_plane``) continue from the best
    point so far.  ``cuts`` maps an array of gammas to their
    values and slopes ``s``, each a cut ``f(gamma + delta) >= f(gamma) +
    Re(delta s)`` (``norms._cut_oracle``).  The cutting plane's lower bound
    holds where every minimizer lies in the box ``|Re gamma|, |Im gamma| <=
    radius``.
    """
    v0 = float(f_batch(np.zeros(1, dtype=complex))[0])
    g, v = 0j, v0
    if smooth:
        s0, e = np.frexp(v0)  # v0 = s0 2^e exactly
        g, v, converged = _newton_min(lambda pts: np.ldexp(f_batch(pts), -e),
                                         g, float(s0), radius / 16, radius, 1e-14 * float(s0))
        v = float(np.ldexp(v, e))
        if converged:
            return g, v, None
    return _cutting_plane(cuts, f_scalar, g, v, v0, radius)


# Offsets of the quadratic model's stencil around its centre c, in units of
# the spacing h: c + h, c - h, c + ih, c - ih and the corner c + h + ih.
_STENCIL = np.array([1.0, -1.0, 1j, -1j, 1.0 + 1j])
_TRIAL = np.concatenate([[0.0], _STENCIL])


def _newton_min(f_batch, g: complex, v: float, h: float, radius: float,
                ftol: float) -> tuple[complex, float, bool]:
    """Derivative-free Newton iteration for a smooth convex ``f`` from
    ``(g, v = f(g))``; returns the best point evaluated, its value and
    whether the model converged.

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
    over to the cutting plane, when a model is not positive definite (it
    offers no Newton step), when a step within
    1e-10 ``radius`` still promises a gain above ``ftol`` (a kink, such as
    the cone of a dependent pair), when the trust radius falls within
    1e-10 ``radius``, or after 50 models.
    """
    xtol, hfine, hmin = 1e-10 * radius, 1e-3 * radius, 1e-6 * radius
    trust = 4.0 * h
    vals = f_batch(g + h * _STENCIL)
    for _ in range(50):
        fx, fmx, fy, fmy, fxy = vals
        gx, gy = (fx - fmx) / (2.0 * h), (fy - fmy) / (2.0 * h)
        hxx, hyy = (fx - 2.0 * v + fmx) / h ** 2, (fy - 2.0 * v + fmy) / h ** 2
        hxy = (fxy - fx - fy + v) / h ** 2
        det = hxx * hyy - hxy * hxy
        if not (hxx > 0.0 and det > 0.0):
            break
        d = complex(hxy * gy - hyy * gx, hxy * gx - hxx * gy) / det
        gain = -0.5 * (gx * d.real + gy * d.imag)  # the model's, at g + d
        step = abs(d)
        if step > xtol:
            if step > trust:
                d *= trust / step
                step = trust
            hn = min(h, max(step, hmin))
            pts = (g + d) + hn * _TRIAL
            out = f_batch(pts)
            k = int(np.argmin(out))
            if out[k] < v:
                g, v, h = complex(pts[k]), float(out[k]), hn
                vals = out[1:] if k == 0 else f_batch(g + h * _STENCIL)
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
            return g, v, True
        h = hfine
        vals = f_batch(g + h * _STENCIL)
    return g, v, False


# The cutting plane's first cuts: its start and the eight points around it
# at radius / 16, along the axes and the diagonals.
_NINE = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / 16
# Its stopping gap, and the master's feasibility slack: both in units of
# f(0), so relative.  Where f is smooth at its minimum a value gap e leaves
# the position uncertain by about sqrt(e) (times the curvature's scale), so
# the gap is taken down to some 50 rounding units of the values, not just
# below the predicates' tolerance; the slack is below the gap, so the master
# never holds the bound back.
_CUT_GAP = 1e-14
_FEAS = 1e-15


def _cutting_plane(cuts, f_scalar, g: complex, v: float, scale: float,
                   radius: float) -> tuple[complex, float, float]:
    """Kelley's cutting-plane method (Kelley 1960, J. SIAM 8) for a convex,
    nonnegative ``f`` from ``(g, v = f(g))``; returns the best point, its
    value and a lower bound on the minimum of ``f`` over the box
    ``|Re gamma|, |Im gamma| <= radius``.

    It works in ``z = (gamma - g) / radius``, with values in units of
    ``scale`` (``gamma_min`` passes ``f(0)``), so every tolerance is
    relative.  The model is the maximum of the cuts ``f_k + Re((gamma -
    gamma_k) s_k)`` that ``cuts`` gives; its minimum over the box, from
    ``_CutModel``, is the lower bound, and its argmin is the next point.
    The first nine cuts, at ``g + _NINE radius``, come from one call.  Each
    later call evaluates one point, until the best value is within
    ``_CUT_GAP`` of the bound (floored at 0, as ``f`` is), or after 200
    points.  The best point is re-evaluated by ``f_scalar``, so its value is
    the evaluator's; if that is not below ``v``, ``(g, v)`` is returned.  A
    bound rounded above the value is lowered to it.
    """
    if scale == 0.0 or not math.isfinite(radius / scale):  # f >= 0 bounds a zero minimum
        return g, v, 0.0
    unit = radius / scale
    lo_x, hi_x = -1.0 - g.real / radius, 1.0 - g.real / radius
    lo_y, hi_y = -1.0 - g.imag / radius, 1.0 - g.imag / radius
    model = _CutModel(lo_x, hi_x, lo_y, hi_y)
    best, ub, lb = None, v / scale, -math.inf
    zs = _NINE.tolist()
    for _ in range(200):
        gammas = [g + radius * z for z in zs]
        vals, slopes = cuts(np.array(gammas))
        for z, gamma, f, s in zip(zs, gammas, vals.tolist(), slopes.tolist()):
            f, s = f / scale, s * unit
            model.add(z.real, z.imag, f, s.real, -s.imag)
            if f < ub:
                best, ub = gamma, f
        lb = max(lb, model.solve())
        if ub - max(lb, 0.0) <= _CUT_GAP:
            break
        # The argmin, kept in the box should the master stop with a row unmet.
        zs = [complex(min(max(model.x, lo_x), hi_x), min(max(model.y, lo_y), hi_y))]
    lower = max(lb, 0.0) * scale
    if best is not None:
        vb = f_scalar(best)
        if vb < v:
            return best, vb, min(lower, vb)
    return g, v, min(lower, v)


class _CutModel:
    """The master problem of ``_cutting_plane``: the linear program

        minimize t  subject to  lo_x <= x <= hi_x,  lo_y <= y <= hi_y,
                                t >= f_k + gx_k (x - x_k) + gy_k (y - y_k),

    solved by a warm-started dual simplex in plain floats (three variables
    do not repay numpy's call overhead).  Each row is ``a . (x, y, t) >= c``;
    the basis is three tight rows whose multipliers, the t components of the
    columns of the inverse basis, stay nonnegative, so every basic solution's
    t is a lower bound on the program's minimum.  The first cut opens at the
    box corner where it is lowest.  A pivot enters the most violated row
    (the first on ties) and leaves, by the ratio test over the inverse's
    three columns, the first basic row of least ratio; the inverse is
    rebuilt from the basic rows each time.  Violations within ``_FEAS``
    count as met.
    """

    def __init__(self, lo_x: float, hi_x: float, lo_y: float, hi_y: float):
        self.rows = [(1.0, 0.0, 0.0, lo_x), (-1.0, 0.0, 0.0, -hi_x),
                     (0.0, 1.0, 0.0, lo_y), (0.0, -1.0, 0.0, -hi_y)]
        self.basis: list[int] = []
        self.x = self.y = self.t = 0.0
        self.met = 0  # rows before this one are met at (x, y, t)

    def add(self, xk: float, yk: float, fk: float, gx: float, gy: float) -> None:
        """Add the cut through ``(xk, yk, fk)`` with slopes ``(gx, gy)``."""
        self.rows.append((-gx, -gy, 1.0, fk - gx * xk - gy * yk))
        if not self.basis:
            self.basis = [len(self.rows) - 1, 0 if gx >= 0.0 else 1, 2 if gy >= 0.0 else 3]
            self._factor()

    def _factor(self) -> None:
        """The inverse basis, as the columns ``(a2 x a3, a3 x a1, a1 x a2) /
        det`` of the basic rows a1, a2, a3, and the basic solution it gives,
        refined once on the basic rows' residuals: cuts at nearby points on
        one smooth piece are nearly parallel, and unrefined, the basic rows
        missed their own right-hand sides by about 1e-11, so that a new cut
        at the model's argmin, a copy of a basic row, looked violated and
        the dual simplex cycled without moving."""
        b1, b2, b3 = self.basis
        (x1, y1, t1, c1), (x2, y2, t2, c2), (x3, y3, t3, c3) = (
            self.rows[b1], self.rows[b2], self.rows[b3])
        u1, w1, z1 = y2 * t3 - t2 * y3, t2 * x3 - x2 * t3, x2 * y3 - y2 * x3
        u2, w2, z2 = y3 * t1 - t3 * y1, t3 * x1 - x3 * t1, x3 * y1 - y3 * x1
        u3, w3, z3 = y1 * t2 - t1 * y2, t1 * x2 - x1 * t2, x1 * y2 - y1 * x2
        r = 1.0 / (x1 * u1 + y1 * w1 + t1 * z1)
        self.cols = [(u1 * r, w1 * r, z1 * r), (u2 * r, w2 * r, z2 * r),
                     (u3 * r, w3 * r, z3 * r)]
        x = (c1 * u1 + c2 * u2 + c3 * u3) * r
        y = (c1 * w1 + c2 * w2 + c3 * w3) * r
        t = (c1 * z1 + c2 * z2 + c3 * z3) * r
        # One step of iterative refinement on the basic rows' residuals.
        e1 = c1 - (x1 * x + y1 * y + t1 * t)
        e2 = c2 - (x2 * x + y2 * y + t2 * t)
        e3 = c3 - (x3 * x + y3 * y + t3 * t)
        self.x = x + (e1 * u1 + e2 * u2 + e3 * u3) * r
        self.y = y + (e1 * w1 + e2 * w2 + e3 * w3) * r
        self.t = t + (e1 * z1 + e2 * z2 + e3 * z3) * r

    def solve(self) -> float:
        """Pivot until no row is violated (at most 100 pivots); returns t.
        Only the rows added since the last solve are checked until a pivot
        moves the point."""
        start = self.met
        for _ in range(100):
            x, y, t = self.x, self.y, self.t
            enter, worst = -1, _FEAS
            for i, (ax, ay, at, c) in enumerate(self.rows[start:], start):
                gap = c - (ax * x + ay * y + at * t)
                if gap > worst and i not in self.basis:  # basic rows are met, to rounding
                    enter, worst = i, gap
            if enter < 0:
                break
            start = 0
            ax, ay, at, _ = self.rows[enter]
            alpha = [ax * u + ay * w + at * z for u, w, z in self.cols]
            floor = 1e-12 * max(abs(alpha[0]), abs(alpha[1]), abs(alpha[2]))
            leave, ratio = -1, math.inf
            for j, (a, col) in enumerate(zip(alpha, self.cols)):
                if a > floor and col[2] / a < ratio:
                    leave, ratio = j, col[2] / a
            if leave < 0:  # no basic row can give way: leave the row unmet
                break
            self.basis[leave] = enter
            self._factor()
        self.met = len(self.rows)
        return self.t


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
