"""Tests for the deterministic optimizers in ``schatten_lab.search``."""

import numpy as np

from schatten_lab.search import (gamma_min, multistart_ascent, nelder_mead_complex,
                                 sphere_starts)


def _bowl(center, scale=1.0):
    def f(g):
        return scale * abs(g - center) ** 2
    return f


class TestNelderMeadComplex:
    def test_converges_to_smooth_minimum(self):
        center = 0.3 - 1.7j
        g, v = nelder_mead_complex(_bowl(center), 2.0 + 1.0j, 0.5,
                                   xatol=1e-12, fatol=1e-20, maxfev=800)
        assert abs(g - center) <= 1e-9
        assert v <= 1e-18

    def test_converges_on_nonsmooth_minimum(self):
        center = -1.0 + 0.25j
        g, v = nelder_mead_complex(lambda z: abs(z - center), 0j, 0.1,
                                   xatol=1e-11, fatol=1e-14, maxfev=800)
        assert abs(g - center) <= 1e-9
        assert v == abs(g - center)

    def test_respects_evaluation_budget(self):
        calls = []

        def f(g):
            calls.append(g)
            return abs(g - 5.0) ** 2

        g, v = nelder_mead_complex(f, 0j, 1e-3, xatol=0.0, fatol=0.0, maxfev=25)
        assert len(calls) == 25
        # The returned pair is an evaluated vertex and its own value.
        assert g in calls and v == abs(g - 5.0) ** 2
        assert v < 25.0

    def test_deterministic(self):
        f = _bowl(1.0 + 1.0j, 3.0)
        first = nelder_mead_complex(f, -2j, 0.25, xatol=1e-10, fatol=1e-13, maxfev=800)
        again = nelder_mead_complex(f, -2j, 0.25, xatol=1e-10, fatol=1e-13, maxfev=800)
        assert first == again


class TestGammaMin:
    def test_finds_minimum_inside_radius(self):
        center = 0.8 * np.exp(0.3j)
        f = _bowl(center)
        g, v = gamma_min(lambda gs: np.abs(np.asarray(gs) - center) ** 2, f, radius=2.0)
        assert abs(g - center) <= 1e-8
        assert v <= 1e-15

    def test_never_worse_than_grid(self):
        # A flat function: the grid's first point (the origin) is kept.
        g, v = gamma_min(lambda gs: np.ones(len(gs)), lambda z: 1.0, radius=1.0)
        assert g == 0j and v == 1.0


def _form_problem(n=3, seed=7):
    """Maximize |x* m x| over the unit l2 sphere; callbacks take (k, n) stacks.

    einsum keeps every row's arithmetic independent of the other rows, so a
    batch and a single-row call give bit-identical results.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def value(x):
        return np.abs(np.einsum("...i,ij,...j->...", x.conj(), m, x))

    def grad(x):
        mx = np.einsum("ij,...j->...i", m, x)
        mhx = np.einsum("ji,...j->...i", m.conj(), x)
        f = np.einsum("...i,...i->...", x.conj(), mx)[..., None]
        return np.conj(f) * mx + f * mhx

    def normalize(x):
        return x / np.sqrt((np.abs(x) ** 2).sum(axis=-1, keepdims=True))

    return value, grad, normalize


def _reference_ascent(value, grad, normalize, pts, max_steps):
    """One start at a time, with the per-start rules of ``multistart_ascent``."""
    def one(f, x):
        return f(x[None])[0]

    best_v, best_x = -np.inf, None
    for x0 in pts:
        x = one(normalize, x0)
        v = one(value, x)
        step, stall = 0.5, 0
        for _ in range(max_steps):
            g = one(grad, x)
            gn = np.linalg.norm(g, axis=-1)  # the row norm, rounded as in a stack
            if not np.isfinite(gn) or gn < 1e-300:
                break
            d, s, gained = g / gn, step, 0.0
            for _ in range(60):
                xn = one(normalize, x + s * d)
                vn = one(value, xn)
                if vn > v:
                    gained, x, v, step = vn - v, xn, vn, min(2.0 * s, 1.0)
                    break
                s *= 0.5
            if gained == 0.0:
                break
            stall = stall + 1 if gained <= 1e-14 * max(abs(v), 1e-300) else 0
            if stall >= 3:
                break
        if v > best_v:
            best_v, best_x = v, x
    return best_v, best_x


class TestMultistartAscent:
    def test_matches_per_start_reference(self):
        value, grad, normalize = _form_problem()
        extra = [e for e in np.eye(3, dtype=complex)]
        for max_steps in (0, 1, 5, 200):
            v, x = multistart_ascent(value, grad, normalize, 3, starts=8,
                                     max_steps=max_steps, seed=3, extra_starts=extra)
            pts = np.concatenate([np.eye(3, dtype=complex), sphere_starts(3, 8, 3)])
            rv, rx = _reference_ascent(value, grad, normalize, pts, max_steps)
            assert v == rv
            assert np.array_equal(x, rx)

    def test_duplicate_starts_resolve_to_earliest(self):
        # |x_0|^2 is maximal at e0 and at i e0; a zero gradient stops every
        # start where it began, so the two tie exactly.
        def value(x):
            return np.abs(x[..., 0]) ** 2

        def grad(x):
            return np.zeros_like(x)

        def normalize(x):
            return x / np.linalg.norm(x, axis=-1, keepdims=True)

        e0 = np.eye(3, dtype=complex)[0]
        for first in (e0, 1j * e0):
            v, x = multistart_ascent(value, grad, normalize, 3, starts=4,
                                     extra_starts=[first, 1j * first, first])
            assert v == 1.0
            assert np.array_equal(x, first)

    def test_deterministic(self):
        value, grad, normalize = _form_problem(n=4, seed=11)
        first = multistart_ascent(value, grad, normalize, 4, starts=16, seed=5)
        again = multistart_ascent(value, grad, normalize, 4, starts=16, seed=5)
        assert first[0] == again[0]
        assert np.array_equal(first[1], again[1])

    def test_non_finite_gradient_stops_only_its_start(self):
        value, grad, normalize = _form_problem()
        bad = np.array([0.0, 0.0, 1.0], dtype=complex)
        seen = []

        def guarded(x):
            hit = np.all(x == bad, axis=-1)
            seen.append(int(hit.sum()))
            g = grad(x)
            g[hit] = np.nan
            return g

        v, x = multistart_ascent(value, guarded, normalize, 3, starts=8, seed=3,
                                 extra_starts=[bad])
        # The bad start reached the gradient once and then dropped out ...
        assert seen[0] == 1 and sum(seen) == 1
        # ... while the other starts ran exactly as they do without it.
        rv, rx = multistart_ascent(value, grad, normalize, 3, starts=8, seed=3)
        assert v == rv and np.array_equal(x, rx)
        assert len(seen) > 1

    def test_zero_steps_returns_best_start(self):
        value, grad, normalize = _form_problem(n=4, seed=2)
        calls = []

        def counted(x):
            calls.append(len(x))
            return grad(x)

        extra = [np.ones(4, dtype=complex), np.arange(4) + 1j]
        v, x = multistart_ascent(value, counted, normalize, 4, starts=6,
                                 max_steps=0, seed=9, extra_starts=extra)
        pts = normalize(np.concatenate([np.asarray(extra), sphere_starts(4, 6, 9)]))
        vals = value(pts)
        k = int(np.argmax(vals))
        assert calls == []
        assert v == vals[k]
        assert np.array_equal(x, pts[k])
