"""Tests of the benchmark's reference computations, against brute force or
hand-worked cases.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import reference as ref  # noqa: E402


def _rng(k: int) -> np.random.Generator:
    return np.random.default_rng(1000 + k)


def _min_over_gamma(a, b, kind, p) -> float:
    """Brute force: fine polar grid, then local zoom, over complex gamma."""
    f = lambda g: ref.matrix_norms(a[None] + np.asarray(g)[..., None, None] * b[None], kind, p)  # noqa: E731
    r = 4.0 * ref.matrix_norm(a, kind, p) / ref.matrix_norm(b, kind, p)
    xs = np.linspace(-r, r, 161)
    g = (xs[:, None] + 1j * xs[None, :]).ravel()
    best = g[int(np.argmin(f(g)))]
    h = xs[1] - xs[0]
    for _ in range(40):
        loc = best + h * (np.linspace(-1, 1, 21)[:, None] + 1j * np.linspace(-1, 1, 21)[None, :]).ravel()
        best = loc[int(np.argmin(f(loc)))]
        h /= 4.0
    return float(f(np.array([best]))[0])


@pytest.mark.parametrize("k", range(4))
def test_frobenius_closed_form_matches_brute_force(k):
    rng = _rng(k)
    a, b = inputs.ginibre(rng, 3), inputs.ginibre(rng, 3)
    assert ref.frobenius_bj_min(a, b) == pytest.approx(_min_over_gamma(a, b, "schatten", 2.0),
                                                        rel=1e-9)


def test_frobenius_closed_form_hand_cases():
    a = np.diag([3.0, 4.0]).astype(complex)
    # b orthogonal to a in the trace inner product: nothing to gain.
    assert ref.frobenius_bj_min(a, np.diag([4.0, -3.0]).astype(complex)) == pytest.approx(5.0)
    # b = a: gamma = -1 reaches zero.
    assert ref.frobenius_bj_min(a, a) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("k", range(3))
def test_trace_condition_is_the_derivative_of_the_norm(p, k):
    """d/dt ||a + t b||_p^p at t = 0 is p Re tr(|a|^{p-1} u* b); rotating b by
    a phase turns the real part into the modulus the reference returns."""
    rng = _rng(10 + k)
    a, b = inputs.ginibre(rng, 4), inputs.ginibre(rng, 4)
    na = ref.matrix_norm(a, "schatten", p)
    nb = ref.matrix_norm(b, "schatten", p)
    h = 1e-6

    def deriv(bb):
        up = ref.matrix_norm(a + h * bb, "schatten", p) ** p
        down = ref.matrix_norm(a - h * bb, "schatten", p) ** p
        return (up - down) / (2 * h)

    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 720, endpoint=False))
    brute = max(deriv(ph * b) for ph in phases) / p
    assert ref.trace_condition(a, b, p) == pytest.approx(brute / (na ** (p - 1) * nb), rel=1e-3)


def test_trace_condition_hand_cases():
    a = np.diag([2.0, 0.0, 0.0]).astype(complex)
    # Disjoint supports: the trace vanishes.
    assert ref.trace_condition(a, np.diag([0.0, 1.0, 5.0]).astype(complex), 3.0) == 0.0
    # b = a: tr(|a|^{p-1} |a|) = ||a||_p^p, so the ratio is one.
    psd = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert ref.trace_condition(psd, psd, 1.5) == pytest.approx(1.0)


@pytest.mark.parametrize("kind,p", [("schatten", 1.0), ("schatten", 3.0), ("schatten", math.inf),
                                    ("induced", 1.0), ("induced", math.inf)])
def test_circle_bracket_contains_the_fine_maximum(kind, p):
    rng = _rng(20)
    a, b = inputs.ginibre(rng, 5), inputs.ginibre(rng, 5)
    lo, hi = ref.circle_bracket(a, b, kind, p, 36)
    fine = np.exp(1j * np.linspace(0, 2 * np.pi, 20000, endpoint=False))[:, None, None]
    top = float(ref.matrix_norms(a[None] + fine * b[None], kind, p).max())
    assert lo <= top <= hi


def test_circle_bracket_dependent_pair():
    """For b = c a the maximum is (1 + |c|) ||a||, attained at lambda = |c|/c."""
    rng = _rng(21)
    a = inputs.ginibre(rng, 4)
    c = 1.3 * np.exp(0.7j)
    lo, hi = ref.circle_bracket(a, c * a, "schatten", 2.0, 180)
    exact = 2.3 * ref.matrix_norm(a, "schatten", 2.0)
    assert lo <= exact <= hi
    assert hi - lo == pytest.approx(1.3 * ref.matrix_norm(a, "schatten", 2.0) * math.pi / 180)


def test_radius_bracket_contains_the_fine_radius():
    a = inputs.ginibre(_rng(30), 5)
    lo, hi = ref.radius_bracket(a, 32)
    fine = np.exp(1j * np.linspace(0, 2 * np.pi, 20000, endpoint=False))[:, None, None]
    w = float(np.linalg.eigvalsh(0.5 * (fine * a + np.conj(fine) * a.conj().T)).max())
    assert lo <= w <= hi


def _sampled_radius(a, count=200000, seed=0) -> float:
    """Brute force over the definition: max |<a x, x>| over random unit x."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, a.shape[0])) + 1j * rng.standard_normal((count, a.shape[0]))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return float(np.abs(np.einsum("ki,ij,kj->k", x.conj(), a, x)).max())


def test_normal_radius_matches_brute_force():
    a = inputs.normal_with_top_gap(_rng(40), 3)
    w = ref.normal_radius(a)
    assert _sampled_radius(a) <= w + 1e-12
    assert _sampled_radius(a) == pytest.approx(w, rel=1e-2)
    ev = np.linalg.eigvals(a)
    assert ref.top_eigen_phase(a) == pytest.approx(ev[np.argmax(abs(ev))] / abs(ev).max())


@pytest.mark.parametrize("n", range(2, 9))
def test_shift_radius_matches_phase_sweep(n):
    shift = np.eye(n, k=1, dtype=complex)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))[:, None, None]
    sweep = float(np.linalg.eigvalsh(0.5 * (phases * shift + np.conj(phases) * shift.T)).max())
    assert ref.shift_radius(n) == pytest.approx(sweep, abs=1e-12)


def test_shift_radius_hand_case():
    # 2x2 Jordan cell: w = 1/2 = cos(pi/3).
    assert ref.shift_radius(2) == pytest.approx(0.5)
    assert _sampled_radius(np.array([[0, 1], [0, 0]], dtype=complex)) == pytest.approx(0.5, rel=1e-3)


def test_nilpotent_radius_below_shift_ceiling():
    rng = _rng(50)
    for _ in range(5):
        t = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), k=1)
        t /= np.linalg.norm(t, 2)
        assert ref.radius_bracket(t, 1024)[0] <= ref.shift_radius(4) + 1e-12


def test_domination_margin():
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 2.0, 0.0]).astype(complex)
    # Disjoint PSD pair: |b + gamma a| = |b| + |gamma| |a| >= |b|.
    assert ref.domination_margin(b, a, ref.structured_gammas()) >= -1e-12
    # Overlapping pair: gamma = -1 lowers b's top direction.
    assert ref.domination_margin(b, b, ref.structured_gammas()) < -0.1
