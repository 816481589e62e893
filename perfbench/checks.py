"""Correctness checks, made after timing.

Each check compares one operation's outputs with the benchmark's own numpy
computations (``reference``) or with a property the method must have, and
returns the reasons it failed; an empty list means the operation passed.
Where the reference cannot decide a verdict with a clear margin, the check
makes no claim about it.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

INF = math.inf

#: The eight norms both pair workloads decide under: (label, kind, p).
NORMS = (
    ("S1", "schatten", 1.0), ("S1.5", "schatten", 1.5), ("S2", "schatten", 2.0),
    ("S3", "schatten", 3.0), ("Sinf", "schatten", INF),
    ("I1", "induced", 1.0), ("I2", "induced", 2.0), ("Iinf", "induced", INF),
)
SCHATTEN_FINITE = ("S1.5", "S2", "S3")
#: Grids of the reference brackets; each divides the program's own grid
#: (720 circle angles, 1024 radius phases), so the program's result can
#: never fall below the reference grid maximum.
CIRCLE_GRID = 180
RADIUS_GRID = 256
#: Relative slack for comparing the same quantity computed two ways.
ROUND_OFF = 1e-9


def _close(x: float, y: float, scale: float, rel: float = ROUND_OFF) -> bool:
    return abs(x - y) <= rel * scale


# ---------------------------------------------------------------------------
# ortho-pairs
# ---------------------------------------------------------------------------


def check_ortho(op, out, partner_out) -> list[str]:
    """``out`` maps (label, direction) to (holds, gamma, gap, tol) and
    ``"loewner"`` to (dominates, trace_orthogonal)."""
    bad: list[str] = []
    for d, (x, y) in enumerate(((op.a, op.b), (op.b, op.a))):
        scale = max(ref.matrix_norm(x, "schatten", 2.0), ref.matrix_norm(y, "schatten", 2.0))
        for label, kind, p in NORMS:
            holds, gamma, gap, tol = out[label, d]
            nx = ref.matrix_norm(x, kind, p)
            tag = f"{label} dir{d}"
            if gap > tol:
                bad.append(f"{tag}: gap {gap:.3e} above tolerance {tol:.3e}")
            if not _close(ref.matrix_norm(x + gamma * y, kind, p), nx + gap, scale):
                bad.append(f"{tag}: ||x + gamma* y|| does not equal ||x|| + gap")
            if label == "S2":
                closed = ref.frobenius_bj_min(x, y) - nx
                if not _close(gap, closed, scale):
                    bad.append(f"{tag}: gap {gap:.6e} vs closed form {closed:.6e}")
            if label in ("S1.5", "S3"):
                t = ref.trace_condition(x, y, p)
                if t >= 0.05 and holds:
                    bad.append(f"{tag}: holds although the trace condition is {t:.3e}")
                if t <= 1e-9 and not holds:
                    bad.append(f"{tag}: fails although the trace condition is {t:.1e}")
            if op.kind in ("disjoint", "commuting_psd") and kind == "schatten" and not holds:
                bad.append(f"{tag}: disjoint supports but not orthogonal")
            if partner_out is not None:
                p_holds, _, p_gap, p_tol = partner_out[label, d]
                decisive = p_gap < -10.0 * p_tol or p_gap >= -0.1 * p_tol
                if decisive and holds != p_holds:
                    bad.append(f"{tag}: scaled verdict {holds} differs from unscaled {p_holds}")

    dominates, trace_orthogonal = out["loewner"]
    if op.kind in ("disjoint", "commuting_psd"):
        if not (dominates and trace_orthogonal):
            bad.append("loewner: disjoint pair not reported as dominated")
    elif ref.domination_margin(op.b, op.a, ref.structured_gammas()) < -1e-6 and dominates:
        bad.append("loewner: domination reported despite a violated sample")
    return bad


# ---------------------------------------------------------------------------
# parallel-pairs
# ---------------------------------------------------------------------------


def parallel_expectations(a: np.ndarray, b: np.ndarray, independent: bool) -> dict:
    """Verdicts the references decide with a clear margin, plus brackets.

    Returns ``{label: (lo, hi, target, must_fail)}`` for the eight norms and
    ``"radius"``: (lo, hi, ||a||_2, must_fail), and ``"eigen_none"``: True
    when no eigenvalue of ``a`` comes near its norm.
    """
    exp = {}
    for label, kind, p in NORMS:
        lo, hi = ref.circle_bracket(a, b, kind, p, CIRCLE_GRID)
        target = ref.matrix_norm(a, kind, p) + ref.matrix_norm(b, kind, p)
        must_fail = hi < target * (1.0 - 1e-6) or (independent and label in SCHATTEN_FINITE)
        exp[label] = (lo, hi, target, must_fail)
    lo, hi = ref.radius_bracket(a, RADIUS_GRID)
    na = ref.matrix_norm(a, "schatten", INF)
    exp["radius"] = (lo, hi, na, hi < na * (1.0 - 1e-6))
    exp["eigen_none"] = ref.normal_radius(a) < na * (1.0 - 1e-6)
    return exp


def check_parallel(op, out, exp) -> list[str]:
    """``out`` maps each norm label to (holds, lambda_star, achieved, target),
    plus ``"radius_parallel"``, ``"eigen_phase"`` and ``"radius"`` (the
    numerical radius value); ``exp`` holds ``parallel_expectations`` for the
    pair.  The expectations do not change when a pair is scaled, so a scaled
    pair must get the verdicts of its unscaled pair."""
    bad: list[str] = []
    n = op.a.shape[0]
    for label, _, _ in NORMS:
        holds, lam, achieved, _ = out[label]
        lo, hi, target, must_fail = exp[label]
        if achieved < lo * (1.0 - ROUND_OFF) or achieved > hi * (1.0 + ROUND_OFF):
            bad.append(f"{label}: achieved {achieved:.9e} outside [{lo:.9e}, {hi:.9e}]")
        if achieved > target * (1.0 + ROUND_OFF):
            bad.append(f"{label}: achieved {achieved:.9e} above ||a|| + ||b|| = {target:.9e}")
        if must_fail and holds:
            bad.append(f"{label}: holds although the reference rules it out")
        if op.kind == "dependent":
            want = abs(op.coef) / op.coef
            if not holds:
                bad.append(f"{label}: dependent pair not parallel")
            if abs(lam - want) > 1e-5:
                bad.append(f"{label}: lambda* {lam:.6f} differs from |c|/c = {want:.6f}")

    w = out["radius"]
    r_lo, r_hi, na, r_must_fail = exp["radius"]
    if w < r_lo * (1.0 - ROUND_OFF) or w > r_hi * (1.0 + ROUND_OFF):
        bad.append(f"radius {w:.9e} outside [{r_lo:.9e}, {r_hi:.9e}]")
    if r_must_fail and out["radius_parallel"]:
        bad.append("parallel to I by the radius route although w < ||a||")
    if exp["eigen_none"] and out["eigen_phase"] is not None:
        bad.append("eigen phase returned although no eigenvalue attains the norm")
    if op.kind == "normal":
        top = ref.top_eigen_phase(op.a)
        if not _close(w, ref.normal_radius(op.a), max(1.0, w), 1e-8):
            bad.append(f"normal: radius {w:.12f} vs max|lambda| {ref.normal_radius(op.a):.12f}")
        if not out["radius_parallel"]:
            bad.append("normal: not parallel to I by the radius route")
        if out["eigen_phase"] is None or abs(out["eigen_phase"] - top) > 1e-8:
            bad.append("normal: eigen phase differs from lambda_top / |lambda_top|")
        for label in ("Sinf", "I2"):
            holds, lam, _, _ = out[label]
            if not holds or abs(lam - top) > 1e-5:
                bad.append(f"normal: {label} verdict not parallel to I at the top eigen phase")
    if op.kind == "nilpotent":
        if w > ref.shift_radius(n) + 1e-9:
            bad.append(f"nilpotent: radius {w:.9f} above cos(pi/(n+1)) = {ref.shift_radius(n):.9f}")
        if out["radius_parallel"] or out["eigen_phase"] is not None or out["Sinf"][0]:
            bad.append("nilpotent: reported parallel to I")
    return bad
