"""Randomized law suites, failure replay, and curated fixtures.

Each suite checks one family of norm/orthogonality/parallelism laws on
seeded random ensembles.  Ensembles are constructed so that every check is
decisive at the pinned tolerances: "holds" directions are witnessed by
construction, "fails" directions are margin-guarded (draws whose decision
quantity lands inside an ambiguous band around the tolerance are redrawn
from the same stream, with a hard cap).  A suite therefore passes 100% of
trials unless the library itself is wrong.

A trial states each check in one of five forms, each recording a label, a
pass flag and a gap that is negative exactly when the check fails:
``at_most``/``at_least`` compare a value with a bound (the gap is the
margin), ``holds``/``fails`` restate a predicate verdict (the gap is the
verdict's own, negated for ``fails``), and ``check`` takes a flag and an
optional gap.  Redraw loops run as ``for _ in _redraws(what):`` and leave
by ``break`` or ``return`` on a decisive draw.  A suite's
``SuiteSpec.tolerances`` are the values its checks read, so a report's
``tolerances_used`` are the ones applied.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import ensembles
from .cmatrix import RANK_RTOL, loewner_geq, modulus
from .ensembles import rng_for
from .norms import (
    INF,
    NormSpec,
    SPECTRAL,
    norm_value,
    numerical_radius_banach,
    numerical_radius_hilbert,
    schatten_norm,
)
from .ortho import (
    PREDICATE_RTOL,
    bj_definitional,
    bj_trace,
    clarkson_gap,
    default_gamma_samples,
    disjoint_supports,
    isosceles,
    loewner_domination,
    loewner_identity_test,
    norm_additivity,
    semi_inner_product,
)
from .parallel import (
    DEPENDENCE_RTOL,
    LP_RADIUS_RTOL,
    _trace_residuals,
    eigen_parallel_identity,
    epsilon_isometry_transfer,
    hilbert_parallel_witness,
    linearly_dependent,
    norming_set,
    parallel_definitional,
    parallel_identity_radius,
    parallel_identity_trace,
    parallel_trace_class,
)

SCHEMA_VERSION = 1

#: Hard cap on in-trial redraws before declaring the ensemble miscalibrated.
REDRAW_LIMIT = 200

#: A failing decision quantity must clear its tolerance by this factor for a
#: draw to be accepted; borderline draws are redrawn.
DECISIVE = 10.0

_SINGLE_DRAWS = {
    "ginibre": ensembles.ginibre,
    "psd": ensembles.psd,
    "unitary": ensembles.haar_unitary,
    "projection": ensembles.projection,
    "nilpotent": ensembles.nilpotent,
    "partial_isometry": ensembles.partial_isometry,
}


class EnsembleMiscalibration(RuntimeError):
    """Raised when guarded redraws fail to produce a decisive input."""


def _require_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` as a Python ``int``, which JSON can encode (a numpy integer
    cannot); ``ValueError`` unless it is an integer, not a bool, in ``[lo, hi]``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or not lo <= value <= hi):
        bound = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EnsembleConfig:
    """Configuration for one suite run.

    ``kind`` selects the random ensemble where the suite admits a choice
    (``None`` means the suite default); ``dimension`` is the matrix size,
    capped at 8 (6 for the nilpotent-power suite, which exponentiates its
    draws); ``trials`` draws are evaluated from stream ``seed``.
    """

    kind: str | None = None
    dimension: int = 4
    trials: int = 200
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind is not None and self.kind not in ensembles.KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        for name, lo, hi in (("dimension", 2, 8), ("trials", 1, math.inf),
                             ("seed", 0, math.inf)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), lo, hi))


@dataclass(frozen=True)
class FailureRecord:
    """One failing trial: where it was drawn, what it saw, how badly."""

    seed_offset: int
    inputs_digest: str
    observed_gap: float
    detail: str

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of a suite run; ``passes + len(failures) == trials``."""

    suite_id: str
    config: EnsembleConfig
    trials: int
    passes: int
    failures: tuple[FailureRecord, ...]
    tolerances_used: dict

    @property
    def passed(self) -> bool:
        return not self.failures and self.passes == self.trials

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["failures"] = list(doc["failures"])
        return {"schema_version": SCHEMA_VERSION, **doc}


class _Trial:
    """Collects named checks and drawn inputs for one trial."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool, float]] = []
        self.arrays: list[np.ndarray] = []

    def track(self, *arrays) -> None:
        for a in arrays:
            self.arrays.append(np.asarray(a))

    def check(self, label: str, ok: bool, gap: float = 0.0) -> bool:
        self.checks.append((label, bool(ok), float(gap)))
        return bool(ok)

    def at_most(self, label: str, value, bound) -> bool:
        return self.check(label, value <= bound, bound - value)

    def at_least(self, label: str, value, bound) -> bool:
        return self.check(label, value >= bound, value - bound)

    def holds(self, label: str, verdict) -> bool:
        return self.check(label, verdict.holds, verdict.gap)

    def fails(self, label: str, verdict) -> bool:
        return self.check(label, not verdict.holds, -verdict.gap)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def observed_gap(self) -> float:
        failing = [g for _, ok, g in self.checks if not ok]
        if failing:
            return min(failing)
        return min((g for _, _, g in self.checks), default=0.0)

    def detail(self) -> str:
        parts = [
            f"{name} (gap={gap:.6e})" for name, ok, gap in self.checks if not ok
        ]
        return "; ".join(parts) if parts else "all checks passed"

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in self.arrays:
            a = np.ascontiguousarray(arr)
            h.update(repr(a.shape).encode())
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]


def _redraws(what: str):
    """Yield ``REDRAW_LIMIT`` times, then raise: the one redraw cap.

    A loop over it leaves by ``break`` or ``return`` once a draw is decisive;
    running out means the ensemble cannot produce ``what``.
    """
    for _ in range(REDRAW_LIMIT):
        yield
    raise EnsembleMiscalibration(
        f"{REDRAW_LIMIT} redraws failed to produce a decisive draw for {what}"
    )


def _decisive(verdicts) -> bool:
    """Every verdict fails by at least ``DECISIVE`` times its tolerance."""
    return all(v.gap <= -DECISIVE * v.tolerance for v in verdicts)


def _single(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    return _SINGLE_DRAWS[kind](rng, n)


def _principal_cos(p: np.ndarray, q: np.ndarray) -> float:
    """Largest canonical-angle cosine between the ranges of two orthogonal
    projections: the spectral norm of their product."""
    return float(np.linalg.norm(p @ q, 2))


def _fro(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


# ---------------------------------------------------------------------------
# Suite runners.  Each takes (config, offset, rng) and returns a _Trial.
# ---------------------------------------------------------------------------


def _suite_clarkson(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S1: Clarkson-McCarthy inequality directions and the equality law."""
    t = _Trial()
    tol = SUITES["S1"].tolerances
    n = cfg.dimension
    kind = cfg.kind or "ginibre"
    ps = (0.5, 1.5, 2.0, 3.0)

    for _ in _redraws("S1 generic pair"):
        a = _single(kind, rng, n)
        b = _single(kind, rng, n)
        overlap = _fro(a.conj().T @ a @ b.conj().T @ b)
        if overlap < 1e-4:
            continue
        gaps = {p: clarkson_gap(a, b, p) for p in ps}
        bases = {
            p: 2.0 * (schatten_norm(a, p) ** p + schatten_norm(b, p) ** p)
            for p in ps
        }
        if all(
            abs(gaps[p]) >= 1e-5 * max(1.0, bases[p]) for p in ps if p != 2.0
        ):
            break
    t.track(a, b)

    for p in ps:
        g, base = gaps[p], bases[p]
        band = tol["direction"] * max(1.0, base)
        if p < 2.0:
            t.at_most(f"gap direction p={p}", g, band)
        elif p > 2.0:
            t.at_least(f"gap direction p={p}", g, -band)
        else:
            t.at_most("gap vanishes at p=2", abs(g), band)
        if p != 2.0:
            floor = tol["equality"] * max(1.0, base)
            t.check(
                f"generic pair avoids equality p={p}", abs(g) > floor,
                abs(g) - floor,
            )

    a0, b0 = ensembles.both_disjoint_pair(rng, n)
    t.track(a0, b0)
    res0 = _fro(a0.conj().T @ a0 @ b0.conj().T @ b0)
    t.at_most("disjoint pair has orthogonal squares", res0, tol["equality"])
    for p in ps:
        g0 = clarkson_gap(a0, b0, p)
        base0 = 2.0 * (schatten_norm(a0, p) ** p + schatten_norm(b0, p) ** p)
        t.at_most(
            f"disjoint pair attains equality p={p}", abs(g0),
            tol["equality"] * max(1.0, base0),
        )
        t.check(
            f"disjoint pair norm additivity p={p}", norm_additivity(a0, b0, p)
        )

    h1 = ensembles.psd(rng, n)
    h2 = ensembles.psd(rng, n)
    t.track(h1, h2)
    for p in (1.0, 1.5, 2.0, 3.0):
        s = schatten_norm(h1 + h2, p) ** p
        mid = schatten_norm(h1, p) ** p + schatten_norm(h2, p) ** p
        band = tol["direction"] * max(1.0, s)
        t.at_most(f"psd lower bound p={p}", 2.0 ** (1.0 - p) * s, mid + band)
        t.at_most(f"psd upper bound p={p}", mid, s + band)
    return t


def _suite_disjoint_implies_bj(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S2: disjointly supported pairs are mutually Birkhoff-James orthogonal."""
    t = _Trial()
    n = cfg.dimension
    kind = cfg.kind or "commuting_kernel_pair"
    if kind == "commuting_kernel_pair":
        a, b = ensembles.commuting_disjoint_psd_pair(rng, n)
    else:
        a, b = ensembles.both_disjoint_pair(rng, n)
    t.track(a, b)

    for p in (1.5, 2.0, 3.0):
        spec = NormSpec.schatten(p)
        t.holds(f"constructed pair bj forward p={p}", bj_definitional(a, b, spec))
        t.holds(f"constructed pair bj reverse p={p}", bj_definitional(b, a, spec))

    a2, b2 = ensembles.both_disjoint_pair(rng, n)
    t.track(a2, b2)
    for p in (1.5, 3.0):
        spec = NormSpec.schatten(p)
        t.holds(f"general pair bj forward p={p}", bj_definitional(a2, b2, spec))
        t.holds(f"general pair bj reverse p={p}", bj_definitional(b2, a2, spec))
    return t


def _suite_bj_implies_disjoint(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S3: for positive pairs, mutual BJ orthogonality forces disjoint supports."""
    t = _Trial()
    tol = SUITES["S3"].tolerances
    n = cfg.dimension
    ps = (1.5, 2.0, 3.0)

    a, b = ensembles.commuting_disjoint_psd_pair(rng, n)
    t.track(a, b)
    for p in ps:
        v = bj_definitional(a, b, NormSpec.schatten(p))
        t.holds(f"constructed positive pair bj p={p}", v)
    rep = disjoint_supports(a, b)
    for side, res in (("right", rep.right_residual), ("left", rep.left_residual)):
        t.at_most(f"constructed pair {side} residual", res, tol["residual"])

    for _ in _redraws("S3 overlapping positive pair"):
        c = ensembles.psd(rng, n)
        d = ensembles.psd(rng, n)
        verdicts = {p: bj_definitional(c, d, NormSpec.schatten(p)) for p in ps}
        if _decisive(verdicts.values()):
            break
    t.track(c, d)
    for p in ps:
        t.fails(f"overlapping positive pair fails bj p={p}", verdicts[p])
    return t


def _suite_isosceles(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S4: real isosceles orthogonality matches BJ on the positive cone."""
    t = _Trial()
    tol = SUITES["S4"].tolerances
    n = cfg.dimension
    ps = (1.5, 2.0)

    a, b = ensembles.commuting_disjoint_psd_pair(rng, n)
    t.track(a, b)
    for p in ps:
        t.check(
            f"disjoint pair isosceles p={p}",
            isosceles(a, b, p, complex_mode=False),
        )
        t.holds(f"disjoint pair bj p={p}", bj_definitional(a, b, NormSpec.schatten(p)))
    t.check(
        "disjoint pair isosceles p=1", isosceles(a, b, 1.0, complex_mode=False)
    )
    prod = max(_fro(a @ b), _fro(b @ a))
    scale = max(1.0, _fro(a) * _fro(b))
    t.at_most("disjoint pair products vanish", prod, 1e-9 * scale)
    for p in (1.0, 1.5):
        lhs = schatten_norm(a + b, p) ** p
        rhs = schatten_norm(a, p) ** p + schatten_norm(b, p) ** p
        t.at_most(
            f"disjoint pair power additivity p={p}", abs(lhs - rhs),
            tol["isosceles"] * max(1.0, rhs),
        )

    for _ in _redraws("S4 overlapping positive pair"):
        c = ensembles.psd(rng, n)
        d = ensembles.psd(rng, n)
        if _fro(c @ d) < 1e-3:
            continue
        devs = {
            p: abs(schatten_norm(c + d, p) - schatten_norm(c - d, p))
            / (schatten_norm(c, p) + schatten_norm(d, p))
            for p in ps + (1.0,)
        }
        if not all(dev >= DECISIVE * tol["isosceles"] for dev in devs.values()):
            continue
        bjs = {p: bj_definitional(c, d, NormSpec.schatten(p)) for p in ps}
        if _decisive(bjs.values()):
            break
    t.track(c, d)
    for p in ps:
        iso = isosceles(c, d, p, complex_mode=False)
        t.check(f"overlapping pair fails isosceles p={p}", not iso, -devs[p])
        t.fails(f"overlapping pair fails bj p={p}", bjs[p])
        t.check(f"isosceles and bj agree p={p}", iso == bjs[p].holds)
    t.check(
        "overlapping pair fails isosceles p=1",
        not isosceles(c, d, 1.0, complex_mode=False), -devs[1.0],
    )
    return t


def _suite_sip(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S5: semi-inner-product axioms and the trace test for BJ orthogonality."""
    t = _Trial()
    ax_tol = SUITES["S5"].tolerances["axioms"]
    n = cfg.dimension
    kind = cfg.kind or "ginibre"
    ps = (1.5, 2.0, 3.0)

    for _ in _redraws("S5 generic triple"):
        a = _single(kind, rng, n)
        b = _single(kind, rng, n)
        c = _single(kind, rng, n)
        sips = {p: semi_inner_product(b, a, p) for p in ps}
        norms_a = {p: schatten_norm(a, p) for p in ps}
        norms_b = {p: schatten_norm(b, p) for p in ps}
        if min(norms_a.values()) < 1e-6 or min(norms_b.values()) < 1e-6:
            continue
        if not all(
            abs(sips[p]) >= 1e-2 * norms_a[p] * norms_b[p] for p in ps
        ):
            continue
        defis = {p: bj_definitional(a, b, NormSpec.schatten(p)) for p in ps}
        if _decisive(defis.values()):
            break
    t.track(a, b, c)

    alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
    for p in ps:
        na, nb = norms_a[p], norms_b[p]
        nc = schatten_norm(c, p)
        scale = max(1.0, na * (nb + nc) + na * na)
        saa = semi_inner_product(a, a, p)
        t.at_most(
            f"sip self-consistency p={p}", abs(saa - na * na), ax_tol * scale
        )
        add = (
            semi_inner_product(b + c, a, p) - sips[p]
            - semi_inner_product(c, a, p)
        )
        t.at_most(f"sip additivity p={p}", abs(add), ax_tol * scale)
        scale_h = scale * max(1.0, abs(alpha))
        hom1 = semi_inner_product(alpha * b, a, p) - alpha * sips[p]
        t.at_most(
            f"sip first-slot homogeneity p={p}", abs(hom1), ax_tol * scale_h
        )
        hom2 = semi_inner_product(b, alpha * a, p) - np.conj(alpha) * sips[p]
        t.at_most(
            f"sip second-slot conjugate homogeneity p={p}", abs(hom2),
            ax_tol * scale_h,
        )
        cs = abs(sips[p]) ** 2 - (na * nb) ** 2
        t.at_most(f"sip cauchy-schwarz p={p}", cs, ax_tol * scale * scale)

        t.check(f"generic pair trace test fails p={p}", not bj_trace(a, b, p))
        t.fails(f"generic pair definitional fails p={p}", defis[p])

        b_perp = b - (sips[p] / (na * na)) * a
        if schatten_norm(b_perp, p) < 1e-3 * nb:  # pragma: no cover
            raise EnsembleMiscalibration("S5 orthogonalized operand vanished")
        vd2 = bj_definitional(a, b_perp, NormSpec.schatten(p))
        t.check(f"orthogonalized pair trace test p={p}", bj_trace(a, b_perp, p))
        t.holds(f"orthogonalized pair definitional p={p}", vd2)
    return t


def _suite_identity_trace(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S6: the identity is BJ orthogonal to A exactly when tr A = 0."""
    t = _Trial()
    tol = SUITES["S6"].tolerances
    n = cfg.dimension
    kind = cfg.kind or "ginibre"
    ps = (1.0, 2.0, 3.0)
    eye = np.eye(n, dtype=complex)

    for _ in _redraws("S6 traceful draw"):
        a = _single(kind, rng, n)
        if abs(np.trace(a)) < 1e-2 * schatten_norm(a, 1.0):
            continue
        verdicts = {p: bj_definitional(eye, a, NormSpec.schatten(p)) for p in ps}
        if _decisive(verdicts.values()):
            break
    t.track(a)
    a0 = a - (np.trace(a) / n) * eye
    t.track(a0)

    for p in ps:
        t.fails(f"traceful draw fails bj p={p}", verdicts[p])
        tr_bound = tol["trace"] * schatten_norm(a, p)
        t.check(
            f"traceful draw trace above threshold p={p}",
            abs(np.trace(a)) > tr_bound, abs(np.trace(a)) - tr_bound,
        )
        v0 = bj_definitional(eye, a0, NormSpec.schatten(p))
        t.holds(f"traceless projection passes bj p={p}", v0)
        if p > 1.0:
            t.check(
                f"trace route agrees on traceless p={p}", bj_trace(eye, a0, p)
            )
            t.check(
                f"trace route agrees on traceful p={p}", not bj_trace(eye, a, p)
            )
    return t


def _suite_loewner_identity(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S7: only the zero matrix keeps ``|I + gamma A| >= I`` for all gamma."""
    t = _Trial()
    n = cfg.dimension
    kind = cfg.kind or "ginibre"
    samples = default_gamma_samples(seed=cfg.seed)

    for _ in _redraws("S7 nonzero draw"):
        a = _single(kind, rng, n)
        if _fro(a) >= 1e-8:
            break
    a = a / _fro(a)
    t.track(a)

    for scale in (0.5, 1.0, 2.0):
        t.check(
            f"nonzero draw rejected at scale {scale}",
            not loewner_identity_test(scale * a, samples),
        )
    t.check(
        "zero matrix accepted",
        loewner_identity_test(np.zeros((n, n), dtype=complex), samples),
    )
    return t


def _suite_loewner_domination(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S8: modulus domination forces trace orthogonality, kernel identity, BJ."""
    t = _Trial()
    n = cfg.dimension
    samples = default_gamma_samples(seed=cfg.seed)

    a, b = ensembles.commuting_disjoint_psd_pair(rng, n)
    t.track(a, b)
    rep = loewner_domination(b, a, samples)
    t.check("commuting pair dominates", rep.dominates)
    t.check("commuting pair trace orthogonal", rep.trace_orthogonal)
    t.check("commuting pair kernel identity", rep.kernel_identity)
    t.check("commuting pair bj at all p", bool(rep.bj_all_p))

    p_proj = ensembles.projection(rng, n)
    eye = np.eye(n, dtype=complex)
    b2 = p_proj @ ensembles.ginibre(rng, n)
    a2 = (eye - p_proj) @ ensembles.ginibre(rng, n)
    t.track(b2, a2)
    rep2 = loewner_domination(b2, a2, samples)
    t.check("column-split pair dominates", rep2.dominates)
    t.check("column-split pair trace orthogonal", rep2.trace_orthogonal)
    t.check("column-split pair kernel identity", rep2.kernel_identity)
    t.check("column-split pair bj at all p", bool(rep2.bj_all_p))

    probe = np.array([1.0, -1.0, 1j, -1j], dtype=complex)
    for _ in _redraws("S8 non-dominating pair"):
        b3 = ensembles.ginibre(rng, n)
        a3 = ensembles.ginibre(rng, n)
        if abs(np.trace(b3.conj().T @ a3)) < 1e-2 * _fro(a3) * _fro(b3):
            continue
        mb = modulus(b3)
        margin = min(
            float(np.linalg.eigvalsh(modulus(b3 + g * a3) - mb)[0])
            for g in probe
        )
        if margin <= -1e-3 * max(1.0, _fro(b3)):
            break
    t.track(b3, a3)
    rep3 = loewner_domination(b3, a3, samples, bj_ps=())
    t.check("generic pair does not dominate", not rep3.dominates, margin)

    rep0 = loewner_domination(
        b, np.zeros((n, n), dtype=complex), samples, bj_ps=()
    )
    t.check("zero perturbation dominates", rep0.dominates)
    t.check("zero perturbation trace orthogonal", rep0.trace_orthogonal)
    t.check("zero perturbation kernel identity", rep0.kernel_identity)
    return t


def _draw_guarded_independent(cfg, rng, ps, *, trace_margin=True):
    """Draw an independent pair failing parallelism decisively at every p;
    returns it with its verdicts and the trace residuals it was guarded with."""
    n = cfg.dimension
    kind = cfg.kind or "ginibre"
    for _ in _redraws("independent guarded pair"):
        c = _single(kind, rng, n)
        d = _single(kind, rng, n)
        if linearly_dependent(c, d, 0.1):
            continue
        verdicts = {p: parallel_definitional(c, d, NormSpec.schatten(p)) for p in ps}
        if not _decisive(verdicts.values()):
            continue
        residuals = {p: _trace_residuals(c, d, p) for p in ps if trace_margin}
        if not all(min(r) >= DECISIVE * PREDICATE_RTOL for r in residuals.values()):
            continue
        return c, d, verdicts, residuals


def _dependence_blocks(t: _Trial, cfg: EnsembleConfig, rng, ps):
    """The opening of S9 and S10: a dependent pair, parallel and meeting the
    trace condition (``parallel_trace_p``'s test) at every p, then a guarded
    independent pair failing both.  Returns the dependent pair's residuals."""
    a, b = ensembles.dependent_pair(rng, cfg.dimension)
    t.track(a, b)
    t.check("dependent pair recognized", linearly_dependent(a, b))
    dependent = {p: _trace_residuals(a, b, p) for p in ps}
    for p in ps:
        v = parallel_definitional(a, b, NormSpec.schatten(p))
        t.holds(f"dependent pair parallel p={p}", v)
        t.check(f"dependent pair trace condition p={p}", max(dependent[p]) <= PREDICATE_RTOL)

    c, d, verdicts, independent = _draw_guarded_independent(cfg, rng, ps)
    t.track(c, d)
    t.check("independent pair recognized", not linearly_dependent(c, d))
    for p in ps:
        t.fails(f"independent pair fails parallelism p={p}", verdicts[p])
        t.check(
            f"independent pair fails trace condition p={p}",
            not max(independent[p]) <= PREDICATE_RTOL,
        )
    return dependent


def _suite_parallel_dependence(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S9: for 1 < p < inf, Schatten parallelism is exactly linear dependence."""
    t = _Trial()
    n = cfg.dimension
    _dependence_blocks(t, cfg, rng, (1.5, 2.0, 3.0))

    if offset == 0:
        diag = np.zeros((n, n), dtype=complex)
        diag[0, 0] = 1.0
        eye = np.eye(n, dtype=complex)
        t.track(diag, eye)
        v1 = parallel_definitional(diag, eye, NormSpec.schatten(1.0))
        vi = parallel_definitional(diag, eye, NormSpec.schatten(INF))
        v2 = parallel_definitional(diag, eye, NormSpec.schatten(2.0))
        t.holds("endpoint p=1 fixture parallel", v1)
        t.holds("endpoint p=inf fixture parallel", vi)
        t.check("fixture not dependent", not linearly_dependent(diag, eye))
        t.fails("fixture fails at p=2", v2)
    return t


def _suite_trace_characterization(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S10: four-way trace characterization of parallelism plus BJ duality."""
    t = _Trial()
    tol = SUITES["S10"].tolerances
    n = cfg.dimension
    ps = (1.5, 2.0, 3.0)

    residuals = _dependence_blocks(t, cfg, rng, ps)
    for p in ps:
        r_fwd, r_rev = residuals[p]
        t.at_most(f"dependent trace forward p={p}", r_fwd, tol["trace"])
        t.at_most(f"dependent trace mirrored p={p}", r_rev, tol["trace"])

    pa, pb = ensembles.shared_top_direction_pair(rng, n)
    t.track(pa, pb)
    v = parallel_definitional(pa, pb, SPECTRAL)
    t.holds("aligned pair parallel (spectral)", v)
    t.at_most("extremal scalar localizes at 1", abs(v.lambda_star - 1.0), 0.1)
    na = schatten_norm(pa, INF)
    nb = schatten_norm(pb, INF)
    # The construction attains the sum at scalar 1, so the dual combination
    # ||b|| a - ||a|| b annihilates the shared norming vector.
    z = nb * pa - na * pb
    dual = bj_definitional(pa, z, SPECTRAL)
    t.holds("parallelism yields bj dual combination", dual)
    return t


def _unit_draw(kind: str, rng, n: int) -> np.ndarray:
    """A single draw of ``kind`` scaled to spectral norm 1."""
    for _ in _redraws(f"{kind} draw"):
        j = _single(kind, rng, n)
        nj = schatten_norm(j, INF)
        if nj >= 1e-8:
            return j / nj


def _suite_radius(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S11: numerical radius laws and parallelism to the identity."""
    t = _Trial()
    tol = SUITES["S11"].tolerances
    n = cfg.dimension
    eye = np.eye(n, dtype=complex)

    a = ensembles.normal_matrix(rng, n)
    t.track(a)
    nrm = schatten_norm(a, INF)
    w = numerical_radius_hilbert(a).value
    t.at_most(
        "normal draw radius attains norm", abs(w - nrm),
        tol["radius"] * max(1.0, nrm),
    )
    t.check("normal draw identity-parallel (radius)", parallel_identity_radius(a))
    v = parallel_definitional(a, eye, SPECTRAL)
    t.holds("normal draw identity-parallel (definitional)", v)

    scal = (0.5 + rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    for p in (1.5, 3.0):
        t.check(
            f"scalar matrix identity-trace parallel p={p}",
            parallel_identity_trace(scal * eye, p),
        )
    for _ in _redraws("S11 identity-trace draw"):
        g0 = ensembles.ginibre(rng, n)
        devs = {
            p: abs(
                abs(np.trace(g0))
                - n ** ((p - 1.0) / p) * schatten_norm(g0, p)
            ) / schatten_norm(g0, p)
            for p in (1.5, 3.0)
        }
        if all(dev >= DECISIVE * PREDICATE_RTOL for dev in devs.values()):
            break
    t.track(g0)
    for p in (1.5, 3.0):
        t.check(
            f"generic draw fails identity-trace p={p}",
            not parallel_identity_trace(g0, p), -devs[p],
        )

    j = _unit_draw("nilpotent", rng, n)
    t.track(j)
    wj = numerical_radius_hilbert(j).value
    ceiling = math.cos(math.pi / (n + 1))
    t.at_most("nilpotent radius below norm", wj, ceiling + 1e-9)
    t.check(
        "nilpotent not identity-parallel (radius)",
        not parallel_identity_radius(j),
    )
    vj = parallel_definitional(j, eye, SPECTRAL)
    t.fails("nilpotent not identity-parallel (definitional)", vj)

    if offset == 0:
        jord = np.eye(2, k=1, dtype=complex)
        t.track(jord)
        wjord = numerical_radius_hilbert(jord).value
        t.at_most("jordan block radius is one half", abs(wjord - 0.5), 1e-9)
        vjord = parallel_definitional(jord, np.eye(2, dtype=complex), SPECTRAL)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        t.at_most(
            "jordan block extremal norm is the golden ratio",
            abs(vjord.achieved - phi), tol["radius"],
        )
        t.fails("jordan block not identity-parallel", vjord)

    if offset < 50:
        g = ensembles.ginibre(rng, n)
        t.track(g)
        w2 = numerical_radius_hilbert(g).value
        v2 = numerical_radius_banach(g, 2.0).value
        t.at_most(
            "l2 functional radius matches hilbert radius", abs(v2 - w2),
            tol["functional_radius"] * max(1.0, w2),
        )

        for _ in _redraws("S11 diagonal gap"):
            mods = np.sort(0.25 + 1.75 * rng.uniform(size=n))
            if mods[-1] - mods[-2] >= 0.05:
                break
        phases = np.exp(2j * math.pi * rng.uniform(size=n))
        dmat = np.diag(mods * phases)
        t.track(dmat)
        spec3 = NormSpec.induced(3.0)
        t.check(
            "diagonal identity-parallel on l3",
            parallel_identity_radius(dmat, spec3),
        )
        nil2 = np.eye(2, k=1, dtype=complex)
        t.check(
            "2x2 nilpotent not identity-parallel on l3",
            not parallel_identity_radius(nil2, spec3),
        )
    return t


def _suite_eigenvalue_criterion(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S12: identity parallelism holds iff the top eigenvalue attains the norm."""
    t = _Trial()
    tol = SUITES["S12"].tolerances
    n = cfg.dimension
    eye = np.eye(n, dtype=complex)

    a = ensembles.normal_matrix(rng, n)
    t.track(a)
    lam = eigen_parallel_identity(a)
    t.check("normal draw has eigen witness", lam is not None)
    v = parallel_definitional(a, eye, SPECTRAL)
    t.holds("normal draw identity-parallel", v)
    if lam is not None:
        nrm = schatten_norm(a, INF)
        attained = schatten_norm(a + lam * eye, INF)
        t.at_most(
            "eigen phase attains the sum", abs(attained - (nrm + 1.0)),
            tol["parallel"] * max(1.0, nrm + 1.0),
        )

    j = _unit_draw("nilpotent", rng, n)
    t.track(j)
    t.check("nilpotent has no eigen witness", eigen_parallel_identity(j) is None)
    vj = parallel_definitional(j, eye, SPECTRAL)
    t.fails("nilpotent fails identity parallelism", vj)

    if offset == 0:
        for m in range(2, 9):
            shift = np.eye(m, k=1, dtype=complex)
            t.check(
                f"truncated shift n={m} has no eigen witness",
                eigen_parallel_identity(shift) is None,
            )
            vs = parallel_definitional(shift, np.eye(m, dtype=complex), SPECTRAL)
            t.fails(f"truncated shift n={m} fails identity parallelism", vs)
            ws = numerical_radius_hilbert(shift).value
            target = math.cos(math.pi / (m + 1))
            t.at_most(
                f"truncated shift n={m} radius", abs(ws - target), tol["radius"]
            )
    return t


def _suite_nilpotent_projection(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S13: nilpotent powers never parallel; projections need a shared range."""
    t = _Trial()
    tol = SUITES["S13"].tolerances
    n = cfg.dimension
    kind = cfg.kind

    if kind in (None, "nilpotent"):
        for _ in _redraws("S13 nilpotent draw"):
            j = _unit_draw("nilpotent", rng, n)
            powers = [np.eye(n, dtype=complex)]
            for _k in range(n):
                powers.append(powers[-1] @ j)
            index = next(
                (m for m in range(1, n + 1) if _fro(powers[m]) <= 1e-12), n
            )
            pairs = [
                (k, ell)
                for k in range(1, index)
                for ell in range(k + 1, index)
                if _fro(powers[k]) > 1e-10 and _fro(powers[ell]) > 1e-10
            ]
            verdicts = {
                (k, ell): parallel_definitional(powers[k], powers[ell], SPECTRAL)
                for k, ell in pairs
            }
            if _decisive(verdicts.values()):
                break
        t.track(j)
        for (k, ell), v in verdicts.items():
            t.fails(f"powers {k} and {ell} not parallel", v)

    if kind in (None, "projection"):
        p1, q1 = ensembles.intersecting_projection_pair(rng, n)
        t.track(p1, q1)
        v1 = parallel_definitional(p1, q1, SPECTRAL)
        t.holds("intersecting projections parallel", v1)
        t.check(
            "intersecting ranges share a direction",
            _principal_cos(p1, q1) >= 1.0 - tol["parallel"],
        )

        for _ in _redraws("S13 trivially intersecting projections"):
            p2, q2 = ensembles.trivial_intersection_projection_pair(rng, n)
            if _principal_cos(p2, q2) <= 1.0 - tol["angle"]:
                break
        t.track(p2, q2)
        v2 = parallel_definitional(p2, q2, SPECTRAL)
        t.fails("trivially intersecting projections not parallel", v2)
    return t


def _suite_isometry_transfer(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S14: unitary invariance and near-isometry transfer of parallelism."""
    t = _Trial()
    n = cfg.dimension
    u = ensembles.haar_unitary(rng, n)
    uh = u.conj().T

    a, b = ensembles.dependent_pair(rng, n)
    t.track(a, b, u)
    v = parallel_definitional(a, b, SPECTRAL)
    vc = parallel_definitional(u @ a @ uh, u @ b @ uh, SPECTRAL)
    t.holds("dependent pair parallel", v)
    t.holds("unitary conjugation preserves holding verdict", vc)

    c, d, verdicts, _ = _draw_guarded_independent(cfg, rng, (INF,), trace_margin=False)
    t.track(c, d)
    vgc = parallel_definitional(u @ c @ uh, u @ d @ uh, SPECTRAL)
    t.fails("independent pair fails parallelism", verdicts[INF])
    t.fails("unitary conjugation preserves failing verdict", vgc)

    eps = 0.01 if offset % 2 == 0 else 0.05
    umap = ensembles.near_isometry(rng, n, eps)
    alpha, beta = ensembles.shared_top_direction_pair(rng, n)
    uinv = np.linalg.inv(umap)
    src_a = uinv @ alpha @ umap
    src_b = uinv @ beta @ umap
    t.track(umap, src_a, src_b)
    rep = epsilon_isometry_transfer(src_a, src_b, umap, eps)
    t.holds("conjugated pair parallel", rep.conjugated_parallel)
    t.check(
        "transfer bound holds", rep.lower_bound_ok is True,
        rep.achieved - rep.lower_bound,
    )

    if offset == 0:
        a0, b0 = ensembles.shared_top_direction_pair(rng, n)
        rep0 = epsilon_isometry_transfer(u @ a0 @ uh, u @ b0 @ uh, uh, 0.0)
        t.check(
            "exact isometry attains the full sum",
            rep0.conjugated_parallel.holds and rep0.lower_bound_ok is True,
            rep0.achieved - rep0.lower_bound,
        )

    # Smooth-space attainment: a diagonal contraction acting isometrically on
    # its norming block preserves parallelism verdicts of block vectors in
    # both directions (the l3 norm is smooth).
    spec3 = NormSpec.lp(3.0)
    for _ in _redraws("S14 block vectors"):
        phases = np.exp(2j * math.pi * rng.uniform(size=2))
        m = max(0, n - 2)
        rest = (0.1 + 0.6 * rng.uniform(size=m)) * np.exp(
            2j * math.pi * rng.uniform(size=m)
        )
        dvec = np.concatenate([phases, rest])
        amat = np.diag(dvec)
        x = np.zeros(n, dtype=complex)
        x[0] = 1.0
        yb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if min(abs(yb)) < 0.2 * max(abs(yb)):
            continue
        y = np.zeros(n, dtype=complex)
        y[:2] = yb / norm_value(yb, spec3)
        vxy = parallel_definitional(x, y, spec3)
        if _decisive((vxy,)):
            break
    t.track(dvec, x, y)
    vimg = parallel_definitional(amat @ x, amat @ y, spec3)
    t.fails("independent block vectors not parallel", vxy)
    t.fails("isometric image preserves failing verdict", vimg)
    phase = np.exp(2j * math.pi * rng.uniform())
    ydep = phase * x
    vdep = parallel_definitional(x, ydep, spec3)
    vdep_img = parallel_definitional(amat @ x, amat @ ydep, spec3)
    t.holds("dependent block vectors parallel", vdep)
    t.holds("isometric image preserves holding verdict", vdep_img)

    if offset == 0:
        _fx_max_norm_operator(t)
    return t


def _suite_hilbert_witness(cfg: EnsembleConfig, offset: int, rng) -> _Trial:
    """S15: the quadratic-form witness detects spectral parallelism on l2."""
    t = _Trial()
    align_tol = SUITES["S15"].tolerances["alignment"]
    n = cfg.dimension

    a, b = ensembles.shared_top_direction_pair(rng, n, real=True)
    t.track(a, b)
    v = parallel_definitional(a, b, SPECTRAL)
    w = hilbert_parallel_witness(a, b)
    t.holds("aligned pair parallel", v)
    t.check("witness detects parallelism", w.holds)
    na = schatten_norm(a, INF)
    nb = schatten_norm(b, INF)
    x = w.witness
    ax = a @ x
    bx = b @ x
    t.at_least(
        "witness norms the first factor", float(np.linalg.norm(ax)),
        na * (1.0 - align_tol),
    )
    t.at_least(
        "witness norms the second factor", float(np.linalg.norm(bx)),
        nb * (1.0 - align_tol),
    )
    r1 = ax / na
    r2 = bx / nb
    align = min(
        float(np.linalg.norm(r1 - r2)), float(np.linalg.norm(r1 + r2))
    )
    t.at_most("witness images align", align, align_tol)
    if np.linalg.norm(ax) > 0:
        form = abs(complex(np.vdot(ax / np.linalg.norm(ax), bx)))
        t.at_most(
            "witness attains the mixed bound", abs(form - nb),
            align_tol * max(1.0, nb),
        )

    kind = cfg.kind or "ginibre"
    for _ in _redraws("S15 non-parallel pair"):
        c, d = _unit_draw(kind, rng, n), _unit_draw(kind, rng, n)
        vf = parallel_definitional(c, d, SPECTRAL)
        if vf.gap <= -10.0 * DECISIVE * vf.tolerance:
            break
    t.track(c, d)
    wf = hilbert_parallel_witness(c, d)
    t.fails("generic pair not parallel", vf)
    t.check("witness rejects generic pair", not wf.holds)
    return t


@dataclass(frozen=True)
class SuiteSpec:
    """Registry entry: runner plus validation metadata for one suite.

    ``tolerances`` are the values the suite's checks read, and each report
    prints them as ``tolerances_used``.  A value that a library predicate
    applies by default is listed by that constant's name.
    """

    index: int
    runner: object
    title: str
    allowed_kinds: tuple[str, ...]
    dim_range: tuple[int, int]
    tolerances: dict = field(default_factory=dict)


_GENERIC_KINDS = ("ginibre", "psd", "unitary")

SUITES: dict[str, SuiteSpec] = {
    "S1": SuiteSpec(
        1, _suite_clarkson,
        "Clarkson-McCarthy directions, equality law, positive-pair bounds",
        _GENERIC_KINDS, (2, 8),
        {"direction": 1e-9, "equality": 1e-7},
    ),
    "S2": SuiteSpec(
        2, _suite_disjoint_implies_bj,
        "Disjoint supports imply mutual Birkhoff-James orthogonality",
        ("commuting_kernel_pair", "disjoint_pair"),
        (2, 8), {"bj": PREDICATE_RTOL},
    ),
    "S3": SuiteSpec(
        3, _suite_bj_implies_disjoint,
        "Positive mutual BJ orthogonality forces disjoint supports",
        (), (2, 8), {"bj": PREDICATE_RTOL, "residual": 1e-6},
    ),
    "S4": SuiteSpec(
        4, _suite_isosceles,
        "Isosceles orthogonality matches BJ on the positive cone",
        (), (2, 8), {"isosceles": PREDICATE_RTOL, "bj": PREDICATE_RTOL},
    ),
    "S5": SuiteSpec(
        5, _suite_sip,
        "Semi-inner-product axioms and the BJ trace test",
        _GENERIC_KINDS, (2, 8), {"axioms": 1e-8, "bj": PREDICATE_RTOL},
    ),
    "S6": SuiteSpec(
        6, _suite_identity_trace,
        "Identity is BJ orthogonal to A exactly when tr A = 0",
        _GENERIC_KINDS, (2, 8), {"bj": PREDICATE_RTOL, "trace": 1e-7},
    ),
    "S7": SuiteSpec(
        7, _suite_loewner_identity,
        "Only zero keeps |I + gamma A| above I for every gamma",
        _GENERIC_KINDS + ("nilpotent", "partial_isometry"),
        (2, 8), {"modulus": RANK_RTOL},
    ),
    "S8": SuiteSpec(
        8, _suite_loewner_domination,
        "Modulus domination forces trace orthogonality, kernels, and BJ",
        (), (2, 8), {"modulus": RANK_RTOL, "bj": PREDICATE_RTOL},
    ),
    "S9": SuiteSpec(
        9, _suite_parallel_dependence,
        "Schatten parallelism is linear dependence for 1 < p < inf",
        _GENERIC_KINDS, (2, 8),
        {"parallel": PREDICATE_RTOL, "dependence": DEPENDENCE_RTOL},
    ),
    "S10": SuiteSpec(
        10, _suite_trace_characterization,
        "Four-way trace characterization of parallelism plus BJ duality",
        _GENERIC_KINDS, (2, 8), {"parallel": PREDICATE_RTOL, "trace": 1e-7},
    ),
    "S11": SuiteSpec(
        11, _suite_radius,
        "Numerical radius laws and parallelism to the identity",
        (), (2, 8), {"radius": PREDICATE_RTOL, "functional_radius": LP_RADIUS_RTOL},
    ),
    "S12": SuiteSpec(
        12, _suite_eigenvalue_criterion,
        "Eigenvalue criterion for parallelism to the identity",
        (), (2, 8), {"parallel": PREDICATE_RTOL, "radius": 1e-6},
    ),
    "S13": SuiteSpec(
        13, _suite_nilpotent_projection,
        "Nilpotent power pairs never parallel; projections need shared range",
        ("nilpotent", "projection"), (2, 6),
        {"parallel": PREDICATE_RTOL, "angle": 1e-3},
    ),
    "S14": SuiteSpec(
        14, _suite_isometry_transfer,
        "Unitary invariance and near-isometry transfer of parallelism",
        _GENERIC_KINDS + ("partial_isometry",), (2, 8),
        {"parallel": PREDICATE_RTOL, "transfer": PREDICATE_RTOL},
    ),
    "S15": SuiteSpec(
        15, _suite_hilbert_witness,
        "Quadratic-form witness for spectral parallelism on l2",
        _GENERIC_KINDS, (2, 8),
        {"witness": PREDICATE_RTOL, "alignment": 1e-6},
    ),
}


def _validate(suite_id: str, config: EnsembleConfig) -> SuiteSpec:
    if suite_id not in SUITES:
        raise KeyError(
            f"unknown suite {suite_id!r}; expected one of {sorted(SUITES)}"
        )
    spec = SUITES[suite_id]
    lo, hi = spec.dim_range
    if not (lo <= config.dimension <= hi):
        raise ValueError(f"suite {suite_id} supports dimensions in [{lo}, {hi}]")
    if config.kind is not None and config.kind not in spec.allowed_kinds:
        raise ValueError(
            f"suite {suite_id} does not accept ensemble kind {config.kind!r}"
        )
    return spec


def run_suite(suite_id: str, config: EnsembleConfig | None = None) -> SuiteReport:
    """Run one law suite and report per-trial outcomes.

    Deterministic: the same (suite_id, config) always produces the same
    report, including the exact failure records.
    """
    cfg = config or EnsembleConfig()
    spec = _validate(suite_id, cfg)
    passes = 0
    failures: list[FailureRecord] = []
    for offset in range(cfg.trials):
        rng = rng_for(cfg.seed, spec.index, offset)
        trial = spec.runner(cfg, offset, rng)
        if trial.ok:
            passes += 1
        else:
            failures.append(
                FailureRecord(
                    seed_offset=offset,
                    inputs_digest=trial.digest(),
                    observed_gap=trial.observed_gap,
                    detail=trial.detail(),
                )
            )
    return SuiteReport(
        suite_id=suite_id,
        config=cfg,
        trials=cfg.trials,
        passes=passes,
        failures=tuple(failures),
        tolerances_used=dict(spec.tolerances),
    )


def replay_failure(
    suite_id: str,
    seed: int,
    offset: int,
    config: EnsembleConfig | None = None,
    *,
    printer=print,
) -> bool:
    """Re-run a single trial verbosely, regenerating its exact draw.

    ``config`` must match the original run's dimension and kind for the
    draw to reproduce; seed and offset pin the stream coordinates.
    Returns True when the replayed trial passes.
    """
    _require_int("offset", offset, 0)
    base = config or EnsembleConfig()
    cfg = EnsembleConfig(
        kind=base.kind, dimension=base.dimension,
        trials=max(base.trials, offset + 1), seed=seed,
    )
    spec = _validate(suite_id, cfg)
    rng = rng_for(seed, spec.index, offset)
    trial = spec.runner(cfg, offset, rng)
    printer(
        f"replay {suite_id} seed={seed} offset={offset} "
        f"dim={cfg.dimension} kind={cfg.kind or 'default'}"
    )
    printer(f"inputs digest: {trial.digest()}")
    for name, ok, gap in trial.checks:
        printer(f"  {'PASS' if ok else 'FAIL'}  {name}  (gap={gap:.6e})")
    printer(f"trial {'passed' if trial.ok else 'FAILED'}")
    return trial.ok


# ---------------------------------------------------------------------------
# Curated fixtures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureResult:
    name: str
    ok: bool
    details: tuple[str, ...]


@dataclass(frozen=True)
class Fixture:
    """A named, hand-checked example with a self-contained runner."""

    name: str
    summary: str
    runner: object

    def run(self) -> FixtureResult:
        t = _Trial()
        self.runner(t)
        details = tuple(
            f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok, _ in t.checks
        )
        return FixtureResult(self.name, t.ok, details)


def _fx_identity_vs_traceless(t: _Trial) -> None:
    eye = np.eye(2, dtype=complex)
    a = np.diag([0.5, -0.5]).astype(complex)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        t.holds(
            f"identity bj-orthogonal to diag(1/2,-1/2) at p={p}",
            bj_definitional(eye, a, NormSpec.schatten(p)),
        )
    for p in (1.5, 2.0, 3.0):
        t.check(f"trace route agrees at p={p}", bj_trace(eye, a, p))
        sip = semi_inner_product(a, eye, p)
        t.at_most(f"semi-inner product vanishes at p={p}", abs(sip), 1e-12)


def _fx_trace_norm_asymmetry(t: _Trial) -> None:
    a = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    t.holds(
        "rank-one bj-orthogonal to identity in trace norm",
        bj_definitional(a, eye, NormSpec.schatten(1.0)),
    )
    t.fails(
        "identity not bj-orthogonal to rank-one (asymmetry)",
        bj_definitional(eye, a, NormSpec.schatten(1.0)),
    )
    rep = disjoint_supports(a, eye)
    t.check("supports overlap on the right", not rep.right_disjoint)
    t.check("supports overlap on the left", not rep.left_disjoint)


def _fx_endpoint_parallelism(t: _Trial) -> None:
    a = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    v1 = parallel_definitional(a, eye, NormSpec.schatten(1.0))
    t.holds("parallel in trace norm", v1)
    t.at_most("trace-norm extremal value is 3", abs(v1.achieved - 3.0), 1e-12)
    vi = parallel_definitional(a, eye, NormSpec.schatten(INF))
    t.holds("parallel in spectral norm", vi)
    t.at_most("spectral extremal value is 2", abs(vi.achieved - 2.0), 1e-12)
    v2 = parallel_definitional(a, eye, NormSpec.schatten(2.0))
    t.fails("not parallel in frobenius norm", v2)
    t.check("pair is linearly independent", not linearly_dependent(a, eye))
    t.check(
        "invertible trace-norm criterion detects parallelism",
        parallel_trace_class(eye, a),
    )


def _fx_modulus_counterexample(t: _Trial) -> None:
    b = np.eye(2, dtype=complex)
    a = np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex)
    t.at_most(
        "perturbation is trace orthogonal", abs(np.trace(b.conj().T @ a)), 1e-12
    )
    evals = np.sort(np.linalg.eigvalsh(modulus(b + a)))
    expected = np.array([math.sqrt(2.0) - 1.0, math.sqrt(2.0) + 1.0])
    t.at_most(
        "modulus eigenvalues are sqrt(2) -/+ 1",
        float(np.max(np.abs(evals - expected))), 1e-9,
    )
    t.check(
        "modulus does not dominate the identity",
        not loewner_geq(modulus(b + a), b),
    )
    rep = loewner_domination(b, a)
    t.check("domination report rejects the pair", not rep.dominates)
    t.check("domination report confirms trace orthogonality", rep.trace_orthogonal)


def _fx_max_norm_vectors(t: _Trial) -> None:
    spec = NormSpec.max_norm()
    x = np.array([1.0, -1.0], dtype=complex)
    y = np.array([-1.0, -1.0], dtype=complex)
    v = parallel_definitional(x, y, spec)
    t.holds("max-norm vectors parallel", v)
    t.at_most("extremal sum is 2", abs(v.achieved - 2.0), 1e-9)
    ex = np.array([0.0, 1.0], dtype=complex)
    ey = np.array([-1.0, 0.0], dtype=complex)
    v2 = parallel_definitional(ex, ey, spec)
    t.fails("disjointly supported unit vectors not parallel (max norm)", v2)
    t.at_most("their extremal sum stays at 1", abs(v2.achieved - 1.0), 1e-9)


def _fx_max_norm_operator(t: _Trial) -> None:
    half = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    spec = NormSpec.max_norm()
    t.at_most(
        "averaging operator has max-norm 1",
        abs(norm_value(half, NormSpec.induced(INF)) - 1.0), 1e-9,
    )
    x = np.array([1.0, -1.0], dtype=complex)
    y = np.array([-1.0, -1.0], dtype=complex)
    t.holds("source vectors parallel", parallel_definitional(x, y, spec))
    t.fails(
        "images not parallel (attainment transfer needs smoothness)",
        parallel_definitional(half @ x, half @ y, spec),
    )
    ns = norming_set(half, spec)
    ones = np.array([1.0, 1.0], dtype=complex)
    found = any(
        min(float(np.linalg.norm(m - w)), float(np.linalg.norm(m + w))) <= 1e-6
        for m in ns.members
        for w in (ones, x)
    )
    t.check("norming set contains a sign-pattern witness", found)


def _fx_negated_identity(t: _Trial) -> None:
    eye = np.eye(2, dtype=complex)
    a = -eye
    w = numerical_radius_hilbert(a)
    t.at_most("radius of -I equals its norm", abs(w.value - 1.0), 1e-9)
    t.check("-I identity-parallel by radius", parallel_identity_radius(a))
    lam = eigen_parallel_identity(a)
    t.check("eigen witness is -1", lam is not None and abs(lam + 1.0) <= 1e-9)
    v = parallel_definitional(a, eye, SPECTRAL)
    t.holds("definitional parallelism holds", v)
    t.at_most("extremal scalar lands at -1", abs(v.lambda_star + 1.0), 1e-6)
    t.at_most(
        "the naive scalar +1 collapses the sum", schatten_norm(a + eye, INF), 1e-12
    )


_FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        "identity-vs-traceless-diagonal",
        "I is BJ orthogonal to diag(1/2, -1/2) for p in {1, 1.5, 2, 3, inf}",
        _fx_identity_vs_traceless,
    ),
    Fixture(
        "trace-norm-asymmetry",
        "diag(1,0) is trace-norm BJ orthogonal to I but not conversely",
        _fx_trace_norm_asymmetry,
    ),
    Fixture(
        "endpoint-parallelism",
        "diag(1,0) is parallel to I at p in {1, inf} but not at p = 2",
        _fx_endpoint_parallelism,
    ),
    Fixture(
        "modulus-domination-counterexample",
        "a trace-orthogonal perturbation of I whose modulus drops below I",
        _fx_modulus_counterexample,
    ),
    Fixture(
        "max-norm-vector-parallelism",
        "sign vectors in the max norm: a parallel pair and a non-parallel pair",
        _fx_max_norm_vectors,
    ),
    Fixture(
        "max-norm-averaging-operator",
        "norm-attaining operator on the max norm breaking parallelism transfer",
        _fx_max_norm_operator,
    ),
    Fixture(
        "negated-identity-radius",
        "-I attains its numerical radius and is parallel to I with scalar -1",
        _fx_negated_identity,
    ),
)


def fixtures() -> tuple[Fixture, ...]:
    """The curated fixture registry, in canonical order."""
    return _FIXTURES


def run_fixtures() -> tuple[FixtureResult, ...]:
    """Run every fixture and return the results in registry order."""
    return tuple(f.run() for f in _FIXTURES)
