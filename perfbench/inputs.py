"""Seeded inputs for the benchmark's workloads, made with numpy alone.

One round of a workload is a fixed list of operations drawn from ``--seed``;
every run repeats whole rounds of that list.  Pair types are interleaved so
each stretch of a round mixes them alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Pairs of each type in one round.
PER_TYPE = 8
#: Matrix sizes: ortho-pairs at the suites' default size, parallel-pairs at
#: the suites' largest.
ORTHO_DIM = 4
PARALLEL_DIM = 8
#: Scale of the scaled pair types.
SMALL = 1e-8
#: Seed of the fixed stream behind parallel-pairs' scaled pairs.  Those
#: operations fail on the program as it stands (absolute tolerance floors in
#: ``parallel.py``), so their inputs must not depend on ``--seed``: then the
#: failed share of a run is the same for every seed.
FIXED_SCALED_SEED = 5
#: verify-registry: law-suite trials per suite in one round, at dimension 4.
#: A trial of S11 costs about 1 s and one of S15 about 0.3 s, against
#: 5-100 ms for the rest, and their cost varies most from draw to draw; at
#: equal counts those two suites would set both the pass time and its 90th
#: percentile, and every seed would move them.  Fewer trials of the two keep
#: their layers in every pass, and 24 trials of S8 (about 0.1 s each, close
#: to constant) put the 90th percentile inside one steady cluster.
VERIFY_TRIALS = {"S8": 24, "S11": 3, "S15": 6}
VERIFY_DEFAULT_TRIALS = 12
VERIFY_DIM = 4

ORTHO_TYPES = ("disjoint", "commuting_psd", "overlapping_psd", "generic", "generic_scaled")
PARALLEL_TYPES = ("dependent", "independent", "normal", "nilpotent", "independent_scaled")


@dataclass(frozen=True)
class PairOp:
    """One operation's inputs.

    ``partner`` is the index of the unscaled pair a scaled pair came from
    (ortho-pairs); ``coef`` is c in b = c a for dependent pairs.
    """

    index: int
    kind: str
    a: np.ndarray
    b: np.ndarray
    partner: int | None = None
    coef: complex | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0xBE7C, stream, int(seed)]))


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ginibre(rng, n: int) -> np.ndarray:
    return _gaussian(rng, (n, n)) / math.sqrt(2.0 * n)


def unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def disjoint_pair(rng, n: int):
    """Pair with a b* = 0 and a* b = 0 (disjoint supports on both sides)."""
    k = int(rng.integers(1, n))
    u, v = unitary(rng, n), unitary(rng, n)
    m1 = _gaussian(rng, (k, k)) / math.sqrt(2.0 * k)
    m2 = _gaussian(rng, (n - k, n - k)) / math.sqrt(2.0 * (n - k))
    return u[:, :k] @ m1 @ v[:, :k].conj().T, u[:, k:] @ m2 @ v[:, k:].conj().T


def commuting_psd_pair(rng, n: int):
    """Simultaneously diagonal PSD pair with disjoint eigen-supports and one
    direction in both kernels."""
    k = int(rng.integers(1, n - 1))
    q = unitary(rng, n)
    da, db = np.zeros(n), np.zeros(n)
    da[:k] = 0.5 + 1.5 * rng.uniform(size=k)
    db[k:n - 1] = 0.5 + 1.5 * rng.uniform(size=n - 1 - k)
    a, b = (q * da) @ q.conj().T, (q * db) @ q.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def psd(rng, n: int) -> np.ndarray:
    g = _gaussian(rng, (n, n))
    h = g @ g.conj().T / n
    return 0.5 * (h + h.conj().T)


def ortho_round(seed: int) -> list[PairOp]:
    """ortho-pairs: 4x4 pairs of the five ``ORTHO_TYPES``, interleaved."""
    rng = _rng(seed, 1)
    n = ORTHO_DIM
    ops: list[PairOp] = []
    generic_at: list[int] = []
    for i in range(PER_TYPE):
        for kind in ORTHO_TYPES:
            idx = len(ops)
            if kind == "disjoint":
                a, b = disjoint_pair(rng, n)
            elif kind == "commuting_psd":
                a, b = commuting_psd_pair(rng, n)
            elif kind == "overlapping_psd":
                a, b = psd(rng, n), psd(rng, n)
            elif kind == "generic":
                a, b = ginibre(rng, n), ginibre(rng, n)
                generic_at.append(idx)
            else:
                src = ops[generic_at[i]]
                ops.append(PairOp(idx, kind, SMALL * src.a, SMALL * src.b, partner=src.index))
                continue
            ops.append(PairOp(idx, kind, a, b))
    return ops


def independent_pair(rng, n: int):
    """Generic pair whose [vec a, vec b] has sigma_2 / sigma_1 >= 0.1."""
    while True:
        a, b = ginibre(rng, n), ginibre(rng, n)
        s = np.linalg.svd(np.column_stack([a.ravel(), b.ravel()]), compute_uv=False)
        if s[1] >= 0.1 * s[0]:
            return a, b


def normal_with_top_gap(rng, n: int) -> np.ndarray:
    """Normal matrix whose largest eigenvalue modulus leads the next by >= 0.1."""
    while True:
        mods = np.sort(0.25 + 1.75 * rng.uniform(size=n))
        if mods[-1] - mods[-2] >= 0.1:
            break
    u = unitary(rng, n)
    spectrum = mods * np.exp(2j * math.pi * rng.uniform(size=n))
    return (u * spectrum) @ u.conj().T


def parallel_round(seed: int) -> list[PairOp]:
    """parallel-pairs: 8x8 pairs of the five ``PARALLEL_TYPES``, interleaved."""
    rng = _rng(seed, 2)
    fixed = _rng(FIXED_SCALED_SEED, 3)
    n = PARALLEL_DIM
    eye = np.eye(n, dtype=complex)
    ops: list[PairOp] = []
    for _ in range(PER_TYPE):
        for kind in PARALLEL_TYPES:
            idx = len(ops)
            if kind == "dependent":
                a = ginibre(rng, n)
                c = complex((0.5 + 1.5 * rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
                ops.append(PairOp(idx, kind, a, c * a, coef=c))
            elif kind == "independent":
                ops.append(PairOp(idx, kind, *independent_pair(rng, n)))
            elif kind == "normal":
                ops.append(PairOp(idx, kind, normal_with_top_gap(rng, n), eye))
            elif kind == "nilpotent":
                t = np.triu(_gaussian(rng, (n, n)), k=1)
                t = t / np.linalg.norm(t, 2)
                ops.append(PairOp(idx, kind, t, eye))
            else:
                a, b = independent_pair(fixed, n)
                ops.append(PairOp(idx, kind, SMALL * a, SMALL * b))
    return ops
