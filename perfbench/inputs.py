"""Seeded input generation for the four benchmark workloads.

Every workload is an endless sequence of blocks; a block is a list of items
and the timed loop stops only between blocks, so every run measures whole
blocks of one fixed composition.  The same seed always yields the same
sequence.  This module imports nothing from jcouple: the program under test
receives only what is generated here.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("audit-grid", "kernel-sweep", "radical", "schemes-spectra")

# --- audit-grid: the verify grids; one block runs each once, in seeded order,
# except first-sym, the heaviest grid, which runs twice: that puts the median
# record inside the dense band of first-sym records instead of on the sparse
# edge between them and the much cheaper univalence/compat records.
AUDIT_GRIDS = (
    ("verify", "--prop", "first-sym", "--grid", "n=4,jmax=1"),
    ("verify", "--prop", "kramers", "--grid", "n=4,jmax=1"),
    ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=3/2"),
    ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=3/2", "--interpretation", "same-state"),
    ("verify", "--prop", "univalence", "--grid", "n=4,jmax=2"),
    ("verify", "--prop", "compat", "--grid", "n=4,jmax=2"),
)

# --- kernel-sweep: j1 log-uniform over [J_LO, J_HI], stratified so that every
# block holds one fresh tuple per stratum; REPEATS_PER_BLOCK further calls per
# block repeat a uniformly chosen earlier call, so the share of repeats is
# REPEATS_PER_BLOCK / (STRATA + REPEATS_PER_BLOCK) = 20%.
J_LO, J_HI = 0.5, 400.0
STRATA = 64
REPEATS_PER_BLOCK = 16

# --- radical: coefficient pairs with j1, j2 log-uniform over [RADICAL_J_LO,
# RADICAL_J_HI], stratified per block; a block is one phased sum of
# RADICAL_TERMS products.  The fixed tuple is the documented to_sum hang; it
# opens the first block of every seed.
RADICAL_J_LO, RADICAL_J_HI = 10, 60
RADICAL_TERMS = 8
RADICAL_FIXED = (60, 12, 80, -44, 104, -32)  # twice (30, 6, 40, -22, 52, -16)

# --- schemes-spectra: 40 calls per block in three latency classes, so that
# the median lands among the kepler calls and the p99 inside the n=8 class:
# one n=8 diagram at a seeded index (2.5% of calls), twice `schemes --n 7`,
# once its count-only, DIAGRAMS_N7_PER_BLOCK seeded n=7 diagrams and one
# kepler call per (z, jcut) pair with seeded statistics and format (80%).
SCHEME_COUNTS = {7: 10395, 8: 135135}
DIAGRAM_POOL = {
    n: tuple(sorted({0, count - 1} | {(i * 4099 + 17) % count for i in range(30)}))
    for n, count in SCHEME_COUNTS.items()
}
KEPLER_PAIRS = tuple(
    (z, tj) for z, tj_top in ((1, 10), (2, 10), (3, 5), (4, 3)) for tj in range(0, tj_top + 1)
)
KEPLER_VARIANTS = tuple((stats, fmt) for stats in ("boson", "fermion") for fmt in ("json", "csv"))


def kepler_argv(z: int, tj: int, stats: str, fmt: str) -> tuple[str, ...]:
    jcut = f"{tj}/2" if tj % 2 else str(tj // 2)
    argv = ("kepler", "--z", str(z), "--jcut", jcut, "--stats", stats)
    return argv + (("--format", "csv") if fmt == "csv" else ())


KEPLER_POOL = tuple(kepler_argv(z, tj, *v) for z, tj in KEPLER_PAIRS for v in KEPLER_VARIANTS)
SCHEMES_FIXED = (
    ("schemes", "--n", "7"),
    ("schemes", "--n", "7"),
    ("schemes", "--n", "7", "--count-only"),
)
DIAGRAMS_N7_PER_BLOCK = 4


def blocks(workload: str, seed: int) -> Iterator[list]:
    """The endless block sequence of one workload under one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit-grid":
        return _audit_blocks(rng)
    if workload == "kernel-sweep":
        return _kernel_blocks(rng)
    if workload == "radical":
        return _radical_blocks(rng)
    if workload == "schemes-spectra":
        return _schemes_blocks(rng)
    raise ValueError(f"unknown workload {workload!r}")


def take_blocks(workload: str, seed: int, count: int) -> list[list]:
    gen = blocks(workload, seed)
    return [next(gen) for _ in range(count)]


def _audit_blocks(rng: random.Random) -> Iterator[list]:
    while True:
        block = [list(argv) for argv in AUDIT_GRIDS + AUDIT_GRIDS[:1]]
        rng.shuffle(block)
        yield block


def random_cg_tuple(rng: random.Random, tj1: int, tj2: int) -> tuple[int, ...]:
    """Twice-arguments (j1, m1, j2, m2, j, m) obeying every selection rule."""
    tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    tm1 = rng.randrange(-tj1, tj1 + 1, 2)
    lo, hi = max(-tj2, -tj - tm1), min(tj2, tj - tm1)
    tm2 = rng.randrange(lo, hi + 1, 2)  # lo has the parity of tj2
    return (tj1, tm1, tj2, tm2, tj, tm1 + tm2)


def _kernel_blocks(rng: random.Random) -> Iterator[list]:
    history: list[tuple[str, tuple[int, ...]]] = []
    log_lo, log_hi = math.log(J_LO), math.log(J_HI)
    while True:
        fresh = []
        for stratum in range(STRATA):
            u = (stratum + rng.random()) / STRATA
            tj1 = max(1, round(2 * math.exp(log_lo + u * (log_hi - log_lo))))
            tj2 = rng.randint((tj1 + 1) // 2, tj1)
            kind = "cg" if rng.random() < 0.5 else "three_j"
            fresh.append((kind, random_cg_tuple(rng, tj1, tj2)))
        rng.shuffle(fresh)
        # position 0 is always fresh, so a repeat always has an earlier call
        repeat_at = set(rng.sample(range(1, STRATA + REPEATS_PER_BLOCK), REPEATS_PER_BLOCK))
        block = []
        for position in range(STRATA + REPEATS_PER_BLOCK):
            if position in repeat_at:
                pool_size = len(history) + len(block)
                pick = rng.randrange(pool_size)
                op = history[pick] if pick < len(history) else block[pick - len(history)]
            else:
                op = fresh.pop()
            block.append(op)
        history.extend(block)
        yield block


def _radical_blocks(rng: random.Random) -> Iterator[list]:
    log_lo, log_hi = math.log(RADICAL_J_LO), math.log(RADICAL_J_HI)

    def stratified() -> list[int]:
        """One twice-j from each log-uniform stratum, in random order."""
        strata = list(range(RADICAL_TERMS))
        rng.shuffle(strata)
        return [
            round(2 * math.exp(log_lo + (s + rng.random()) / RADICAL_TERMS * (log_hi - log_lo)))
            for s in strata
        ]

    first = True
    while True:
        # each of the four momenta (j1, j2 of both coefficients) is stratified
        # on its own, so every block holds the same spread of sizes
        j1a, j2a, j1b, j2b = (stratified() for _ in range(4))
        block = [
            (
                random_cg_tuple(rng, j1a[i], j2a[i]),
                random_cg_tuple(rng, j1b[i], j2b[i]),
                rng.randrange(4),
            )
            for i in range(RADICAL_TERMS)
        ]
        if first:
            block[0] = (RADICAL_FIXED, block[0][1], block[0][2])
            first = False
        yield block


def _schemes_blocks(rng: random.Random) -> Iterator[list]:
    while True:
        block = [list(argv) for argv in SCHEMES_FIXED]
        block.append(["diagram", "--n", "8", "--scheme", str(rng.choice(DIAGRAM_POOL[8]))])
        for k in rng.sample(DIAGRAM_POOL[7], DIAGRAMS_N7_PER_BLOCK):
            block.append(["diagram", "--n", "7", "--scheme", str(k)])
        block.extend(list(kepler_argv(z, tj, *rng.choice(KEPLER_VARIANTS))) for z, tj in KEPLER_PAIRS)
        rng.shuffle(block)
        yield block


def digest_argvs() -> list[tuple[str, ...]]:
    """Every argv the CLI workloads can generate, for the recorded digests."""
    argvs = list(AUDIT_GRIDS) + list(dict.fromkeys(SCHEMES_FIXED)) + list(KEPLER_POOL)
    for n, pool in DIAGRAM_POOL.items():
        argvs.extend(("diagram", "--n", str(n), "--scheme", str(k)) for k in pool)
    return argvs
