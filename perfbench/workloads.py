"""Seeded instance pools for the benchmark workloads.

Every value is drawn here from one random.Random(seed), independently of
mmsfair.generators, so the program under test sees only the JSON files.
Shapes (agent and good counts) follow a fixed design stratified across
their ranges (see _shapes), and the kinds of instance alternate in a fixed
cycle: each pool then covers its ranges evenly, the same way for every
seed, which keeps the cost of a pool close from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("additive-large", "audit-exact", "submodular")

# Cases per block: every block is a balanced sample of its workload (the
# kinds of instance cycle within it, shapes are stratified over it), and a
# run times whole blocks. Each block's size is odd and its kinds of instance
# unevenly split, so that the median latency falls inside one kind's cluster
# rather than in the gap between two.
BLOCK = {"additive-large": 9, "audit-exact": 15, "submodular": 9}

ORACLE_BUDGET = 10**8  # the CLI's default --oracle-budget


@dataclass(frozen=True)
class Case:
    """One instance of a workload and the CLI subcommands run on it, in order."""

    name: str
    instance: str  # instance JSON text, format version 1
    commands: tuple[str, ...]


@dataclass(frozen=True)
class Size:
    """Shape ranges for one size of every workload, and pool sizes in cases."""

    additive_n: tuple[int, int]
    additive_m: tuple[int, int]
    audit_n: tuple[int, ...]
    exact_n: tuple[int, int]
    exact_m: tuple[int, int]
    fallback_n: tuple[int, int]
    fallback_m: tuple[int, int]
    pool: dict


FULL = Size(
    additive_n=(10, 20),
    additive_m=(100, 200),
    audit_n=(3, 4, 5),
    exact_n=(3, 4),
    exact_m=(10, 12),
    fallback_n=(6, 8),
    fallback_m=(40, 60),
    # about twice what a 36 s run gets through on a 2-core x86 VM
    pool={"additive-large": 63, "audit-exact": 600, "submodular": 72},
)

# A few milliseconds per instance: for the benchmark's own test.
SMOKE = Size(
    additive_n=(3, 4),
    additive_m=(10, 14),
    audit_n=(2, 3),
    exact_n=(2, 3),
    exact_m=(5, 6),
    fallback_n=(4, 4),
    fallback_m=(14, 15),
    pool={"additive-large": 9, "audit-exact": 15, "submodular": 9},
)

SIZES = {"full": FULL, "smoke": SMOKE}


def edge_m(n: int, budget: int = ORACLE_BUDGET) -> int:
    """Largest m with n^m within the oracle budget."""
    m = 1
    while n ** (m + 1) <= budget:
        m += 1
    return m


def _shapes(
    count: int, n_range: tuple[int, int], m_range: tuple[int, int], block: int
) -> list[tuple[int, int]]:
    """count (n, m) shapes on a fixed design, the same for every seed. In
    each run of `block` shapes, shape k takes n from stratum k of n_range and
    m from stratum step * k mod block of m_range, the strata being equal
    parts of each range and step a fixed number prime to block. The place
    within the strata moves from run to run along a low-discrepancy
    sequence, so the pool covers the ranges. Shapes set most of an
    instance's cost; drawing only the values from the seed keeps the cost of
    a pool, and of each position in it, close from seed to seed."""

    def pick(lo, hi, k, size, offset):
        return lo + int((k + offset) * (hi - lo + 1) / size)

    out = []
    for b, start in enumerate(range(0, count, block)):
        size = min(block, count - start)
        step = next(s for s in (3, 5, 7, 1) if gcd(s, size) == 1)
        u, v = (0.5 + b * 0.6180339887) % 1, (0.5 + b * 0.4142135624) % 1
        out += [
            (pick(*n_range, k, size, u), pick(*m_range, step * k % size, size, v))
            for k in range(size)
        ]
    return out


def _value(draw, hi: int, fractional: bool, sign: int) -> int | str:
    """A value in [0, hi] (times sign): an int, or a 'p/q' string with q <= 9.
    draw is a Random's random(), which is much cheaper than randint."""
    if fractional:
        q = 2 + int(draw() * 8)
        p = int(draw() * (hi * q + 1))
        return f"{sign * p}/{q}" if p else 0
    return sign * int(draw() * (hi + 1))


def _additive_doc(
    rng: random.Random, n: int, m: int, chores: bool, hi: int,
    fractional: bool, sorted_share: float,
) -> str:
    sign = -1 if chores else 1
    draw = rng.random
    rows = []
    for _ in range(n):
        row = [_value(draw, hi, fractional, sign) for _ in range(m)]
        if draw() < sorted_share:
            # pre-sorted: largest magnitude first, the order the solvers reduce to
            row.sort(key=lambda v: -abs(Fraction(v)))
        rows.append(row)
    doc = {
        "version": 1,
        "kind": "additive-chores" if chores else "additive-goods",
        "n": n,
        "m": m,
        "values": rows,
    }
    return json.dumps(doc)


def _additive_large(rng: random.Random, size: Size, count: int) -> list[Case]:
    # Nine shapes a block: an odd count puts the median inside one shape's
    # cluster of latencies rather than in the gap between two.
    block = BLOCK["additive-large"]
    shapes = _shapes(count, size.additive_n, size.additive_m, block)
    cases = []
    for k, (n, m) in enumerate(shapes):
        b, j = divmod(k, block)
        chores = (j + b) % 2 == 1
        fractional = j in (2, 6)  # two of nine, goods and chores alike across blocks
        text = _additive_doc(rng, n, m, chores, 100, fractional, sorted_share=0.2)
        command = "solve-chores" if chores else "solve-additive"
        cases.append(Case(f"a{k:03d}", text, (command,)))
    return cases


def _audit_exact(rng: random.Random, size: Size, count: int) -> list[Case]:
    # a block of 15: each n five times, three with narrow values and two with
    # wide ones. Two chores: n = 3 narrow and n = 5 wide. The six cheap cases
    # (n = 5 and the n = 3 chores) put the median among the n = 4 ones, and
    # n = 3's two wide goods rows, the costliest kind, hold the tail.
    block = BLOCK["audit-exact"]
    cases = []
    for k in range(count):
        j = k % block
        n = size.audit_n[j % len(size.audit_n)]
        m = edge_m(n) - 3 if size is FULL else n + 3
        chores = j in (6, 11)
        wide = (j // len(size.audit_n)) in (1, 3)
        text = _additive_doc(rng, n, m, chores, 10**6 if wide else 100, False, 0.0)
        command = "solve-chores" if chores else "solve-additive"
        cases.append(Case(f"x{k:03d}", text, (command, "mms-exact")))
    return cases


def _coverage_agent(rng: random.Random, m: int) -> dict:
    universe = m + rng.randint(1, 3)
    weights = [rng.randint(1, 100) for _ in range(universe)]
    covers = [
        sorted(rng.sample(range(universe), rng.randint(1, 3))) for _ in range(m)
    ]
    return {"family": "coverage", "weights": weights, "covers": covers}


def _budget_agent(rng: random.Random, m: int) -> dict:
    weights = [rng.randint(1, 100) for _ in range(m)]
    total = sum(weights)
    cap = rng.randint(total // 3, 2 * total // 3)
    return {"family": "budget-additive", "weights": weights, "cap": cap}


def _submodular(rng: random.Random, size: Size, count: int) -> list[Case]:
    # a block of 9: two exact-band instances (the tail) at positions 0 and 5,
    # and seven fallback-band ones (the bulk), each band stratified over its
    # shapes. Budget-additive at positions 3 and 5, coverage elsewhere: the
    # median falls inside the fallback coverage cases' cluster.
    block = BLOCK["submodular"]
    blocks = count // block
    exact = _shapes(2 * blocks, size.exact_n, size.exact_m, 2)
    fallback = _shapes(7 * blocks, size.fallback_n, size.fallback_m, 7)
    cases = []
    for k in range(count):
        b, j = divmod(k, block)
        if j in (0, 5):
            n, m = exact[2 * b + j // 5]
        else:
            n, m = fallback[7 * b + j - 1 - j // 5]
        make = _budget_agent if j in (3, 5) else _coverage_agent
        doc = {
            "version": 1,
            "kind": "submodular",
            "n": n,
            "m": m,
            "agents": [make(rng, m) for _ in range(n)],
        }
        cases.append(
            Case(f"s{k:03d}", json.dumps(doc), ("solve-submodular",))
        )
    return cases


_BUILDERS = {
    "additive-large": _additive_large,
    "audit-exact": _audit_exact,
    "submodular": _submodular,
}


def build_pool(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The seeded instance pool of a workload; the same seed gives the same pool."""
    spec = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, spec, spec.pool[workload])
