"""Chores variants: sink-based allocation for many chores, pairing for few."""

import random
from fractions import Fraction

from mmsfair.chores import lpt_chores_partition, solve_chores
from mmsfair.model import CHORES, AdditiveInstance
from mmsfair.oracles import mms_exact_additive


def many_chores():
    rng = random.Random(11)
    n, m = 3, 9
    inst = AdditiveInstance(
        [[-rng.randint(1, 40) for _ in range(m)] for _ in range(n)], kind=CHORES
    )
    print(f"{n} agents, {m} chores; rows:")
    for row in inst.values:
        print(f"  {[int(v) for v in row]}")

    # Same engine as goods but mirrored: nastiest chore first, and each chore
    # goes to an agent who envies nobody (a sink), so nobody's pile runs away.
    alloc = solve_chores(inst)
    print("bundles:")
    for i, bundle in enumerate(alloc.as_lists()):
        v = inst.value(i, bundle)
        mu = mms_exact_additive(inst, i).value
        print(f"  agent {i}: chores {bundle}, value {v}, exact share {mu}")
        assert v * 3 * n >= (4 * n - 1) * mu


def few_chores():
    # With at most 2n chores and identical agents, pairing heaviest with
    # lightest is not just close, it is optimal whenever no chore dominates.
    rng = random.Random(13)
    n = 3
    vals = tuple(sorted(-rng.randint(1, 30) for _ in range(2 * n)))
    print(f"\n{n} identical agents, chores {list(vals)}")
    alloc = lpt_chores_partition(vals, n)
    worst = min(sum((vals[g] for g in b), Fraction(0)) for b in alloc.bundles)
    mu = mms_exact_additive(AdditiveInstance([vals], kind=CHORES), 0, n=n).value
    print(f"pairing bundles: {alloc.as_lists()}")
    print(f"worst bundle {worst}, exact share {mu}")
    if 3 * vals[-1] < mu:
        assert worst == mu
        print("mildest chore is small relative to the share: pairing is exact")


if __name__ == "__main__":
    many_chores()
    few_chores()
