"""Chores: sink-based envy-graph allocation, audited against exact shares."""

import random

from mmsfair.chores import solve_chores
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


if __name__ == "__main__":
    many_chores()
