"""Walk an additive-goods instance through the full pipeline, printing each stage."""

import random
from fractions import Fraction

from mmsfair.envy_graph import envy_graph_allocate, solve_additive
from mmsfair.model import AdditiveInstance
from mmsfair.oracles import mms_exact_additive
from mmsfair.ordering import lift_allocation, to_ordered


def main():
    rng = random.Random(7)
    n, m = 3, 8
    inst = AdditiveInstance([[rng.randint(0, 50) for _ in range(m)] for _ in range(n)])
    print(f"{n} agents, {m} goods")
    for i, row in enumerate(inst.values):
        print(f"  agent {i} values: {[int(v) for v in row]}")

    # Step 1: reduce to a common ordering. Every agent's row becomes sorted
    # descending; the permutations remember which original good sits where.
    red = to_ordered(inst)
    print("\nordered rows:")
    for i, row in enumerate(red.ordered.values):
        print(f"  agent {i}: {[int(v) for v in row]}")

    # Step 2: hand out goods best-first, always to an agent nobody envies,
    # rotating bundles along envy cycles whenever the graph has no source.
    alloc, trace = envy_graph_allocate(red.ordered)
    print("\nallocation trace on the ordered copy:")
    for step in trace.steps:
        note = f" (rotated {len(step.cycles)} cycle)" if step.cycles else ""
        print(f"  good {step.item} -> agent {step.agent}{note}")

    # Step 3: lift back to the original goods. Each agent swaps every ordered
    # good for one it likes at least as much, so values never drop.
    lifted = lift_allocation(red, inst, alloc)
    print("\nfinal bundles on the original instance:")
    for i, bundle in enumerate(lifted.as_lists()):
        v = inst.value(i, bundle)
        print(f"  agent {i}: goods {bundle}, value {v}")

    # The one-call version of the same pipeline.
    assert solve_additive(inst).as_lists() == lifted.as_lists()

    print("\nguarantee check, value*(3n-1) >= 2n*share:")
    for i in range(n):
        cert = mms_exact_additive(inst, i)
        v = inst.value(i, lifted.bundles[i])
        ratio = Fraction(v, cert.value) if cert.value else None
        print(
            f"  agent {i}: value {v}, exact share {cert.value}, "
            f"ratio {ratio}, needs {Fraction(2 * n, 3 * n - 1)}"
        )
        assert v * (3 * n - 1) >= 2 * n * cert.value


if __name__ == "__main__":
    main()
