"""Allocate under submodular valuations without knowing anyone's share."""

from fractions import Fraction

from mmsfair.generators import GeneratorSpec, generate
from mmsfair.oracles import mms_approx_submodular, mms_exact_submodular
from mmsfair.submodular.allocate import alg_sub


def descending_thresholds():
    # Three agents with weighted-coverage valuations over ten goods. Nobody
    # announces a share; each agent starts from an over-ambitious threshold
    # and lowers it only after a round where the threshold went unmet.
    fs = generate(GeneratorSpec("coverage", 3, 10, lo=1, hi=9, seed=42))
    alloc, state = alg_sub(fs, delta=Fraction(1, 20))
    print("threshold descent finished after", state.iterations, "rounds")
    for i, f in enumerate(fs):
        mu = mms_exact_submodular(f, 3).value
        v = f.evaluate(alloc.bundles[i])
        print(
            f"  agent {i}: bundle {sorted(alloc.bundles[i])}, value {v}, "
            f"final threshold {state.thresholds[i]}, exact share {mu}"
        )
        assert v * 10 * (1 + Fraction(1, 20)) >= mu


def identical_agents():
    # When all agents share one valuation the question is purely about the
    # threshold: search the largest tau the slot construction accepts, from
    # the one the seeds accept, doubling and then halving.
    f = generate(GeneratorSpec("budget-additive", 1, 8, lo=1, hi=9, seed=9))[0]
    n = 2
    result = mms_approx_submodular(f, n, epsilon=Fraction(1, 100))
    mu = mms_exact_submodular(f, n).value
    worst = min(f.evaluate(b) for b in result.allocation.bundles)
    print(f"\nidentical agents: accepted threshold {result.bound}, exact share {mu}")
    print(f"bundles {result.allocation.as_lists()}, worst bundle {worst}")
    print(f"certified floor: every bundle >= threshold/9 = {Fraction(result.bound, 9)}")
    assert result.certified
    assert 9 * worst >= result.bound


if __name__ == "__main__":
    descending_thresholds()
    identical_agents()
