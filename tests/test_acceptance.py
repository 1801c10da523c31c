"""Acceptance gate: every advertised guarantee checked against exact oracles.

Each test prints one PASS line with the sweep size it covered. All value
comparisons are exact rational arithmetic; there are no float tolerances
anywhere except the Monte Carlo standard-error band, which is the quantity
under test.
"""

import random
from fractions import Fraction

import pytest
from lemmas import check_efx_trace, is_ef1, lpt_chores_partition
from multilinear import (
    FractionalAllocation,
    MarginalValuation,
    expected_ordered_marginal,
    multilinear_exact,
    multilinear_mc,
    proportionality_check,
)

from mmsfair.chores import solve_chores
from mmsfair.envy_graph import envy_graph_allocate, solve_additive
from mmsfair.generators import (
    GeneratorSpec,
    fixture_ef1_not_mms,
    fixture_submodular_gap,
    generate,
)
from mmsfair.model import CHORES, AdditiveInstance, Allocation
from mmsfair.oracles import (
    mms_approx_submodular,
    mms_exact_additive,
    mms_exact_submodular,
    threshold_probe,
)
from mmsfair.ordering import lift_allocation, to_ordered
from mmsfair.submodular.allocate import alg_sub, round_robin

SUBMODULAR_MIX = ("coverage", "budget-additive", "explicit")


def random_complete_allocation(rng, n, m):
    bundles = [[] for _ in range(n)]
    for g in range(m):
        bundles[rng.randrange(n)].append(g)
    return Allocation(bundles, m)


@pytest.fixture(scope="module")
def submodular_cases():
    """50 seeded instances with exact per-agent shares, reused by three gates."""
    rng = random.Random(4001)
    cases = []
    for trial in range(50):
        kind = SUBMODULAR_MIX[trial % 3]
        n = rng.randint(2, 4)
        m = rng.randint(n, 10)
        fs = generate(GeneratorSpec(kind, n, m, lo=1, hi=9, seed=rng.getrandbits(32)))
        mus = [mms_exact_submodular(f, n).value for f in fs]
        cases.append((fs, mus, n))
    return cases


def test_additive_goods_bound_holds_on_200_instances():
    # every agent ends with value*(3n-1) >= 2n*mu, mu exact, no violations
    rng = random.Random(1001)
    agents = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        inst = AdditiveInstance(
            [[rng.randint(0, 100) for _ in range(m)] for _ in range(n)]
        )
        alloc = solve_additive(inst)
        for i in range(n):
            mu = mms_exact_additive(inst, i, budget=10**9).value
            value = inst.value(i, alloc.bundles[i])
            assert value * (3 * n - 1) >= 2 * n * mu, (i, inst.values)
            agents += 1
    print(f"PASS: goods bound exact on 200 instances ({agents} agents)")


def test_ordered_runs_stay_efx_throughout():
    # every intermediate partial allocation of the envy-graph run is EFX
    rng = random.Random(2001)
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        spec = GeneratorSpec("ordered-additive", n, m, seed=rng.getrandbits(32))
        inst = generate(spec)
        _, trace = envy_graph_allocate(inst)
        assert check_efx_trace(inst, trace)
    print("PASS: EFX held at every step of 100 ordered runs")


def test_lifting_never_loses_value():
    # back-mapping an ordered allocation keeps or improves every agent's value
    rng = random.Random(3001)
    for trial in range(100):
        kind = "chores" if trial % 2 else "uniform-additive"
        n = rng.randint(2, 5)
        m = rng.randint(n, 12)
        lo, hi = (-100, 0) if kind == "chores" else (0, 100)
        inst = generate(GeneratorSpec(kind, n, m, lo=lo, hi=hi, seed=rng.getrandbits(32)))
        ordered = to_ordered(inst)
        oalloc = random_complete_allocation(rng, n, m)
        lifted = lift_allocation(inst, oalloc)
        for i in range(n):
            assert inst.value(i, lifted.bundles[i]) >= ordered.value(
                i, oalloc.bundles[i]
            )
    print("PASS: lift kept every agent's value on 100 random pairs")


def test_submodular_bound_holds_on_50_instances(submodular_cases):
    # threshold-descent allocation: value*10*(1+delta) >= mu for every agent
    delta = Fraction(1, 20)
    agents = 0
    for fs, mus, n in submodular_cases:
        alloc, _ = alg_sub(fs, delta=delta)
        for i, f in enumerate(fs):
            value = f.evaluate(alloc.bundles[i])
            assert value * 10 * (1 + delta) >= mus[i], (i, mus[i])
            agents += 1
    print(f"PASS: submodular bound exact on 50 instances ({agents} agents)")


def test_threshold_isolation_protects_each_agent(submodular_cases):
    # an honest threshold survives arbitrary inflation of everyone else's
    checked = 0
    for fs, mus, n in submodular_cases:
        for i in range(len(fs)):
            taus = [2 * mus[j] + 1 for j in range(len(fs))]
            taus[i] = mus[i]
            masks = round_robin(fs, taus)
            assert 10 * fs[i].value_mask(masks[i]) >= mus[i]
            checked += 1
    print(f"PASS: isolation held for all {checked} targeted agents")


def test_uniform_fractional_share_and_marginal_rules(submodular_cases):
    # uniform point covers the rational share bound on every instance
    for fs, mus, n in submodular_cases:
        report = proportionality_check(fs, mus)
        assert report.all_passed(), [str(v) for v in report.values_at_uniform]

    rng = random.Random(6001)

    def draw(min_m=2):
        m = rng.randint(min_m, 8)
        kind = SUBMODULAR_MIX[rng.randrange(3)]
        f = generate(GeneratorSpec(kind, 1, m, lo=1, hi=9, seed=rng.getrandbits(32)))[0]
        return f, m

    # contracting one more good costs at most its marginal, in expectation
    for _ in range(500):
        f, m = draw()
        goods = list(range(m))
        rng.shuffle(goods)
        p = frozenset(goods[: rng.randint(0, m - 1)])
        g = next(x for x in goods if x not in p)
        free = [x for x in range(m) if x not in p and x != g]
        x = FractionalAllocation(
            [
                Fraction(rng.randint(0, 8), 8) if j in free else Fraction(0)
                for j in range(m)
            ]
        )
        lhs = multilinear_exact(MarginalValuation(f, p | {g}), x)
        base = multilinear_exact(MarginalValuation(f, p), x)
        step = MarginalValuation(f, p).evaluate([g])
        assert lhs >= base - step

    # the extension splits into per-good ordered marginals
    for _ in range(500):
        f, m = draw()
        goods = list(range(m))
        rng.shuffle(goods)
        h = frozenset(goods[: rng.randint(0, m - 2)])
        j_set = frozenset(x for x in goods if x not in h)
        x = FractionalAllocation(
            [
                Fraction(rng.randint(0, 8), 8) if j in j_set else Fraction(0)
                for j in range(m)
            ]
        )
        total = multilinear_exact(MarginalValuation(f, h), x)
        parts = sum(
            (
                x.x[j] * expected_ordered_marginal(f, h, j_set, j, x)
                for j in j_set
            ),
            Fraction(0),
        )
        assert total == parts

    # shrinking the reference set never lowers an ordered marginal
    for _ in range(500):
        f, m = draw(min_m=3)
        goods = list(range(m))
        rng.shuffle(goods)
        h = frozenset(goods[: rng.randint(0, m - 3)])
        rest = [x for x in goods if x not in h]
        big = rng.randint(2, len(rest))
        j_set = frozenset(rest[:big])
        small = frozenset(rng.sample(sorted(j_set), rng.randint(1, big)))
        j = rng.choice(sorted(small))
        x = FractionalAllocation(
            [
                Fraction(rng.randint(0, 8), 8) if t in j_set else Fraction(0)
                for t in range(m)
            ]
        )
        wide = expected_ordered_marginal(f, h, j_set, j, x.project(j_set))
        narrow = expected_ordered_marginal(f, h, small, j, x.project(small))
        assert narrow >= wide

    print("PASS: share bound on 50 instances, 3 marginal rules x500 tuples")


def test_identical_agents_get_ninth_of_share():
    # every bundle >= mu/9, certified, and no honest tau rejected
    rng = random.Random(7001)
    for trial in range(30):
        n = rng.randint(2, 3)
        m = rng.randint(n, 9)
        kind = SUBMODULAR_MIX[trial % 3]
        f = generate(GeneratorSpec(kind, 1, m, lo=1, hi=9, seed=rng.getrandbits(32)))[0]
        mu = mms_exact_submodular(f, n).value
        result = mms_approx_submodular(f, n, epsilon=Fraction(1, 100))
        assert result.certified
        for bundle in result.allocation.bundles:
            assert 9 * f.evaluate(bundle) >= mu
        for tau in (mu, Fraction(3, 4) * mu, Fraction(1, 3) * mu):
            assert threshold_probe(f, n, tau) is not None
    print("PASS: bundle floor mu/9 and honest-tau acceptance on 30 instances")


def test_chores_bound_and_pairing_optimality():
    # chores: value*3n >= (4n-1)*mu for all agents, mu exact
    rng = random.Random(8001)
    agents = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        m = rng.randint(n, 11)
        inst = AdditiveInstance(
            [[rng.randint(-100, 0) for _ in range(m)] for _ in range(n)],
            kind=CHORES,
        )
        alloc = solve_chores(inst)
        for i in range(n):
            mu = mms_exact_additive(inst, i).value
            value = inst.value(i, alloc.bundles[i])
            assert value * 3 * n >= (4 * n - 1) * mu
            agents += 1

    # few chores with no dominant one: the pairing partition is exactly optimal
    rng = random.Random(8002)
    hits = 0
    attempts = 0
    while hits < 100:
        attempts += 1
        assert attempts < 3000, "condition too rare at this seed"
        n = rng.randint(2, 4)
        d = rng.randint(1, 2 * n)
        vals = sorted(rng.randint(-30, -1) for _ in range(d))
        inst = AdditiveInstance([vals] * n, kind=CHORES)
        mu = mms_exact_additive(inst, 0).value
        if 3 * vals[-1] >= mu:
            continue
        alloc = lpt_chores_partition(tuple(vals), n)
        worst = min(
            sum((vals[g] for g in b), Fraction(0)) for b in alloc.bundles
        )
        assert worst == mu, (vals, n)
        hits += 1
    print(f"PASS: chores bound on 200 instances ({agents} agents), pairing exact x100")


def test_worst_case_fixtures_are_exact():
    # the EF1 fixture pins ratio 1/n; the gap tables cap every allocation at 3/4
    for n in range(2, 7):
        inst, alloc = fixture_ef1_not_mms(n)
        assert is_ef1(inst, alloc)
        mu = mms_exact_additive(inst, 0, budget=10**9).value
        value = inst.value(0, alloc.bundles[0])
        assert Fraction(value, mu) == Fraction(1, n)

    f1, f2 = fixture_submodular_gap()
    mus = [mms_exact_submodular(f, 2).value for f in (f1, f2)]
    assert mus == [2, 2]
    best = Fraction(0)
    for mask in range(16):
        a = [g for g in range(4) if mask >> g & 1]
        b = [g for g in range(4) if not mask >> g & 1]
        ratio = min(
            Fraction(f1.evaluate(a), mus[0]), Fraction(f2.evaluate(b), mus[1])
        )
        best = max(best, ratio)
    assert best == Fraction(3, 4)
    print("PASS: EF1 fixture ratio 1/n for n=2..6, gap fixture capped at 3/4")


def test_monte_carlo_tracks_exact_extension():
    # 10k-sample estimate lands within 4 standard errors at least 96 times
    rng = random.Random(10001)
    good = 0
    for trial in range(100):
        m = rng.randint(2, 12)
        kind = SUBMODULAR_MIX[trial % 3]
        f = generate(GeneratorSpec(kind, 1, m, lo=1, hi=9, seed=rng.getrandbits(32)))[0]
        x = FractionalAllocation(
            [Fraction(rng.randint(0, 8), 8) for _ in range(m)]
        )
        exact = multilinear_exact(f, x)
        mean, err = multilinear_mc(f, x, samples=10000, seed=trial)
        if err == 0.0:
            good += mean == exact
        elif abs(mean - exact) <= 4 * err:
            good += 1
    assert good >= 96, good
    print(f"PASS: Monte Carlo within 4 SE in {good}/100 runs")
