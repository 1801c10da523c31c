"""JSON round-trips for instances and allocations, and the report audit."""

import json
import random
from fractions import Fraction

import pytest

import mmsfair.io
from mmsfair import model, oracles
from mmsfair.chores import solve_chores
from mmsfair.cli import _render
from mmsfair.envy_graph import solve_additive
from mmsfair.errors import InvalidInstanceError
from mmsfair.generators import GeneratorSpec, fixture_ef1_not_mms, generate
from mmsfair.io import (
    FORMAT_VERSION,
    KIND_ADDITIVE_CHORES,
    KIND_ADDITIVE_GOODS,
    KIND_SUBMODULAR,
    MU_CERTIFIED,
    MU_EXACT,
    MU_UNAVAILABLE,
    build_report,
    parse_allocation,
    parse_instance,
    report_to_json,
    serialize_allocation,
    serialize_instance,
)
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.submodular.allocate import alg_sub
from mmsfair.submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    WeightedCoverage,
    detect_positive_mms,
)


class TestInstanceRoundTrip:
    def test_goods(self):
        inst = AdditiveInstance([[1, 2, 3], [3, 2, 1]])
        back = parse_instance(serialize_instance(inst))
        assert isinstance(back, AdditiveInstance)
        assert back.values == inst.values
        assert back.kind == GOODS

    def test_chores(self):
        inst = AdditiveInstance([[-1, 0, -3]], kind=CHORES)
        back = parse_instance(serialize_instance(inst))
        assert back.values == inst.values
        assert back.kind == CHORES

    def test_fractions_survive(self):
        inst = AdditiveInstance([[Fraction(1, 3), Fraction(7, 2)]])
        text = serialize_instance(inst)
        assert "1/3" in text and "7/2" in text
        back = parse_instance(text)
        assert back.values == inst.values

    def test_explicit_table(self):
        f = ExplicitTable(2, [0, 1, 2, Fraction(5, 2)])
        (back,) = parse_instance(serialize_instance([f]))
        assert isinstance(back, ExplicitTable)
        assert back.table == f.table

    def test_coverage(self):
        f = WeightedCoverage(2, [4, Fraction(1, 2)], [[0], [0, 1]])
        (back,) = parse_instance(serialize_instance([f]))
        assert isinstance(back, WeightedCoverage)
        assert back.weights == f.weights
        assert back.covers == f.covers

    def test_budget_additive(self):
        f = BudgetAdditive((3, 5), Fraction(13, 2))
        (back,) = parse_instance(serialize_instance([f]))
        assert isinstance(back, BudgetAdditive)
        assert back.weights == f.weights
        assert back.cap == f.cap

    def test_mixed_families(self):
        fs = [
            BudgetAdditive((1, 2), 2),
            WeightedCoverage(2, [1], [[0], [0]]),
        ]
        back = parse_instance(serialize_instance(fs))
        assert isinstance(back[0], BudgetAdditive)
        assert isinstance(back[1], WeightedCoverage)

    def test_generated_instances_round_trip(self):
        rng = random.Random(191)
        for kind in ("uniform-additive", "chores", "coverage", "budget-additive", "explicit"):
            lo, hi = (-9, 0) if kind == "chores" else (0, 9)
            spec = GeneratorSpec(kind=kind, n=2, m=4, lo=lo, hi=hi, seed=rng.randint(0, 99))
            inst = generate(spec)
            back = parse_instance(serialize_instance(inst))
            if isinstance(inst, AdditiveInstance):
                assert back.values == inst.values
            else:
                for f, g in zip(inst, back):
                    for mask in range(1 << 4):
                        assert f.value_mask(mask) == g.value_mask(mask)

    def test_bare_integers_accepted(self):
        text = json.dumps(
            {
                "version": 1,
                "kind": KIND_ADDITIVE_GOODS,
                "n": 1,
                "m": 2,
                "values": [[3, "1/2"]],
            }
        )
        inst = parse_instance(text)
        assert inst.values == ((3, Fraction(1, 2)),)

    def test_empty_agent_list_rejected(self):
        with pytest.raises(InvalidInstanceError):
            serialize_instance([])

    def test_mismatched_ground_sets_rejected(self):
        with pytest.raises(InvalidInstanceError):
            serialize_instance([BudgetAdditive((1,), 1), BudgetAdditive((1, 1), 2)])


def doc_text(**overrides):
    doc = {
        "version": 1,
        "kind": KIND_ADDITIVE_GOODS,
        "n": 1,
        "m": 2,
        "values": [[1, 2]],
    }
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize("spelling", [int, lambda v: f"{3 * v}/6"], ids=["int", "p/q"])
def test_parsing_builds_no_fraction_until_values_is_read(monkeypatch, spelling):
    # JSON ints and "p/q" strings go straight to the scaled int rows; the
    # Fraction values are built once, on the first read of .values
    n, m = 20, 200
    rng = random.Random(0)
    rows = [[spelling(rng.randint(0, 100)) for _ in range(m)] for _ in range(n)]
    text = doc_text(n=n, m=m, values=rows)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    inst = parse_instance(text)
    assert built == []
    values = inst.values
    assert len(built) == n * m
    assert inst.values is values and len(built) == n * m
    monkeypatch.undo()
    assert values == tuple(tuple(map(Fraction, row)) for row in rows)


def submodular_text(m, *agents):
    return json.dumps(
        {"version": 1, "kind": KIND_SUBMODULAR, "n": len(agents), "m": m, "agents": list(agents)}
    )


@pytest.mark.parametrize("spelling", [int, lambda v: f"{3 * v}/6"], ids=["int", "p/q"])
def test_submodular_parsing_builds_no_fraction(monkeypatch, spelling):
    # weights, caps and table entries go straight to each valuation's scaled
    # ints; table, weights and cap are Fractions built when read
    m = 6
    rng = random.Random(0)
    table = [0]
    for w in [rng.randint(0, 50) for _ in range(m)]:  # additive, so admissible
        table += [t + w for t in table]
    weights = [rng.randint(0, 100) for _ in range(m + 2)]
    covers = [sorted(rng.sample(range(m + 2), 2)) for _ in range(m)]
    agents = [
        {"family": "explicit", "table": [spelling(v) for v in table]},
        {"family": "coverage", "weights": [spelling(w) for w in weights], "covers": covers},
        {"family": "budget-additive", "weights": [spelling(w) for w in weights[:m]],
         "cap": spelling(150)},
    ]
    text = submodular_text(m, *agents)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    fe, fc, fb = parse_instance(text)
    assert built == []
    monkeypatch.undo()
    assert fe.table == tuple(Fraction(spelling(v)) for v in table)
    assert fc.weights == tuple(Fraction(spelling(w)) for w in weights)
    assert fb.weights == tuple(Fraction(spelling(w)) for w in weights[:m])
    assert fb.cap == Fraction(spelling(150))


GOOD_AGENTS = {
    "explicit": {"family": "explicit", "table": [0, "1", "3/2", 2]},
    "coverage": {"family": "coverage", "weights": [1, "1/2"], "covers": [[0], [0, 1]]},
    "budget-additive": {"family": "budget-additive", "weights": ["1", 2], "cap": "5/2"},
}


@pytest.mark.parametrize(
    "bad, message",
    [
        ("abc", "cannot parse value 'abc'"),
        (1.5, "values must be integers or 'p/q' strings, got float"),
        (True, "values must be integers or 'p/q' strings, got bool"),
        (None, "values must be integers or 'p/q' strings, got NoneType"),
    ],
    ids=["string", "float", "bool", "null"],
)
@pytest.mark.parametrize(
    "family, key, index",
    [
        ("explicit", "table", 2),
        ("coverage", "weights", 1),
        ("budget-additive", "weights", 1),
        ("budget-additive", "cap", None),
    ],
)
def test_rejected_valuation_entry_names_its_field(family, key, index, bad, message):
    # agent 1 carries the bad entry, after a well-formed agent 0
    agent = json.loads(json.dumps(GOOD_AGENTS[family]))
    if index is None:
        agent[key] = bad
        field = f"agents[1].{key}"
    else:
        agent[key][index] = bad
        field = f"agents[1].{key}[{index}]"
    with pytest.raises(InvalidInstanceError) as info:
        parse_instance(submodular_text(2, GOOD_AGENTS[family], agent))
    assert str(info.value) == f"{field}: {message}"


@pytest.mark.parametrize(
    "agent, message",
    [
        ({"family": "coverage", "weights": [1, 1, 1], "covers": [[0], [9]]},
         "agents[2]: element 9 out of range [0,3)"),
        ({"family": "coverage", "weights": [1, "-1/2"], "covers": [[0], [1]]},
         "agents[2]: element weights must be non-negative"),
        ({"family": "budget-additive", "weights": [1, -2], "cap": 3},
         "agents[2]: weights must be non-negative"),
        ({"family": "budget-additive", "weights": [1, 2], "cap": "-3"},
         "agents[2]: cap must be non-negative"),
    ],
    ids=["coverage-element", "coverage-weight", "budget-weight", "budget-cap"],
)
def test_refused_valuation_names_its_agent(agent, message):
    # every entry reads as a value, so the refusal itself is named, by agent
    with pytest.raises(InvalidInstanceError) as info:
        parse_instance(submodular_text(2, GOOD_AGENTS["coverage"], GOOD_AGENTS["explicit"], agent))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind", ["uniform-additive", "chores", "explicit", "coverage", "budget-additive"]
)
def test_each_entry_is_read_once(monkeypatch, kind):
    # serialized files spell every value as a string: a clean parse reads
    # each one once, in its constructor, and scans none of them again
    text = serialize_instance(generate(GeneratorSpec(kind=kind, n=3, m=5, seed=2)))
    doc = json.loads(text)
    entries = []
    for owner in doc.get("agents", [doc]):
        entries += [v for row in owner.get("values", []) for v in row]
        entries += owner.get("table", []) + owner.get("weights", [])
        entries += [owner["cap"]] if "cap" in owner else []
    calls = []
    real = model.as_ratio

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(model, "as_ratio", counting)
    monkeypatch.setattr(mmsfair.io, "as_ratio", counting)
    parsed = parse_instance(text)
    monkeypatch.undo()
    assert entries and all(isinstance(x, str) for x in entries)
    assert calls == entries
    assert serialize_instance(parsed) == text


@pytest.mark.parametrize("m", [3, 62, 63, 100_000, 2**70])
def test_explicit_table_size_checked_without_building_two_to_the_m(m):
    with pytest.raises(InvalidInstanceError, match=r"^agents\[0\]\.table: expected "):
        parse_instance(submodular_text(m, {"family": "explicit", "table": [0, 1]}))
    with pytest.raises(InvalidInstanceError, match=f"^table needs 2\\^{m} entries for m={m}, got 2$"):
        ExplicitTable(m, [0, 1])


class TestInstanceParsingErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(InvalidInstanceError, match=r"line 1, column"):
            parse_instance("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(InvalidInstanceError, match="top level"):
            parse_instance("[1, 2]")

    def test_missing_field(self):
        with pytest.raises(InvalidInstanceError, match="document.kind"):
            parse_instance(json.dumps({"version": 1, "n": 1, "m": 0}))

    def test_version_mismatch(self):
        with pytest.raises(InvalidInstanceError, match="unsupported version"):
            parse_instance(doc_text(version=2))

    def test_bool_is_not_an_int(self):
        with pytest.raises(InvalidInstanceError, match="expected int, got bool"):
            parse_instance(doc_text(n=True))

    def test_bool_is_not_a_value(self):
        with pytest.raises(InvalidInstanceError, match=r"values\[0\]\[1\]"):
            parse_instance(doc_text(values=[[1, True]]))

    def test_zero_denominator(self):
        with pytest.raises(InvalidInstanceError, match=r"^values\[0\]\[1\]: cannot parse value '1/0'$"):
            parse_instance(doc_text(values=[[1, "1/0"]]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1/-2", "cannot parse value '1/-2'"),
            ("abc", "cannot parse value 'abc'"),
            ("1" * 5000, "cannot parse value '1111"),
            (1.5, "values must be integers or 'p/q' strings, got float"),
            (True, "values must be integers or 'p/q' strings, got bool"),
            (None, "values must be integers or 'p/q' strings, got NoneType"),
            ([1], "values must be integers or 'p/q' strings, got list"),
        ],
    )
    def test_rejected_entry_names_its_field(self, bad, message):
        # the bad entry sits after good ones and before a sign error: the
        # first entry that fails to parse is named, as a full parse names it
        values = [[1, 2, 3], [4, "5/2", bad], ["-1", 0, 0]]
        text = doc_text(n=3, m=3, values=values)
        with pytest.raises(InvalidInstanceError) as info:
            parse_instance(text)
        assert str(info.value).startswith(f"values[1][2]: {message}")

    def test_sign_error_after_a_clean_parse(self):
        # the first entry of the wrong sign is named, not the most negative
        with pytest.raises(InvalidInstanceError, match=r"^goods instance has negative value at \(1,0\)$"):
            parse_instance(doc_text(n=2, m=3, values=[[1, "1/2", 0], ["-1/3", 2, -5]]))

    def test_oversized_integer_literal(self):
        with pytest.raises(InvalidInstanceError, match="^not valid JSON: Exceeds the limit"):
            parse_instance(doc_text(values=[[1, 0]]).replace("[[1, 0]]", f"[[1, {'9' * 5000}]]"))

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInstanceError, match="expected 1 rows"):
            parse_instance(doc_text(values=[[1, 2], [3, 4]]))

    def test_row_length_mismatch(self):
        with pytest.raises(InvalidInstanceError, match="expected 2 entries"):
            parse_instance(doc_text(values=[[1]]))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInstanceError, match="unknown kind"):
            parse_instance(doc_text(kind="matching"))

    def test_sign_rule_enforced(self):
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc_text(kind=KIND_ADDITIVE_CHORES, values=[[1, 2]]))

    def test_unknown_family(self):
        text = json.dumps(
            {
                "version": 1,
                "kind": KIND_SUBMODULAR,
                "n": 1,
                "m": 1,
                "agents": [{"family": "entropy"}],
            }
        )
        with pytest.raises(InvalidInstanceError, match="unknown family"):
            parse_instance(text)

    def test_table_size_checked(self):
        text = json.dumps(
            {
                "version": 1,
                "kind": KIND_SUBMODULAR,
                "n": 1,
                "m": 2,
                "agents": [{"family": "explicit", "table": [0, 1]}],
            }
        )
        with pytest.raises(InvalidInstanceError, match="expected 4 entries"):
            parse_instance(text)


class TestAllocationRoundTrip:
    def test_round_trip(self):
        alloc = Allocation([{0, 2}, {1}], 3)
        back = parse_allocation(serialize_allocation(alloc))
        assert back.bundles == alloc.bundles
        assert back.m == 3

    def test_version_checked(self):
        with pytest.raises(InvalidInstanceError, match="unsupported version"):
            parse_allocation(json.dumps({"version": 9, "m": 1, "bundles": [[0]]}))

    def test_bundle_entries_must_be_ints(self):
        text = json.dumps({"version": 1, "m": 1, "bundles": [[True]]})
        with pytest.raises(InvalidInstanceError, match=r"bundles\[0\]"):
            parse_allocation(text)

    def test_overlap_rejected(self):
        text = json.dumps({"version": 1, "m": 2, "bundles": [[0, 1], [1]]})
        with pytest.raises(InvalidInstanceError):
            parse_allocation(text)

    @pytest.mark.parametrize(
        "bundles, message",
        [([[0, 1], [1]], "good 1 assigned twice"), ([[0], [5]], "good index 5 out of range [0,2)")],
    )
    def test_refused_allocation_names_its_field(self, bundles, message):
        text = json.dumps({"version": 1, "m": 2, "bundles": bundles})
        with pytest.raises(InvalidInstanceError) as info:
            parse_allocation(text)
        assert str(info.value) == f"bundles: {message}"


class TestBuildReport:
    def test_exact_goods_audit(self):
        inst, alloc = fixture_ef1_not_mms(3)
        report = build_report(inst, alloc)
        assert report.kind == KIND_ADDITIVE_GOODS
        assert "3n-1" in report.guarantee
        assert not report.ok
        a0 = report.agents[0]
        assert (a0.value, a0.mms, a0.mms_source) == (1, 3, MU_EXACT)
        assert a0.ratio == Fraction(1, 3)
        assert a0.satisfied is False
        for a in report.agents[1:]:
            assert a.satisfied is True
            assert a.ratio == Fraction(4, 3)

    def test_solver_output_passes_audit(self):
        inst = AdditiveInstance([[5, 4, 3, 2], [2, 3, 4, 5]])
        report = build_report(inst, solve_additive(inst))
        assert report.ok
        assert all(a.satisfied is True for a in report.agents)

    def test_chores_audit(self):
        inst = AdditiveInstance([[-3, -3, -2]] * 2, kind=CHORES)
        report = build_report(inst, solve_chores(inst))
        assert report.kind == KIND_ADDITIVE_CHORES
        assert "4n-1" in report.guarantee
        assert report.ok

    def test_submodular_audit_uses_default_delta(self):
        f = BudgetAdditive((1, 1, 1, 1), 4)
        alloc, _ = alg_sub([f, f])
        report = build_report([f, f], alloc)
        assert report.kind == KIND_SUBMODULAR
        assert "delta=1/20" in report.guarantee
        assert report.ok

    def test_negative_bundle_voids_the_verdict(self):
        # mu is 0 ({0, 1} | {}), but good 1 alone is worth -1: the table is
        # not monotone, so agent 0's verdict is None where it was False
        f = ExplicitTable(2, [0, 1, -1, 0])
        report = build_report([f, f], Allocation([{1}, {0}], 2))
        a0, a1 = report.agents
        assert (a0.value, a0.mms, a0.mms_source, a0.satisfied) == (-1, 0, MU_EXACT, None)
        assert (a1.value, a1.satisfied) == (1, True)
        assert report.ok

    def test_zero_share_has_no_ratio(self):
        inst = AdditiveInstance([[0, 0]] * 2)
        report = build_report(inst, Allocation([{0, 1}, set()], 2))
        assert report.agents[0].mms == 0
        assert report.agents[0].ratio is None
        assert report.agents[0].satisfied is True

    def test_over_budget_additive_is_unknown(self):
        inst = AdditiveInstance([[1, 1, 1, 1, 1]] * 2)
        report = build_report(inst, Allocation([{0, 1, 2, 3, 4}, set()], 5), budget=3)
        for a in report.agents:
            assert a.mms is None
            assert a.mms_source == MU_UNAVAILABLE
            assert a.satisfied is None
            assert a.ratio is None
        assert report.ok  # nothing proven either way

    def test_over_budget_submodular_falls_back_to_certificate(self):
        f = BudgetAdditive((1,) * 12, 12)
        starved = Allocation([[], list(range(12))], 12)
        report = build_report([f, f], starved, budget=100)
        a0, a1 = report.agents
        assert a0.mms_source == MU_CERTIFIED
        assert a0.mms == 6  # the greedy start splits twelve unit goods 6 + 6
        assert a0.satisfied is False  # violating a lower bound is conclusive
        assert a1.satisfied is None  # passing one proves nothing
        assert not report.ok

    def test_over_budget_zero_share_is_exact(self):
        # one positive good among 40 cannot give six bundles value: the
        # greedy bound 0 meets the cap 0 of the lemma of detect_positive_mms
        f = BudgetAdditive([5] + [0] * 39, 10)
        alloc, _ = alg_sub([f] * 6)
        report = build_report([f] * 6, alloc)
        for a in report.agents:
            assert (a.mms, a.mms_source, a.satisfied, a.ratio) == (0, MU_EXACT, True, None)
        assert report.ok

    @pytest.mark.parametrize("kind", ["coverage", "budget-additive"])
    def test_over_budget_submodular_runs_no_threshold_search(self, monkeypatch, kind):
        def no_probe(*args, **kwargs):
            raise AssertionError("the audit runs no threshold search")

        monkeypatch.setattr(oracles, "threshold_probe", no_probe)
        valuations = generate(GeneratorSpec(kind=kind, n=6, m=40, hi=20, seed=3))
        alloc, _ = alg_sub(valuations)
        report = build_report(valuations, alloc, budget=100)
        positive = [detect_positive_mms(f, 6) for f in valuations]
        assert any(positive)
        for a, has_share in zip(report.agents, positive):
            if has_share:
                assert a.mms_source == MU_CERTIFIED and a.mms > 0
            else:
                assert (a.mms, a.mms_source) == (0, MU_EXACT)

    @pytest.mark.parametrize(
        "instance",
        [
            AdditiveInstance([[3, 3, 2, 2, 2]] * 2),
            [BudgetAdditive([3, 3, 2, 2, 2], 12)] * 2,
        ],
        ids=["additive", "submodular"],
    )
    def test_audit_runs_one_value_pass_per_agent(self, monkeypatch, instance):
        # greedy splits 3,3,2,2,2 into 5 + 7, below the bound 6, so each
        # agent needs a value pass; the audit reads no witness
        stops = []
        search = oracles._branch_and_bound

        def counted(n, items, caps, add, value, best, stop):
            stops.append(stop)
            return search(n, items, caps, add, value, best, stop)

        monkeypatch.setattr(oracles, "_branch_and_bound", counted)
        report = build_report(instance, Allocation([[0, 2, 3], [1, 4]], 5))
        assert [a.mms for a in report.agents] == [6, 6]
        assert stops == [6, 6]

    def test_shape_mismatch(self):
        inst = AdditiveInstance([[1, 2]])
        with pytest.raises(InvalidInstanceError):
            build_report(inst, Allocation([{0}], 1))
        with pytest.raises(InvalidInstanceError):
            build_report(inst, Allocation([{0, 1}, set()], 2))

    @pytest.mark.parametrize(
        "instance",
        [
            AdditiveInstance([[-5, -4, -3], [-1, -2, -3]], kind=CHORES),
            AdditiveInstance([[5, 4, 3], [1, 2, 3]]),
            [BudgetAdditive((1, 1, 1), 3)] * 2,
        ],
        ids=["chores", "goods", "submodular"],
    )
    def test_incomplete_allocation_rejected(self, instance):
        # an allocation that assigns no chores would pass every chores floor
        for bundles in ([[], []], [[0], [2]]):
            with pytest.raises(InvalidInstanceError, match="leaves goods unassigned"):
                build_report(instance, Allocation(bundles, 3))

    def test_every_agent_shares_the_ground_set(self):
        # agent 1's share would be taken over 8 goods, 4 of them not in play
        agents = [BudgetAdditive([1] * 4, 4), BudgetAdditive([1] * 8, 8)]
        with pytest.raises(InvalidInstanceError, match="one ground set"):
            build_report(agents, Allocation([[0, 1], [2, 3]], 4))

    def test_no_agents_rejected(self):
        with pytest.raises(InvalidInstanceError, match="at least one agent"):
            build_report([], Allocation([], 0))


class TestReportOutput:
    def test_json_shape(self):
        inst, alloc = fixture_ef1_not_mms(2)
        report = build_report(inst, alloc)
        doc = json.loads(report_to_json(report))
        assert doc["version"] == FORMAT_VERSION
        assert doc["kind"] == KIND_ADDITIVE_GOODS
        assert doc["ok"] is False
        assert doc["bundles"] == [[0], [1, 2]]
        assert doc["agents"][0]["value"] == "1"
        assert doc["agents"][0]["mms"] == "2"
        assert doc["agents"][0]["ratio"] == "1/2"
        assert doc["agents"][0]["satisfied"] is False

    def test_table_shape(self):
        # the text form is the JSON document's fields in order, its agents
        # a table with one column per key
        inst, alloc = fixture_ef1_not_mms(2)
        lines = _render(mmsfair.io._report_doc(build_report(inst, alloc))).splitlines()
        assert [line.split()[0] for line in lines[:2]] == ["kind:", "guarantee:"]
        assert lines[2:5] == ["ok: no", "bundles: [[0],[1,2]]", "agents:"]
        assert lines[5].split() == ["agent", "value", "mms", "mms_source", "ratio", "satisfied"]
        assert lines[6].split() == ["0", "1", "2", "exact", "1/2", "no"]

    def test_table_ok_run(self):
        inst = AdditiveInstance([[2, 2], [2, 2]])
        text = _render(mmsfair.io._report_doc(build_report(inst, solve_additive(inst))))
        assert "ok: yes" in text.splitlines()
        assert [line.split()[-1] for line in text.splitlines()[-2:]] == ["yes", "yes"]
