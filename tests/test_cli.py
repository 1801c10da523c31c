"""End-to-end command line flows: solve, audit, generate, sweep."""

import hashlib
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from lemmas import verify_submodular
from reference import SLOT_SOLVERS, slot_solver

from mmsfair import oracles
from mmsfair.cli import main
from mmsfair.io import parse_allocation, parse_instance
from mmsfair.model import CHORES, AdditiveInstance, Allocation
from mmsfair.submodular.valuations import BudgetAdditive


def run(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text, encoding="utf-8")


class TestSolveRoundTrips:
    def test_generate_solve_verify_goods(self, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        report = tmp_path / "report.json"
        assert run(
            "generate", "--kind", "uniform-additive", "--n", "3", "--m", "8",
            "--seed", "5", "--output", str(inst),
        ) == 0
        assert run(
            "solve-additive", "--input", str(inst),
            "--allocation-out", str(alloc),
            "--output", str(report), "--format", "json",
        ) == 0
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert all(a["satisfied"] for a in doc["agents"])
        assert run(
            "verify", "--input", str(inst), "--allocation", str(alloc),
            "--output", str(tmp_path / "audit.txt"),
        ) == 0

    def test_generate_solve_verify_chores(self, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        assert run(
            "generate", "--kind", "chores", "--n", "2", "--m", "7",
            "--seed", "3", "--output", str(inst),
        ) == 0
        parsed = parse_instance(inst.read_text())
        assert parsed.kind == CHORES
        assert all(v <= 0 for row in parsed.values for v in row)
        assert run(
            "solve-chores", "--input", str(inst),
            "--allocation-out", str(alloc), "--output", str(tmp_path / "r.txt"),
        ) == 0
        assert run(
            "verify", "--input", str(inst), "--allocation", str(alloc),
            "--output", str(tmp_path / "audit.txt"),
        ) == 0

    def test_generate_solve_verify_submodular(self, tmp_path):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        assert run(
            "generate", "--kind", "coverage", "--n", "2", "--m", "5",
            "--lo", "1", "--hi", "9", "--seed", "7", "--output", str(inst),
        ) == 0
        assert run(
            "solve-submodular", "--input", str(inst),
            "--allocation-out", str(alloc), "--output", str(tmp_path / "r.txt"),
        ) == 0
        back = parse_allocation(alloc.read_text())
        assert back.is_complete()
        assert run(
            "verify", "--input", str(inst), "--allocation", str(alloc),
            "--output", str(tmp_path / "audit.txt"),
        ) == 0

    def test_solver_rejects_wrong_kind(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run(
            "generate", "--kind", "chores", "--n", "2", "--m", "4",
            "--output", str(inst),
        ) == 0
        assert run("solve-additive", "--input", str(inst)) == 1
        assert run(
            "generate", "--kind", "uniform-additive", "--n", "2", "--m", "4",
            "--output", str(inst),
        ) == 0
        assert run("solve-chores", "--input", str(inst)) == 1
        assert run("solve-submodular", "--input", str(inst)) == 1


class TestVerify:
    def test_unfair_fixture_fails_audit(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        out = tmp_path / "report.json"
        assert run(
            "fixtures", "--name", "ef1-not-mms", "--n", "3",
            "--output", str(inst), "--allocation-out", str(alloc),
        ) == 0
        code = run(
            "verify", "--input", str(inst), "--allocation", str(alloc),
            "--output", str(out), "--format", "json",
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["ok"] is False
        assert doc["agents"][0]["ratio"] == "1/3"
        assert doc["agents"][0]["satisfied"] is False

    def test_table_report_to_stdout(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        run("fixtures", "--name", "ef1-not-mms", "--n", "2",
            "--output", str(inst), "--allocation-out", str(alloc))
        capsys.readouterr()
        assert run("verify", "--input", str(inst), "--allocation", str(alloc)) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "ok: no" in lines
        assert lines[lines.index("agents:") + 2].split()[-1] == "no"  # agent 0 holds 1 of 2

    def test_incomplete_allocation_is_an_input_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        write(inst, json.dumps({
            "version": 1, "kind": "additive-chores", "n": 2, "m": 3,
            "values": [["-5", "-4", "-3"], ["-1", "-2", "-3"]],
        }))
        write(alloc, json.dumps({"version": 1, "m": 3, "bundles": [[], []]}))
        assert run("verify", "--input", str(inst), "--allocation", str(alloc)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: allocation leaves goods unassigned\n"

    def test_refused_allocation_names_its_field(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        write(inst, json.dumps({
            "version": 1, "kind": "additive-goods", "n": 2, "m": 2, "values": [[1, 2], [2, 1]],
        }))
        write(alloc, json.dumps({"version": 1, "m": 2, "bundles": [[0, 1], [0]]}))
        assert run("verify", "--input", str(inst), "--allocation", str(alloc)) == 1
        assert capsys.readouterr().err == "error: bundles: good 0 assigned twice\n"

    @pytest.mark.parametrize("budget", ["1", "100000000"])
    def test_negative_table_share_past_the_budget(self, tmp_path, budget):
        # every bundle of this table is worth at most 0, so the fewer than n
        # positive goods do not make mu 0: it is -1, for {0} | {1}; a value
        # below 0 shows the table is not monotone, so the guarantee, stated
        # for monotone tables, neither holds nor fails for either agent
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        out = tmp_path / "report.json"
        agent = {"family": "explicit", "table": [0, -1, -1, -2]}
        write(inst, json.dumps({"version": 1, "kind": "submodular", "n": 2, "m": 2,
                                "agents": [agent, agent]}))
        write(alloc, json.dumps({"version": 1, "m": 2, "bundles": [[0], [1]]}))
        assert run("verify", "--input", str(inst), "--allocation", str(alloc),
                   "--oracle-budget", budget, "--output", str(out), "--format", "json") == 0
        source = "exact" if budget != "1" else "certified-lower-bound"
        report = json.loads(out.read_text())
        assert [(a["mms"], a["mms_source"], a["satisfied"]) for a in report["agents"]] == [
            ("-1", source, None), ("-1", source, None)
        ]
        assert report["ok"] is True

    @pytest.mark.parametrize("delta", ["0", "-1"])
    def test_submodular_rejects_non_positive_delta(self, tmp_path, capsys, delta):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        assert run(
            "generate", "--kind", "coverage", "--n", "2", "--m", "4",
            "--seed", "1", "--output", str(inst),
        ) == 0
        assert run(
            "solve-submodular", "--input", str(inst),
            "--allocation-out", str(alloc), "--output", str(tmp_path / "r.txt"),
        ) == 0
        argv = ["verify", "--input", str(inst), "--allocation", str(alloc)]
        assert run(*argv, "--output", str(tmp_path / "ok.txt")) == 0
        capsys.readouterr()
        # the allocation passes at the default delta; a bad delta is an input error
        assert run(*argv, f"--delta={delta}") == 1
        assert capsys.readouterr().err == "error: delta must be positive\n"


class TestMmsCommands:
    def test_exact_on_gap_fixture(self, tmp_path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "mms.json"
        assert run("fixtures", "--name", "submodular-gap", "--output", str(inst)) == 0
        assert run(
            "mms-exact", "--input", str(inst), "--agent", "1",
            "--output", str(out), "--format", "json",
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["agents"] == [
            {"agent": 1, "mms": "2", "witness": [[0, 2], [1, 3]]}
        ]

    def test_exact_all_agents_text(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write(
            inst,
            json.dumps(
                {
                    "version": 1,
                    "kind": "additive-goods",
                    "n": 2,
                    "m": 4,
                    "values": [[5, 5, 5, 5], [1, 2, 3, 4]],
                }
            ),
        )
        capsys.readouterr()
        assert run("mms-exact", "--input", str(inst)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["command: mms-exact", "agents:"]
        rows = [line.split()[:2] for line in lines[2:]]
        assert rows == [["agent", "mms"], ["0", "10"], ["1", "5"]]

    def test_exact_single_agent_with_many_goods(self, tmp_path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "mms.json"
        row = [g % 7 for g in range(3000)]
        doc = {"version": 1, "kind": "additive-goods", "n": 1, "m": 3000, "values": [row]}
        write(inst, json.dumps(doc))
        argv = ["mms-exact", "--input", str(inst), "--output", str(out), "--format", "json"]
        assert run(*argv) == 0
        rows = json.loads(out.read_text())["agents"]
        assert rows == [{"agent": 0, "mms": str(sum(row)), "witness": [list(range(3000))]}]

    def test_solve_single_submodular_agent_with_many_goods(self, tmp_path):
        # round robin and the audit's exact share both take every good at once
        inst = tmp_path / "inst.json"
        out = tmp_path / "report.json"
        agent = {"family": "budget-additive", "weights": [1] * 3000, "cap": 1500}
        doc = {"version": 1, "kind": "submodular", "n": 1, "m": 3000, "agents": [agent]}
        write(inst, json.dumps(doc))
        argv = ["solve-submodular", "--input", str(inst), "--output", str(out)]
        assert run(*argv, "--format", "json") == 0
        report = json.loads(out.read_text())
        assert report["bundles"] == [list(range(3000))]
        assert report["agents"] == [{
            "agent": 0, "value": "1500", "mms": "1500", "mms_source": "exact",
            "ratio": "1", "satisfied": True,
        }]

    @pytest.mark.parametrize("n, m, seed, digest", [
        # the index-order search alone takes seconds to find the witness here
        (4, 20, 1, "32563a4f6c4ae75a3094ca4688b9e2a3510ebd9fdc3c02e06e6170f1eac1b2a9"),
        # the descending checks take seconds here without their memo
        (3, 40, 1, "a7881c10986f3fd971ae27e97943baafeaa48c9a552a0fab8d1d53f7d4c75808"),
        (3, 40, 2, "b84ddcb406f6e2bb2c312a395d7b7f63d87b66fb11582ec14f91b200eb0498a8"),
        (3, 40, 5, "b93336efdc1d74a5ce61d6a03d0672d16bb24aa5c5b953226a58d80cda5ad5d3"),
    ], ids=["n4-m20", "n3-m40", "n3-m40-seed2", "n3-m40-seed5"])
    def test_exact_narrow_row_past_the_default_budget(self, tmp_path, n, m, seed, digest):
        # narrow values make many partitions tie; each digest is the output
        # of the index-order search alone, which the good-by-good witness
        # must reproduce
        inst = tmp_path / "inst.json"
        out = tmp_path / "mms.json"
        assert run("generate", "--kind", "uniform-additive", "--n", str(n), "--m", str(m),
                   "--seed", str(seed), "--output", str(inst)) == 0
        assert run("mms-exact", "--input", str(inst), "--output", str(out), "--format", "json",
                   "--oracle-budget", str(n**m)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_exact_agent_out_of_range(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("fixtures", "--name", "submodular-gap", "--output", str(inst))
        assert run("mms-exact", "--input", str(inst), "--agent", "7") == 1

    def test_approx_on_additive_goods(self, tmp_path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "approx.json"
        assert run(
            "generate", "--kind", "uniform-additive", "--n", "2", "--m", "6",
            "--lo", "1", "--hi", "9", "--seed", "11", "--output", str(inst),
        ) == 0
        assert run(
            "mms-approx", "--input", str(inst), "--output", str(out),
            "--format", "json",
        ) == 0
        doc = json.loads(out.read_text())
        for row in doc["agents"]:
            assert row["certified"] is True
            worst = Fraction(row["min_bundle_value"])
            threshold = Fraction(row["accepted_threshold"])
            assert 9 * worst >= threshold

    @pytest.mark.parametrize("kind, command", [
        ("uniform-additive", "solve-additive"),
        ("chores", "solve-chores"),
    ])
    def test_solve_past_a_budget_too_large_to_print(self, tmp_path, kind, command):
        # 2^15000 has more than the 4,300 digits Python prints: the audit
        # reports every agent unavailable, as for any size over budget
        inst = tmp_path / "inst.json"
        out = tmp_path / "report.json"
        assert run("generate", "--kind", kind, "--n", "2", "--m", "15000",
                   "--output", str(inst)) == 0
        assert run(command, "--input", str(inst), "--output", str(out),
                   "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert [a["mms_source"] for a in doc["agents"]] == ["unavailable"] * 2

    @pytest.mark.parametrize("m, argv, message", [
        (15000, ["mms-exact"],
         "exact maximin enumeration: search size at least 2^15000 exceeds budget 100000000"),
    ])
    def test_oracle_past_a_budget_too_large_to_print(self, tmp_path, capsys, m, argv, message):
        inst = tmp_path / "inst.json"
        assert run("generate", "--kind", "uniform-additive", "--n", "2", "--m", str(m),
                   "--output", str(inst)) == 0
        capsys.readouterr()
        assert run(*argv, "--input", str(inst)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_approx_certifies_past_the_exact_oracle(self, tmp_path):
        # 8^50 is past the exact oracle's budget; every agent's partition
        # still reaches its threshold / 9
        inst = tmp_path / "inst.json"
        out = tmp_path / "approx.json"
        assert run("generate", "--kind", "coverage", "--n", "8", "--m", "50", "--seed", "3",
                   "--output", str(inst)) == 0
        assert run("mms-approx", "--input", str(inst), "--output", str(out),
                   "--format", "json") == 0
        rows = json.loads(out.read_text())["agents"]
        assert [row["certified"] for row in rows] == [True] * 8
        for row in rows:
            assert 9 * Fraction(row["min_bundle_value"]) >= Fraction(row["accepted_threshold"])

    def test_approx_reports_a_failed_evaluation(self, tmp_path, capsys, monkeypatch):
        # every probe accepts with all goods in one bundle, so the poorest
        # bundle, 0, misses threshold / 9: heuristic, and nothing raises
        def probe(f, n, tau):
            return Allocation([list(range(f.m))] + [[] for _ in range(n - 1)], f.m)

        monkeypatch.setattr(oracles, "threshold_probe", probe)
        result = oracles.mms_approx_submodular(BudgetAdditive((4, 3, 2, 1), 10), 2)
        assert (result.bound, result.min_bundle_value, result.certified) == (10, 0, False)
        inst = tmp_path / "inst.json"
        write(inst, json.dumps({"version": 1, "kind": "additive-goods", "n": 2, "m": 4,
                                "values": [[4, 3, 2, 1]] * 2}))
        capsys.readouterr()
        assert run("mms-approx", "--input", str(inst), "--agent", "0") == 0
        header, row = capsys.readouterr().out.splitlines()[2:]
        assert dict(zip(header.split(), row.split())) == {
            "agent": "0", "accepted_threshold": "10", "bundle_floor": "10/9",
            "certified": "no", "min_bundle_value": "0", "bundles": "[[0,1,2,3],[]]",
        }

    @pytest.mark.parametrize("solver", sorted(SLOT_SOLVERS))
    def test_approx_with_one_huge_good(self, tmp_path, solver):
        # the search starts at the seeds' threshold, 9 times the third
        # largest value, so no threshold carries the 4,300 digits of the
        # total, whichever solver packs the slots
        inst = tmp_path / "inst.json"
        out = tmp_path / "approx.json"
        write(inst, json.dumps({"version": 1, "kind": "additive-goods", "n": 3, "m": 5,
                                "values": [[str(10**4299 + 7), 17, 55, 100, 3]] * 3}))
        with slot_solver(solver):
            assert run("mms-approx", "--input", str(inst), "--agent", "0",
                       "--output", str(out), "--format", "json") == 0
        [row] = json.loads(out.read_text())["agents"]
        assert row["accepted_threshold"] == "495"

    def test_approx_zero_share_is_written_exactly(self, tmp_path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "approx.json"
        agent = {"family": "budget-additive", "weights": [0, 0, 5], "cap": 5}
        write(inst, json.dumps({"version": 1, "kind": "submodular", "n": 2, "m": 3,
                                "agents": [agent, agent]}))
        assert run("mms-approx", "--input", str(inst), "--output", str(out),
                   "--format", "json") == 0
        for row in json.loads(out.read_text())["agents"]:
            assert (row["accepted_threshold"], row["bundle_floor"]) == ("0", "0")

    def test_approx_rejects_chores(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("generate", "--kind", "chores", "--n", "2", "--m", "4",
            "--output", str(inst))
        assert run("mms-approx", "--input", str(inst)) == 1


class TestValuesTooLong:
    """Python writes no int of more than 4,300 digits: a value that could
    not be written back is refused when read, and one that a bundle sum
    makes too long is refused when written, each as one error line."""

    def test_bundle_value_too_long_to_write(self, tmp_path, capsys):
        # each value has 4,300 digits and parses; their sum has 4,301
        big = 10**4300 - 1
        inst = tmp_path / "inst.json"
        write(inst, '{"version": 1, "kind": "additive-goods", "n": 1, "m": 2, '
                    f'"values": [[{big}, {big}]]}}')
        capsys.readouterr()
        assert run("solve-additive", "--input", str(inst)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write a 14286-bit value: too many digits\n"

    @pytest.mark.parametrize("value", ["1e-5000", "1e5000", "1e-4300", "1e10000000"])
    def test_exponent_past_the_limit(self, tmp_path, capsys, value):
        inst = tmp_path / "inst.json"
        write(inst, json.dumps({"version": 1, "kind": "additive-goods", "n": 2, "m": 2,
                                "values": [[value, "1"], ["1", "1"]]}))
        capsys.readouterr()
        assert run("mms-exact", "--input", str(inst)) == 1
        assert capsys.readouterr().err == f"error: values[0][0]: cannot parse value '{value}'\n"


class TestFixturesCommand:
    def test_gap_fixture_round_trips(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run("fixtures", "--name", "submodular-gap", "--output", str(inst)) == 0
        parsed = parse_instance(inst.read_text())
        assert len(parsed) == 2
        assert parsed[0].evaluate([0, 1]) == 2
        # not submodular, yet no good adds more than its own value: it parses
        assert not any(verify_submodular(f) for f in parsed)

    def test_gap_fixture_has_no_allocation(self, tmp_path):
        assert run(
            "fixtures", "--name", "submodular-gap",
            "--output", str(tmp_path / "i.json"),
            "--allocation-out", str(tmp_path / "a.json"),
        ) == 1

    def test_ef1_fixture_matches_library(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run(
            "fixtures", "--name", "ef1-not-mms", "--n", "4", "--output", str(inst)
        ) == 0
        parsed = parse_instance(inst.read_text())
        assert isinstance(parsed, AdditiveInstance)
        assert parsed.values[0] == (1, 1, 1, 1, 4, 4, 4)


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        assert run("solve-additive", "--input", str(tmp_path / "nope.json")) == 1

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        # exit 2 means a violated guarantee, never a mistyped command line
        assert run("solve-additive") == 1
        assert "--input" in capsys.readouterr().err

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert run("bogus") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_ignored_format_flag_is_refused(self):
        assert run("generate", "--kind", "chores", "--n", "2", "--m", "3",
                   "--format", "table") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert capsys.readouterr().out.startswith("usage: mmsfair")

    def test_bad_json(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write(inst, "{broken")
        capsys.readouterr()
        assert run("solve-additive", "--input", str(inst)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1" in err

    @pytest.mark.parametrize("command", ["solve-additive", "verify", "sweep"])
    def test_oversized_integer_literal(self, tmp_path, capsys, command):
        # json.loads raises a plain ValueError, not a JSONDecodeError, on an
        # int literal past int()'s digit limit: one error line, exit 1
        bad = tmp_path / "bad.json"
        write(bad, '{"version": 1, "kind": "additive-goods", "n": 1, "m": 1, '
                   f'"values": [[{"9" * 5000}]]}}')
        flag = {"solve-additive": "--input", "verify": "--allocation", "sweep": "--config"}
        argv = [command, flag[command], str(bad)]
        if command == "verify":
            inst = tmp_path / "inst.json"
            write(inst, '{"version": 1, "kind": "additive-goods", "n": 1, "m": 1, "values": [[1]]}')
            argv += ["--input", str(inst)]
        capsys.readouterr()
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "not valid JSON: Exceeds the limit" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["mms-exact", "solve-submodular"])
    def test_explicit_table_gaining_beyond_singleton(self, tmp_path, capsys, command):
        # good 1 is worth 0 alone yet adds 1 to {2}; the exact oracle's caps
        # assume no good adds more than max(0, its singleton value)
        inst = tmp_path / "inst.json"
        table = {"family": "explicit", "table": ["0", "1", "0", "0", "0", "0", "1", "2"]}
        doc = {"version": 1, "kind": "submodular", "n": 2, "m": 3, "agents": [table] * 2}
        write(inst, json.dumps(doc))
        capsys.readouterr()
        assert run(command, "--input", str(inst)) == 1
        assert capsys.readouterr().err == (
            "error: agents[0].table: good 1 adds 1 to bundle [2], "
            "more than max(0, its own value 0)\n"
        )

    def test_non_monotone_table_is_an_input_error(self, tmp_path, capsys):
        # f(all) = -3 < f({0}) = 6: alg_sub names the agent and the good,
        # and the command exits 1 with one error line, not a traceback
        inst = tmp_path / "inst.json"
        table = {"family": "explicit", "table": ["0", "6", "2", "-3"]}
        doc = {"version": 1, "kind": "submodular", "n": 1, "m": 2, "agents": [table]}
        write(inst, json.dumps(doc))
        capsys.readouterr()
        assert run("solve-submodular", "--input", str(inst)) == 1
        assert capsys.readouterr().err == (
            "error: agent 0's valuation is not monotone: good 0 alone is worth 6, "
            "its bundle [0, 1] only -3\n"
        )

    @pytest.mark.parametrize("m", [100_000, 2**70])
    @pytest.mark.parametrize(
        "command", ["solve-submodular", "solve-additive", "mms-exact", "mms-approx", "verify"]
    )
    def test_explicit_table_for_a_huge_ground_set(self, tmp_path, capsys, command, m):
        # the table's length is compared with m without building 2^m, which
        # would not print (m = 100000) or not fit in memory (m = 2^70)
        inst = tmp_path / "inst.json"
        doc = {"version": 1, "kind": "submodular", "n": 1, "m": m,
               "agents": [{"family": "explicit", "table": [0, 1]}]}
        write(inst, json.dumps(doc))
        argv = [command, "--input", str(inst)]
        if command == "verify":
            alloc = tmp_path / "alloc.json"
            write(alloc, json.dumps({"version": 1, "m": 1, "bundles": [[0]]}))
            argv += ["--allocation", str(alloc)]
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: agents[0].table: expected 2^{m} entries for m={m}\n"
        )

    @pytest.mark.parametrize("kind", ["coverage", "budget-additive", "explicit"])
    def test_generate_submodular_needs_a_positive_weight(self, tmp_path, capsys, kind):
        # weights are drawn from [max(1, lo), hi], empty when hi is 0
        capsys.readouterr()
        assert run("generate", "--kind", kind, "--n", "2", "--m", "3", "--hi", "0",
                   "--output", str(tmp_path / "i.json")) == 1
        assert capsys.readouterr().err == f"error: {kind} weights need hi >= 1\n"

    def test_generate_bad_range(self, tmp_path):
        assert run(
            "generate", "--kind", "uniform-additive", "--n", "2", "--m", "3",
            "--lo", "9", "--hi", "1", "--output", str(tmp_path / "i.json"),
        ) == 1


class TestSweep:
    def test_small_sweep_passes(self, tmp_path):
        config = tmp_path / "sweep.json"
        out = tmp_path / "summary.json"
        write(
            config,
            json.dumps(
                {
                    "sweeps": [
                        {
                            "name": "goods",
                            "bound": "additive-goods",
                            "count": 3,
                            "n": [2, 3],
                            "m": [3, 6],
                            "hi": 20,
                        },
                        {
                            "bound": "additive-chores",
                            "count": 2,
                            "n": 2,
                            "m": [2, 5],
                            "lo": -20,
                        },
                        {
                            "bound": "submodular",
                            "kind": "coverage",
                            "count": 2,
                            "n": 2,
                            "m": [2, 5],
                            "lo": 1,
                            "hi": 9,
                        },
                    ]
                }
            ),
        )
        assert run(
            "sweep", "--config", str(config), "--output", str(out),
            "--format", "json",
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["sweeps"]) == 3
        goods = doc["sweeps"][0]
        assert goods["name"] == "goods"
        assert goods["violations"] == 0
        assert goods["agents_checked"] > 0
        assert Fraction(goods["min_ratio"]) >= Fraction(2 * 2, 3 * 3 - 1)

    def test_sweep_splits_solve_and_audit_time(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        out = tmp_path / "summary.json"
        write(
            config,
            json.dumps(
                {
                    "sweeps": [
                        {"bound": "additive-goods", "count": 2, "n": 2, "m": [2, 4]},
                        {"bound": "submodular", "count": 2, "n": 2, "m": [2, 5]},
                    ]
                }
            ),
        )
        assert run(
            "sweep", "--config", str(config), "--output", str(out), "--format", "json",
        ) == 0
        for s in json.loads(out.read_text())["sweeps"]:
            assert 0 < s["solve_seconds"] and 0 < s["audit_seconds"]
            assert s["solve_seconds"] + s["audit_seconds"] <= s["seconds"]
        capsys.readouterr()
        assert run("sweep", "--config", str(config)) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert header.split()[-3:] == ["seconds", "solve_seconds", "audit_seconds"]

    def test_unproven_agents_are_skipped(self, tmp_path):
        # every agent is past the oracle's budget and bounded only from
        # below, so none is checked, whatever the source of its share
        config = tmp_path / "sweep.json"
        out = tmp_path / "summary.json"
        write(config, json.dumps({"sweeps": [
            {"bound": "submodular", "kind": "coverage", "count": 1, "n": 6, "m": 40, "seed": 3}
        ]}))
        assert run("sweep", "--config", str(config), "--output", str(out),
                   "--format", "json") == 0
        (row,) = json.loads(out.read_text())["sweeps"]
        assert (row["agents_checked"], row["agents_skipped"]) == (0, 6)
        assert row["min_ratio"] is row["mean_ratio"] is row["max_ratio"] is None

    def test_sweep_table_output(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        write(
            config,
            json.dumps(
                {"sweeps": [{"bound": "additive-goods", "count": 2, "n": 2, "m": [2, 4]}]}
            ),
        )
        capsys.readouterr()
        assert run("sweep", "--config", str(config)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sweeps:" and len(lines) == 3  # the header and one batch
        row = dict(zip(lines[1].split(), lines[2].split()))
        assert (row["name"], row["count"], row["violations"]) == (
            "additive-goods:uniform-additive", "2", "0"
        )
        assert all(Fraction(row[key]) > 0 for key in ("min_ratio", "mean_ratio", "max_ratio"))

    def test_sweep_rejects_mismatched_kind(self, tmp_path):
        config = tmp_path / "sweep.json"
        write(
            config,
            json.dumps({"sweeps": [{"bound": "additive-goods", "kind": "chores"}]}),
        )
        assert run("sweep", "--config", str(config)) == 1

    def test_sweep_rejects_bad_bound(self, tmp_path):
        config = tmp_path / "sweep.json"
        write(config, json.dumps({"sweeps": [{"bound": "proportional"}]}))
        assert run("sweep", "--config", str(config)) == 1

    @pytest.mark.parametrize("bound", [[], {}, ["submodular"]])
    def test_sweep_rejects_unhashable_bound(self, tmp_path, capsys, bound):
        config = tmp_path / "sweep.json"
        write(config, json.dumps({"sweeps": [{"bound": bound}]}))
        capsys.readouterr()
        assert run("sweep", "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            "error: sweeps[0].bound: expected one of ['additive-chores', 'additive-goods', "
            f"'submodular'], got {bound!r}\n"
        )

    @pytest.mark.parametrize(
        "delta, message",
        [("abc", "cannot parse value 'abc'"),
         (0.5, "values must be integers or 'p/q' strings, got float")],
    )
    def test_sweep_delta_names_its_field(self, tmp_path, capsys, delta, message):
        config = tmp_path / "sweep.json"
        write(config, json.dumps({"sweeps": [{"bound": "submodular", "delta": delta}]}))
        capsys.readouterr()
        assert run("sweep", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"error: sweeps[0].delta: {message}\n"

    def test_sweep_submodular_needs_a_positive_weight(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        write(config, json.dumps({"sweeps": [{"bound": "submodular", "count": 1, "hi": 0}]}))
        capsys.readouterr()
        assert run("sweep", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: coverage weights need hi >= 1\n"

    def test_sweep_needs_config_shape(self, tmp_path):
        config = tmp_path / "sweep.json"
        write(config, json.dumps({"batches": []}))
        assert run("sweep", "--config", str(config)) == 1

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("name", ["a", "b"]),
            ("seed", "abc"),
            ("lo", "a"),
            ("hi", 1.5),
            ("oracle-budget", "big"),
            ("oracle-budget", True),
            ("delta", 0.5),
            ("delta", "abc"),
            ("delta", 0),
            ("delta", -3),
        ],
    )
    def test_sweep_rejects_bad_field(self, tmp_path, capsys, field, bad):
        config = tmp_path / "sweep.json"
        entry = {"bound": "additive-goods", "count": 1, "n": 2, "m": 2, field: bad}
        write(config, json.dumps({"sweeps": [entry]}))
        capsys.readouterr()
        assert run("sweep", "--config", str(config), "--format", "table") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweeps[0].{field}: ")
        assert len(err.splitlines()) == 1


def _solve_json(values) -> str:
    """solve-additive --format json on a goods instance with these rows."""
    doc = {"version": 1, "kind": "additive-goods", "n": len(values), "m": len(values[0]),
           "values": values}
    with tempfile.TemporaryDirectory() as work:
        inst, out = Path(work) / "inst.json", Path(work) / "out.json"
        write(inst, json.dumps(doc))
        assert run("solve-additive", "--input", str(inst), "--output", str(out),
                   "--format", "json") == 0
        return out.read_text(encoding="utf-8")


@given(
    n=st.integers(1, 4), m=st.integers(0, 10), hi=st.sampled_from((1, 5, 10**6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_int_and_string_spellings_give_identical_reports(n, m, hi, seed):
    # one instance written as JSON ints, as "p" strings and as "k*p/k"
    # strings (a different k per entry) must give the same output bytes
    rng = random.Random(seed)
    rows = [[rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
    spelled = [[str(v) for v in row] for row in rows]
    scaled = [[f"{k * v}/{k}" for v, k in zip(row, (rng.randint(2, 10**6) for _ in row))]
              for row in rows]
    assert _solve_json(spelled) == _solve_json(rows) == _solve_json(scaled)
