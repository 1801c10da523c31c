"""End-to-end command line flows: solve, audit, generate, sweep."""

import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from lemmas import verify_submodular

from mmsfair.cli import main
from mmsfair.io import parse_allocation, parse_instance
from mmsfair.model import CHORES, AdditiveInstance


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
        text = capsys.readouterr().out
        assert "VIOLATED" in text
        assert "NO" in text

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
        text = capsys.readouterr().out
        assert "agent 0: mms 10" in text
        assert "agent 1: mms 5" in text

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
        assert doc["solver"] == "exhaustive"
        for row in doc["agents"]:
            assert row["certified"] is True
            worst = Fraction(row["min_bundle_value"])
            threshold = Fraction(row["accepted_threshold"])
            assert 9 * worst >= threshold

    def test_approx_rejects_chores(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("generate", "--kind", "chores", "--n", "2", "--m", "4",
            "--output", str(inst))
        assert run("mms-approx", "--input", str(inst)) == 1


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
        assert capsys.readouterr().out.split()[7:10] == ["seconds", "solve", "audit"]

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
        text = capsys.readouterr().out
        assert "violations" in text.splitlines()[0]

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
