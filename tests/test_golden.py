"""A golden corpus of seeded CLI runs: every output byte is pinned.

Each case runs mmsfair.cli.main in this process and records its exit code
and the sha256 digests of what it wrote to stdout and stderr. The corpus
generates one small instance of each of the six generator kinds, then runs
the matching solve-* command (json and table reports), verify on the
solver's allocation, mms-exact, and mms-approx with both matroid solvers
(goods and submodular instances). It also writes and audits both fixtures,
runs each solve-* command on an instance of the wrong kind, and runs one
sweep with its timing fields ("seconds", "solve_seconds", "audit_seconds")
masked before hashing. Every output is deterministic, so a refactor that
keeps behaviour keeps every digest.

The digests live in golden_digests.json next to this file. To record them
again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

from the repository root, and say in the change why the outputs moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mmsfair.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# (generator kind, solve command, n, m, value range or None for the default)
INSTANCES = (
    ("uniform-additive", "solve-additive", 3, 7, None),
    ("ordered-additive", "solve-additive", 3, 7, None),
    ("chores", "solve-chores", 3, 7, None),
    ("coverage", "solve-submodular", 3, 6, None),
    ("budget-additive", "solve-submodular", 3, 6, (1, 20)),
    ("explicit", "solve-submodular", 2, 5, None),
)

# solve command run on an instance of another kind, to pin the refusal
WRONG_KIND = (
    ("solve-additive", "chores"),
    ("solve-chores", "uniform-additive"),
    ("solve-submodular", "uniform-additive"),
    ("solve-additive", "coverage"),
)

SWEEP = {
    "sweeps": [
        {"bound": "additive-goods", "count": 3, "n": [2, 3], "m": [3, 6], "seed": 7},
        {"bound": "additive-chores", "count": 3, "n": [2, 3], "m": [3, 6], "seed": 8},
        {"bound": "submodular", "kind": "coverage", "count": 2, "n": 2, "m": [3, 5]},
    ]
}

TIMING_FIELDS = ("seconds", "solve_seconds", "audit_seconds")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus(work: Path) -> dict[str, dict]:
    """Run every case in order inside work; name -> exit code and digests."""
    results: dict[str, dict] = {}

    def record(name: str, argv: list[str], mask_timing: bool = False) -> str:
        code, out, err = _run(argv)
        if mask_timing:
            doc = json.loads(out)
            for row in doc["sweeps"]:
                for key in TIMING_FIELDS:
                    row[key] = None
            out = json.dumps(doc, indent=2) + "\n"
        results[name] = {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}
        return out

    paths = {}
    for kind, solve, n, m, span in INSTANCES:
        inst = work / f"{kind}.json"
        alloc = work / f"{kind}.alloc.json"
        paths[kind] = str(inst)
        argv = ["generate", "--kind", kind, "--n", str(n), "--m", str(m), "--seed", "3"]
        if span is not None:
            argv += ["--lo", str(span[0]), "--hi", str(span[1])]
        inst.write_text(record(f"generate {kind}", argv + ["--format", "json"]))
        record(
            f"{solve} {kind}",
            [solve, "--input", str(inst), "--allocation-out", str(alloc), "--format", "json"],
        )
        record(f"{solve} {kind} table", [solve, "--input", str(inst)])
        record(
            f"verify {kind}",
            ["verify", "--input", str(inst), "--allocation", str(alloc), "--format", "json"],
        )
        record(f"mms-exact {kind}", ["mms-exact", "--input", str(inst), "--format", "json"])
        if kind != "chores":
            for solver in ("exhaustive", "greedy"):
                record(
                    f"mms-approx {kind} {solver}",
                    ["mms-approx", "--input", str(inst), "--matroid-solver", solver,
                     "--format", "json"],
                )

    for solve, kind in WRONG_KIND:
        record(f"{solve} on {kind}", [solve, "--input", paths[kind], "--format", "json"])

    inst, alloc = work / "ef1.json", work / "ef1.alloc.json"
    inst.write_text(
        record(
            "fixtures ef1-not-mms",
            ["fixtures", "--name", "ef1-not-mms", "--n", "3",
             "--allocation-out", str(alloc), "--format", "json"],
        )
    )
    record(
        "verify ef1-not-mms",
        ["verify", "--input", str(inst), "--allocation", str(alloc), "--format", "json"],
    )
    inst = work / "gap.json"
    inst.write_text(
        record(
            "fixtures submodular-gap",
            ["fixtures", "--name", "submodular-gap", "--format", "json"],
        )
    )
    for command in ("solve-submodular", "mms-exact"):
        record(
            f"{command} submodular-gap",
            [command, "--input", str(inst), "--format", "json"],
        )

    config = work / "sweep.json"
    config.write_text(json.dumps(SWEEP))
    record("sweep", ["sweep", "--config", str(config), "--format", "json"], mask_timing=True)
    return results


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return corpus(tmp_path_factory.mktemp("golden"))


# missing only while the file is being recorded; the first test then fails
RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def test_corpus_covers_the_recorded_cases(outputs):
    assert sorted(outputs) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_matches_golden(outputs, name):
    assert outputs[name] == RECORDED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = corpus(Path(tmp))
    DIGESTS.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} digests to {DIGESTS}", file=sys.stderr)
