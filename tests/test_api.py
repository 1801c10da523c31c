"""The package's public surface, and README's account of it.

mmsfair.__all__ holds the entry points, the types they take or return and
the errors; everything else is imported from its submodule. README's entry
point table must name only public names, and its quick start must run.
"""

import re
from pathlib import Path

import mmsfair

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "AdditiveInstance",
    "Allocation",
    "BudgetAdditive",
    "BudgetExceededError",
    "CHORES",
    "ExplicitTable",
    "FairDivisionError",
    "GOODS",
    "InvalidInstanceError",
    "MmsApproxResult",
    "MmsCertificate",
    "NotOrderedError",
    "SubmodularValuation",
    "ThresholdState",
    "Value",
    "WeightedCoverage",
    "alg_sub",
    "mms_approx_submodular",
    "mms_exact_additive",
    "mms_exact_submodular",
    "solve_additive",
    "solve_chores",
]


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def test_all_is_the_public_surface():
    assert sorted(mmsfair.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in mmsfair.__all__:
        assert getattr(mmsfair, name) is not None, name


def test_readme_entry_points_are_public():
    text = _readme()
    table = text[text.index("| setting | entry point |"):]
    rows = table[: table.index("\n\n")].splitlines()[2:]
    entry_points = [re.search(r"`(\w+)`", row.split("|")[2]).group(1) for row in rows]
    assert len(entry_points) == 4
    assert set(entry_points) <= set(mmsfair.__all__)


def test_readme_quick_start_runs():
    text = _readme()
    start = text.index("```python\n", text.index("## Library quick start")) + len("```python\n")
    block = text[start: text.index("```", start)]
    assert "from mmsfair import" in block
    exec(compile(block, str(README), "exec"), {})
