"""Submodular side of the package: valuation oracles, and the threshold
round robin with its self-calibrating wrapper.

The multilinear extensions and the contraction f_H through which the paper
proves the 1/10 bound are analysis, not algorithm: no solver, audit or
command computes one, so they live with the tests (tests/multilinear.py),
as does the full admissibility check of a valuation (tests/lemmas.py).
"""

from .allocate import ThresholdState, alg_sub, round_robin
from .valuations import (
    BudgetAdditive,
    ExplicitTable,
    SubmodularValuation,
    WeightedCoverage,
    detect_positive_mms,
    goods_of,
    mask_of,
)

__all__ = [
    "BudgetAdditive",
    "ExplicitTable",
    "SubmodularValuation",
    "ThresholdState",
    "WeightedCoverage",
    "alg_sub",
    "detect_positive_mms",
    "goods_of",
    "mask_of",
    "round_robin",
]
