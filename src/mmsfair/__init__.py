"""Approximately maximin-fair division of indivisible goods and chores.

The package divides m indivisible items among n agents so that every agent
provably receives a stated fraction of its maximin share (the best worst
bundle the agent could secure by partitioning everything itself):

  * additive goods: 2n/(3n-1) of each maximin share, via reduction to an
    ordered instance and envy-graph allocation;
  * additive chores: within (4n-1)/(3n) of each (non-positive) share, same
    machinery pointed at envy-graph sinks;
  * monotone submodular goods: 1/(10(1+delta)) of each share, via a
    threshold round robin that calibrates itself by decaying thresholds;
  * a 1/9-scale lower bound on the maximin share of a single submodular
    valuation by threshold search, certified by the partition it returns.

All arithmetic is exact: fractions.Fraction, and in the hot loops ints, each
agent's values times the lcm of their denominators. Exact brute-force
oracles compute true maximin shares at desk scale so every guarantee can be
audited, and seeded generators plus a CLI make the audits reproducible.

The package namespace holds the solvers, the exact and certified share
oracles, the types they take or return, and the errors they raise. Every
other name is imported from its own submodule (mmsfair.model,
mmsfair.ordering, mmsfair.io, mmsfair.generators, ...).
"""

from .chores import solve_chores
from .envy_graph import solve_additive
from .errors import (
    BudgetExceededError,
    FairDivisionError,
    InvalidInstanceError,
    NotOrderedError,
)
from .model import CHORES, GOODS, AdditiveInstance, Allocation, MmsCertificate, Value
from .oracles import (
    MmsApproxResult,
    mms_approx_submodular,
    mms_exact_additive,
    mms_exact_submodular,
)
from .submodular.allocate import ThresholdState, alg_sub
from .submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    SubmodularValuation,
    WeightedCoverage,
)

__version__ = "0.1.0"

__all__ = [
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
