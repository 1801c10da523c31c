"""Shared test settings.

Hypothesis runs derandomized (examples follow from each test's source, not
from a random seed) with a bounded example count and no per-example
deadline, so the suite is deterministic and its running time is bounded.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("deterministic")
