"""Submodular side of the package: valuation oracles (valuations), and the
threshold round robin with its self-calibrating wrapper (allocate).

The multilinear extensions and the contraction f_H through which the paper
proves the 1/10 bound are analysis, not algorithm: no solver, audit or
command computes one, so they live with the tests (tests/multilinear.py),
as does the full admissibility check of a valuation (tests/lemmas.py).
"""
