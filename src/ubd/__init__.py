"""Exact-arithmetic toolkit for modular-function expansions on X(Gamma^0(11)),
unbounded-denominator certificates for roots of catalog functions, and the
rank-2 sublattice census of character groups."""

__version__ = "0.1.0"
