"""Finite-difference solver and estimate-checking harness for the singular
elliptic problem -Lap u = f h(u) + mu with zero Dirichlet data on the unit
box, where h blows up at zero and mu is a nonnegative Radon measure."""

__version__ = "0.1.0"
