"""Nonincreasing nonlinearities h with a power singularity at zero.

Three concrete families cover both admissible behaviours at the origin:

* ``pure_power``      h(s) = s^-gamma              (blows up at 0)
* ``shifted_power``   h(s) = (s + shift)^-gamma    (finite limit at 0)
* ``bounded_plateau`` h(s) = min(plateau, s^-gamma)

The truncation T_k clamps to [-k, k].  At regularization level n the
nonlinearity is capped at n, which for nonnegative h is simply min(n, h);
``eval_h_n`` is that cap, and both the solver's right-hand side and the Kato
check evaluate h through it.  ``slope_h_n`` is |d/ds min(n, h(s))|, the
diagonal of the solver's Newton Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularNonlinearity",
    "eval_h_n",
    "slope_h_n",
    "trunc_T",
    "trunc_power",
]

_KINDS = ("pure_power", "shifted_power", "bounded_plateau")


@dataclass(frozen=True)
class SingularNonlinearity:
    """A nonincreasing, positive nonlinearity given by its closed form."""

    kind: str
    gamma: float
    shift: float = 0.0
    plateau: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not all(math.isfinite(x) for x in (self.gamma, self.shift, self.plateau)):
            raise ValueError("gamma, shift and plateau must be finite")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.kind == "shifted_power" and self.shift <= 0:
            raise ValueError(f"shift must be positive, got {self.shift}")
        if self.kind == "bounded_plateau" and self.plateau <= 0:
            raise ValueError(f"plateau must be positive, got {self.plateau}")

    # -- evaluation ------------------------------------------------------

    def __call__(self, s):
        """Evaluate h(s) for s > 0 (scalar or array)."""
        arr = np.asarray(s, dtype=float)
        if (arr <= 0.0).any():
            raise ValueError("h is only defined for positive arguments")
        if self.kind == "pure_power":
            out = arr ** (-self.gamma)
        elif self.kind == "shifted_power":
            out = (arr + self.shift) ** (-self.gamma)
        else:
            out = np.minimum(self.plateau, arr ** (-self.gamma))
        return out if isinstance(s, np.ndarray) else float(out)

    @property
    def strictly_decreasing(self) -> bool:
        """True when h has no flat stretch (plateau kinds are only nonincreasing)."""
        return self.kind in ("pure_power", "shifted_power")

    # -- constructors ----------------------------------------------------

    @classmethod
    def pure_power(cls, gamma: float) -> "SingularNonlinearity":
        return cls(kind="pure_power", gamma=float(gamma))

    @classmethod
    def shifted_power(cls, gamma: float, shift: float) -> "SingularNonlinearity":
        return cls(kind="shifted_power", gamma=float(gamma), shift=float(shift))

    @classmethod
    def bounded_plateau(cls, gamma: float, plateau: float) -> "SingularNonlinearity":
        return cls(kind="bounded_plateau", gamma=float(gamma), plateau=float(plateau))


def eval_h_n(h: SingularNonlinearity, n: int, s):
    """Level-n truncation min(n, h(s)); h >= 0 so the clamp is a plain cap."""
    if int(n) != n or n < 1:
        raise ValueError(f"truncation level must be an integer >= 1, got {n}")
    out = np.minimum(float(n), np.asarray(h(s), dtype=float))
    return out if isinstance(s, np.ndarray) else float(out)


def slope_h_n(h: SingularNonlinearity, n: int, s: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """|d/ds min(n, h(s))| at s > 0, given ``hs = eval_h_n(h, n, s)``.

    Every family has |h'(s)| = gamma h(s) / (s + shift) where h is a power
    (shift is 0 for pure_power and bounded_plateau).  The slope is 0 where the
    cap n is active, and for bounded_plateau also where the plateau is; at a
    kink the flat side's slope, 0, is taken.
    """
    flat = min(float(n), h.plateau) if h.kind == "bounded_plateau" else float(n)
    return np.where(hs < flat, h.gamma * hs / (s + h.shift), 0.0)


def trunc_T(k: float, s):
    """Clamp of s to [-k, k], computed as s - sign(s) (|s| - k)^+.

    The subtraction is exact (Sterbenz), so T plus the signed excess is s
    for every (k, s).  Once |s| > 2k the excess may round, and T then
    differs from ``np.clip`` by up to half an ulp of s; verify's energy-law
    slope is fitted on this arithmetic.
    """
    if k <= 0:
        raise ValueError(f"truncation level must be positive, got {k}")
    arr = np.asarray(s, dtype=float)
    t = arr - np.sign(arr) * np.maximum(np.abs(arr) - k, 0.0)
    return t if isinstance(s, np.ndarray) else float(t)


def trunc_power(k: float, gamma: float, s):
    """(T_k(s))^((gamma+1)/2) for s >= 0, gamma >= 1."""
    if gamma < 1:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("argument must be nonnegative")
    out = np.asarray(trunc_T(k, arr)) ** ((gamma + 1.0) / 2.0)
    return out if isinstance(s, np.ndarray) else float(out)
