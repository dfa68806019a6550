"""Nonincreasing nonlinearities h with a power singularity at zero.

Three concrete families cover both admissible behaviours at the origin:

* ``pure_power``      h(s) = s^-gamma              (blows up at 0)
* ``shifted_power``   h(s) = (s + shift)^-gamma    (finite limit at 0)
* ``bounded_plateau`` h(s) = min(plateau, s^-gamma)

Each instance carries growth-envelope constants (c1, k_under) near zero and
(c2, k_over) at infinity: h(s) <= c1 s^-gamma for s < k_under and
h(s) <= c2 s^-theta for s > k_over.  Constructors verify the envelopes, the
monotone decrease and the finite limit at infinity on a 1000-point log-spaced
sample of (1e-8, 1e8) and reject parameters that break them.

Truncations: T_k clamps to [-k, k], G_k is the signed excess beyond k, and
T_k + G_k is the identity in floating point.  At regularization level n the
nonlinearity is capped at n, which for nonnegative h is simply min(n, h); the
solver applies the same cap inline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularNonlinearity",
    "eval_h_n",
    "trunc_T",
    "trunc_G",
    "trunc_power",
]

_ENVELOPE_SAMPLES = np.logspace(-8.0, 8.0, 1000)
_ENVELOPE_SLACK = 1.0 + 1e-9

_KINDS = ("pure_power", "shifted_power", "bounded_plateau")


@dataclass(frozen=True)
class SingularNonlinearity:
    """A nonincreasing, positive nonlinearity with verified growth envelopes."""

    kind: str
    gamma: float
    theta: float
    c1: float
    c2: float
    k_under: float
    k_over: float
    shift: float = 0.0
    plateau: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("envelope constants c1, c2 must be positive")
        if self.k_under <= 0 or self.k_over < self.k_under:
            raise ValueError("need 0 < k_under <= k_over")
        if self.kind == "shifted_power" and self.shift <= 0:
            raise ValueError(f"shift must be positive, got {self.shift}")
        if self.kind == "bounded_plateau" and self.plateau <= 0:
            raise ValueError(f"plateau must be positive, got {self.plateau}")
        self._check_envelopes()

    # -- evaluation ------------------------------------------------------

    def __call__(self, s):
        """Evaluate h(s) for s > 0 (scalar or array)."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr <= 0.0):
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
    def pure_power(cls, gamma: float, **overrides) -> "SingularNonlinearity":
        """h(s) = s^-gamma; the envelopes are tight with c1 = c2 = 1."""
        params = dict(
            kind="pure_power",
            gamma=float(gamma),
            theta=float(gamma),
            c1=1.0,
            c2=1.0,
            k_under=1.0,
            k_over=1.0,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def shifted_power(
        cls, gamma: float, shift: float, **overrides
    ) -> "SingularNonlinearity":
        params = dict(
            kind="shifted_power",
            gamma=float(gamma),
            theta=float(gamma),
            c1=1.0,
            c2=1.0,
            k_under=1.0,
            k_over=1.0,
            shift=float(shift),
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def bounded_plateau(
        cls, gamma: float, plateau: float, **overrides
    ) -> "SingularNonlinearity":
        # Beyond max(1, plateau^(-1/gamma)) the plateau is inactive, so the
        # power tail gives c2 = 1; a user-supplied smaller k_over inflates c2.
        gamma = float(gamma)
        plateau = float(plateau)
        k_over = max(1.0, plateau ** (-1.0 / gamma)) if plateau > 0 else 1.0
        params = dict(
            kind="bounded_plateau",
            gamma=gamma,
            theta=gamma,
            c1=1.0,
            c2=1.0,
            k_under=1.0,
            k_over=k_over,
            plateau=plateau,
        )
        params.update(overrides)
        if "k_over" in overrides:
            ko = float(overrides["k_over"])
            if "c2" not in overrides:
                params["c2"] = max(1.0, plateau * ko ** params["theta"])
            if "k_under" not in overrides:
                params["k_under"] = min(params["k_under"], ko)
        return cls(**params)

    # -- internal --------------------------------------------------------

    def _check_envelopes(self) -> None:
        s = _ENVELOPE_SAMPLES
        hv = np.asarray(self(s))
        if np.any(hv <= 0.0):
            raise ValueError("h must be positive on (0, inf)")
        if np.any(hv[1:] > hv[:-1] * _ENVELOPE_SLACK):
            raise ValueError("h must be nonincreasing")
        near = s < self.k_under
        if np.any(hv[near] > self.c1 * s[near] ** (-self.gamma) * _ENVELOPE_SLACK):
            raise ValueError("growth envelope near zero violated")
        far = s > self.k_over
        if np.any(hv[far] > self.c2 * s[far] ** (-self.theta) * _ENVELOPE_SLACK):
            raise ValueError("decay envelope at infinity violated")
        if self(1e6) > self(self.k_over) * _ENVELOPE_SLACK:
            raise ValueError("h must have a finite limit at infinity")


def eval_h_n(h: SingularNonlinearity, n: int, s):
    """Level-n truncation min(n, h(s)); h >= 0 so the clamp is a plain cap."""
    if int(n) != n or n < 1:
        raise ValueError(f"truncation level must be an integer >= 1, got {n}")
    out = np.minimum(float(n), np.asarray(h(s), dtype=float))
    return out if isinstance(s, np.ndarray) else float(out)


def _split_at_level(k: float, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coherent floating-point split of s into (T_k(s), G_k(s)).

    G is the correctly rounded excess (|s| - k)^+ sign(s) and T is computed
    as s - G, which is exact: G is either zero or, by the Sterbenz lemma,
    close enough to s that the subtraction commits no rounding error.  The
    split therefore satisfies T + G == s exactly for every (k, s); on a
    saturated branch whose excess is not representable, T agrees with the
    clamp max(-k, min(k, s)) to within half an ulp of s.
    """
    g = np.sign(arr) * np.maximum(np.abs(arr) - k, 0.0)
    t = arr - g
    return t, g


def trunc_T(k: float, s):
    """Clamp of s to [-k, k] (exact complement of trunc_G; see _split_at_level)."""
    if k <= 0:
        raise ValueError(f"truncation level must be positive, got {k}")
    arr = np.asarray(s, dtype=float)
    t, _ = _split_at_level(k, arr)
    return t if isinstance(s, np.ndarray) else float(t)


def trunc_G(k: float, s):
    """Signed excess beyond level k: (|s| - k)^+ sign(s); T_k + G_k = id."""
    if k <= 0:
        raise ValueError(f"truncation level must be positive, got {k}")
    arr = np.asarray(s, dtype=float)
    _, g = _split_at_level(k, arr)
    return g if isinstance(s, np.ndarray) else float(g)


def trunc_power(k: float, gamma: float, s):
    """(T_k(s))^((gamma+1)/2) for s >= 0, gamma >= 1."""
    if gamma < 1:
        raise ValueError(f"gamma must be at least 1, got {gamma}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("argument must be nonnegative")
    out = np.asarray(trunc_T(k, arr)) ** ((gamma + 1.0) / 2.0)
    return out if isinstance(s, np.ndarray) else float(out)
