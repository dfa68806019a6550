"""Flat key-value run configuration.

One ``section.key = value`` per line, ``#`` starts a comment line, repeated
keys are rejected except ``measure.atom`` which accumulates.  Every key can
be overridden from the environment via SINGPDE_<KEY> with dots replaced by
underscores (e.g. SINGPDE_H_GAMMA); SINGPDE_MEASURE_ATOM separates several
atoms with semicolons.

Every number must be finite: ``nan`` and ``inf`` are rejected under the key
that holds them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import fields
from .measures import RadonMeasure
from .singularity import SingularNonlinearity
from .solver import DEFAULT_SCHEDULE, SolverConfig

__all__ = ["ConfigError", "RunConfig", "load_raw_config", "ENV_PREFIX", "SUITES"]

ENV_PREFIX = "SINGPDE_"

SUITES = (
    "lower_bound",
    "monotone",
    "energy_law",
    "tails",
    "kato",
    "uniqueness",
    "sandwich",
    "manufactured",
    "all",
)

_F_KINDS = ("zero", "constant", "gaussian_bump", "sin_pi", "manufactured_singular")
_H_KINDS = ("pure_power", "shifted_power", "bounded_plateau")
_SWEEP_MEASURES = ("none", "dirac_center", "uniform")

KNOWN_KEYS = (
    "domain.dim",
    "domain.cells",
    "domain.margin",
    "domain.margins",
    "h.kind",
    "h.gamma",
    "h.shift",
    "h.plateau",
    "f.kind",
    "f.value",
    "f.center",
    "f.width",
    "f.scale",
    "measure.atom",
    "measure.density",
    "sequence.n_schedule",
    "solver.tol_fp",
    "solver.tol_mono",
    "solver.max_iters",
    "verify.suite",
    "sweep.gamma",
    "sweep.cells",
    "sweep.measure",
    "output.dir",
    "threads",
)

_REPEATABLE = ("measure.atom",)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "_")


def load_raw_config(path: str, environ=None) -> dict[str, list[str]]:
    """Parse a config file into raw string values, then apply SINGPDE_* variables."""
    environ = os.environ if environ is None else environ
    raw: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key == "atom":  # shorthand for measure.atom
                key = "measure.atom"
            if key not in KNOWN_KEYS:
                raise ConfigError(key, "unknown configuration key")
            if key in raw and key not in _REPEATABLE:
                raise ConfigError(key, "duplicate key")
            raw.setdefault(key, []).append(value)
    for key in KNOWN_KEYS:
        env_value = environ.get(_env_name(key))
        if env_value is None:
            continue
        if key in _REPEATABLE:
            raw[key] = [part.strip() for part in env_value.split(";") if part.strip()]
        else:
            raw[key] = [env_value]
    return raw


def _single(raw, key) -> str | None:
    values = raw.get(key)
    return values[-1] if values else None


def _get_float(raw, key, default=None) -> float | None:
    text = _single(raw, key)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"expected a finite number, got {text!r}")
    return value


def _get_int(raw, key, default=None) -> int | None:
    text = _single(raw, key)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {text!r}") from None


def _get_list(raw, key, cast, default=()) -> tuple:
    text = _single(raw, key)
    if text is None:
        return tuple(default)
    parts = [p.strip() for p in text.strip("[]").split(",") if p.strip()]
    try:
        values = tuple(cast(p) for p in parts)
    except ValueError:
        raise ConfigError(key, f"expected a comma-separated list, got {text!r}") from None
    if cast is float and not all(math.isfinite(v) for v in values):
        raise ConfigError(key, f"expected finite numbers, got {text!r}")
    return values


def _build_h(raw) -> SingularNonlinearity:
    kind = _single(raw, "h.kind") or "pure_power"
    if kind not in _H_KINDS:
        raise ConfigError("h.kind", f"must be one of {_H_KINDS}, got {kind!r}")
    gamma = _get_float(raw, "h.gamma", 0.5)
    if gamma <= 0:
        raise ConfigError("h.gamma", f"must be positive, got {gamma}")
    if kind == "pure_power":
        return SingularNonlinearity.pure_power(gamma)
    if kind == "shifted_power":
        shift = _get_float(raw, "h.shift", 1.0)
        if shift <= 0:
            raise ConfigError("h.shift", f"must be positive, got {shift}")
        return SingularNonlinearity.shifted_power(gamma, shift)
    plateau = _get_float(raw, "h.plateau", 10.0)
    if plateau <= 0:
        raise ConfigError("h.plateau", f"must be positive, got {plateau}")
    return SingularNonlinearity.bounded_plateau(gamma, plateau)


def _build_f(raw) -> fields.ScalarField:
    kind = _single(raw, "f.kind") or "constant"
    if kind not in _F_KINDS:
        raise ConfigError("f.kind", f"must be one of {_F_KINDS}, got {kind!r}")
    if kind == "zero":
        return fields.zero()
    if kind == "constant":
        value = _get_float(raw, "f.value", 1.0)
        if value < 0:
            raise ConfigError("f.value", f"source must be nonnegative, got {value}")
        return fields.constant(value)
    if kind == "gaussian_bump":
        center = _get_list(raw, "f.center", float, (0.5, 0.5, 0.5))
        width = _get_float(raw, "f.width", 0.1)
        scale = _get_float(raw, "f.scale", 1.0)
        if width <= 0:
            raise ConfigError("f.width", f"must be positive, got {width}")
        if scale < 0:
            raise ConfigError("f.scale", f"source must be nonnegative, got {scale}")
        return fields.gaussian_bump(center, width, scale)
    if kind == "sin_pi":
        scale = _get_float(raw, "f.scale", 1.0)
        if scale < 0:
            raise ConfigError("f.scale", f"source must be nonnegative, got {scale}")
        return fields.sin_pi(scale)
    gamma = _get_float(raw, "h.gamma", 0.5)
    return fields.manufactured_singular(gamma)


def _parse_density(text: str) -> fields.ScalarField:
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        args_text = rest.rstrip(")").strip()
        args = [float(p) for p in args_text.split(",") if p.strip()] if args_text else []
        if not all(math.isfinite(a) for a in args):
            raise ValueError(f"arguments must be finite, got {args_text!r}")
    else:
        name, args = text, []
    name = name.strip()
    if name == "zero":
        return fields.zero()
    if name == "constant":
        if len(args) != 1:
            raise ValueError("constant(c) takes exactly one argument")
        if args[0] < 0:
            raise ValueError("density must be nonnegative")
        return fields.constant(args[0])
    if name == "gaussian_bump":
        if len(args) != 5:
            raise ValueError("gaussian_bump takes (cx, cy, cz, width, scale)")
        if args[4] < 0:
            raise ValueError("density must be nonnegative")
        return fields.gaussian_bump(tuple(args[:3]), args[3], args[4])
    raise ValueError(f"unknown density builtin {name!r}")


def _build_measure(raw, dim: int) -> RadonMeasure:
    atoms = []
    for text in raw.get("measure.atom", []):
        parts = [p.strip() for p in text.strip("[]").split(",") if p.strip()]
        if len(parts) != 4:
            raise ConfigError(
                "measure.atom", f"expected [x, y, z, mass], got {text!r}"
            )
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            raise ConfigError("measure.atom", f"non-numeric entry in {text!r}") from None
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigError("measure.atom", f"non-finite entry in {text!r}")
        coords, mass = tuple(numbers[:3]), numbers[3]
        if mass < 0:
            raise ConfigError("measure.atom", f"mass must be nonnegative, got {mass}")
        used = coords[:dim]
        if any(not 0.0 < c < 1.0 for c in used):
            raise ConfigError(
                "measure.atom", f"coordinates {used} must lie strictly inside (0, 1)"
            )
        # Pad ignored coordinates to the box center so validation passes.
        atoms.append((used + (0.5,) * (3 - dim), mass))
    density_text = _single(raw, "measure.density")
    density = None
    if density_text is not None and density_text != "zero":
        try:
            density = _parse_density(density_text)
        except ValueError as exc:
            raise ConfigError("measure.density", str(exc)) from None
        if density.name == "zero":
            density = None
    return RadonMeasure(atoms=tuple(atoms), density=density)


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one configuration file."""

    dim: int
    cells: int
    grid_margin: float
    margins: tuple[float, ...]
    h: SingularNonlinearity
    f: fields.ScalarField
    mu: RadonMeasure
    n_schedule: tuple[int, ...]
    solver: SolverConfig
    suite: str
    out_dir: str
    threads: int
    sweep_gammas: tuple[float, ...]
    sweep_cells: tuple[int, ...]
    sweep_measures: tuple[str, ...]

    @classmethod
    def from_file(cls, path: str, environ=None) -> "RunConfig":
        return cls.from_raw(load_raw_config(path, environ=environ))

    @classmethod
    def from_raw(cls, raw: dict[str, list[str]]) -> "RunConfig":
        dim = _get_int(raw, "domain.dim", 1)
        if dim not in (1, 2, 3):
            raise ConfigError("domain.dim", f"must be 1, 2 or 3, got {dim}")
        cells = _get_int(raw, "domain.cells", 64)
        if cells < 2:
            raise ConfigError("domain.cells", f"must be at least 2, got {cells}")
        grid_margin = _get_float(raw, "domain.margin", 0.0)
        if not 0.0 <= grid_margin < 0.5:
            raise ConfigError("domain.margin", f"must lie in [0, 0.5), got {grid_margin}")
        margins = _get_list(raw, "domain.margins", float, (0.125, 0.25))
        for m in margins:
            if not 0.0 <= m < 0.5:
                raise ConfigError("domain.margins", f"margins must lie in [0, 0.5), got {m}")

        h = _build_h(raw)
        f = _build_f(raw)
        mu = _build_measure(raw, dim)

        schedule = _get_list(raw, "sequence.n_schedule", int, DEFAULT_SCHEDULE)
        if not schedule:
            raise ConfigError("sequence.n_schedule", "must not be empty")
        if any(n < 1 for n in schedule) or any(
            b <= a for a, b in zip(schedule, schedule[1:])
        ):
            raise ConfigError(
                "sequence.n_schedule", f"must be strictly increasing and >= 1, got {schedule}"
            )

        tol_fp = _get_float(raw, "solver.tol_fp")
        tol_mono = _get_float(raw, "solver.tol_mono", 1e-8)
        max_iters = _get_int(raw, "solver.max_iters", 500)
        for key, value in (
            ("solver.tol_fp", tol_fp),
            ("solver.tol_mono", tol_mono),
        ):
            if value is not None and value <= 0:
                raise ConfigError(key, f"tolerance must be positive, got {value}")
        if max_iters < 1:
            raise ConfigError("solver.max_iters", f"must be at least 1, got {max_iters}")
        solver_cfg = SolverConfig(
            tol_fp=tol_fp,
            tol_mono=tol_mono,
            max_iters=max_iters,
        )

        suite = _single(raw, "verify.suite") or "all"
        if suite not in SUITES:
            raise ConfigError("verify.suite", f"must be one of {SUITES}, got {suite!r}")

        sweep_measures = tuple(
            str(s) for s in _get_list(raw, "sweep.measure", str, ())
        )
        for name in sweep_measures:
            if name not in _SWEEP_MEASURES:
                raise ConfigError(
                    "sweep.measure", f"must be one of {_SWEEP_MEASURES}, got {name!r}"
                )
        sweep_cells = _get_list(raw, "sweep.cells", int, ())
        for c in sweep_cells:
            if c < 2:
                raise ConfigError("sweep.cells", f"cells must be at least 2, got {c}")
        sweep_gammas = _get_list(raw, "sweep.gamma", float, ())
        for g in sweep_gammas:
            if g <= 0:
                raise ConfigError("sweep.gamma", f"gamma must be positive, got {g}")

        threads = _get_int(raw, "threads", 1)
        if threads < 1:
            raise ConfigError("threads", f"must be at least 1, got {threads}")

        return cls(
            dim=dim,
            cells=cells,
            grid_margin=grid_margin,
            margins=margins,
            h=h,
            f=f,
            mu=mu,
            n_schedule=schedule,
            solver=solver_cfg,
            suite=suite,
            out_dir=_single(raw, "output.dir") or "out",
            threads=threads,
            sweep_gammas=sweep_gammas,
            sweep_cells=sweep_cells,
            sweep_measures=sweep_measures,
        )
