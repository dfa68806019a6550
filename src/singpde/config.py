"""Flat key-value run configuration.

One ``section.key = value`` per line, ``#`` starts a comment line, repeated
keys are rejected except ``measure.atom`` which accumulates, and so is a key
of ``h`` or ``f`` that the configured kind does not read.  A list whose
entries name output rows or columns (``domain.margins`` and the ``sweep``
lists) rejects a repeated entry.  The file is the only source of these
settings; the verify suite and the output directory are command-line
options of ``singpde`` and not keys.

Every number must be finite: ``nan`` and ``inf`` are rejected under the key
that holds them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import fields
from .measures import RadonMeasure
from .mesh import max_margin
from .singularity import _KINDS as _H_KINDS, SingularNonlinearity
from .solver import DEFAULT_SCHEDULE, SolverConfig

__all__ = ["ConfigError", "RunConfig", "load_raw_config", "SWEEP_MEASURES"]

_F_KINDS = ("zero", "constant", "gaussian_bump", "sin_pi", "manufactured_singular")
# The measures a sweep row can use, by the name sweep.measure gives them.
SWEEP_MEASURES = {
    "none": RadonMeasure(),
    "dirac_center": RadonMeasure(atoms=(((0.5, 0.5, 0.5), 1.0),)),
    "uniform": RadonMeasure(density=fields.constant(1.0)),
}

KNOWN_KEYS = (
    "domain.dim",
    "domain.cells",
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
    "solver.max_iters",
    "sweep.gamma",
    "sweep.cells",
    "sweep.measure",
    "threads",
)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def load_raw_config(path: str) -> dict[str, list[str]]:
    """Parse a config file into raw string values."""
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
            if key not in KNOWN_KEYS:
                raise ConfigError(key, "unknown configuration key")
            if key in raw and key != "measure.atom":
                raise ConfigError(key, "duplicate key")
            raw.setdefault(key, []).append(value)
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


def _get_distinct(raw, key, cast, default=(), name=str) -> tuple:
    """``_get_list`` for a list whose entries each name output rows or
    columns: two entries that are equal or share a ``name`` are rejected."""
    values = _get_list(raw, key, cast, default)
    names = [name(v) for v in values]
    for value, text in zip(values, names):
        if values.count(value) > 1 or names.count(text) > 1:
            raise ConfigError(key, f"repeated entry {text}")
    return values


def _reject_unread(raw, kind: str, readers: dict) -> None:
    """Reject each key of ``readers`` that ``raw`` sets and ``kind``, not one
    of the kinds that read it, would ignore."""
    for key, kinds in readers.items():
        if key in raw and kind not in kinds:
            raise ConfigError(key, f"read only by kind {' or '.join(kinds)}, not {kind!r}")


def _build_h(raw) -> SingularNonlinearity:
    kind = _single(raw, "h.kind") or "pure_power"
    if kind not in _H_KINDS:
        raise ConfigError("h.kind", f"must be one of {_H_KINDS}, got {kind!r}")
    _reject_unread(raw, kind, {"h.shift": ("shifted_power",), "h.plateau": ("bounded_plateau",)})
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


def _build_f(raw, dim: int) -> fields.ScalarField:
    kind = _single(raw, "f.kind") or "constant"
    if kind not in _F_KINDS:
        raise ConfigError("f.kind", f"must be one of {_F_KINDS}, got {kind!r}")
    bump = ("gaussian_bump",)
    _reject_unread(raw, kind, {"f.value": ("constant",), "f.center": bump, "f.width": bump,
                               "f.scale": (*bump, "sin_pi")})
    if kind == "zero":
        return fields.zero()
    if kind == "constant":
        value = _get_float(raw, "f.value", 1.0)
        if value < 0:
            raise ConfigError("f.value", f"source must be nonnegative, got {value}")
        return fields.constant(value)
    if kind == "gaussian_bump":
        center = _get_list(raw, "f.center", float, (0.5, 0.5, 0.5))
        if len(center) < dim:
            raise ConfigError("f.center", f"needs {dim} coordinates, got {center}")
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
    margins: tuple[float, ...]
    h: SingularNonlinearity
    f: fields.ScalarField
    mu: RadonMeasure
    n_schedule: tuple[int, ...]
    solver: SolverConfig
    threads: int
    sweep_gammas: tuple[float, ...]
    sweep_cells: tuple[int, ...]
    sweep_measures: tuple[str, ...]
    grid_margin = 0.0  # not a setting or a field: only perfbench's SolveGate reads it

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_raw(load_raw_config(path))

    @classmethod
    def from_raw(cls, raw: dict[str, list[str]]) -> "RunConfig":
        dim = _get_int(raw, "domain.dim", 1)
        if dim not in (1, 2, 3):
            raise ConfigError("domain.dim", f"must be 1, 2 or 3, got {dim}")
        cells = _get_int(raw, "domain.cells", 64)
        if cells < 2:
            raise ConfigError("domain.cells", f"must be at least 2, got {cells}")
        margins = _get_distinct(raw, "domain.margins", float, (0.125, 0.25), "{:g}".format)
        for m in margins:
            if not 0.0 <= m < 0.5:
                raise ConfigError("domain.margins", f"margins must lie in [0, 0.5), got {m}")

        h = _build_h(raw)
        f = _build_f(raw, dim)
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
        max_iters = _get_int(raw, "solver.max_iters", 500)
        if tol_fp is not None and tol_fp <= 0:
            raise ConfigError("solver.tol_fp", f"tolerance must be positive, got {tol_fp}")
        if max_iters < 1:
            raise ConfigError("solver.max_iters", f"must be at least 1, got {max_iters}")
        solver_cfg = SolverConfig(tol_fp=tol_fp, max_iters=max_iters)

        sweep_measures = _get_distinct(raw, "sweep.measure", str)
        for name in sweep_measures:
            if name not in SWEEP_MEASURES:
                raise ConfigError(
                    "sweep.measure", f"must be one of {tuple(SWEEP_MEASURES)}, got {name!r}"
                )
        sweep_cells = _get_distinct(raw, "sweep.cells", int)
        for c in sweep_cells:
            if c < 2:
                raise ConfigError("sweep.cells", f"cells must be at least 2, got {c}")
        # Every grid a run builds must hold a node in each band.
        for c, m in itertools.product((cells, *sweep_cells), margins):
            if m > max_margin(c):
                raise ConfigError("domain.margins", f"margin {m} leaves no node at {c} cells, "
                                  f"whose deepest node lies {max_margin(c)} from the boundary")
        sweep_gammas = _get_distinct(raw, "sweep.gamma", float)
        for g in sweep_gammas:
            if g <= 0:
                raise ConfigError("sweep.gamma", f"gamma must be positive, got {g}")

        threads = _get_int(raw, "threads", 1)
        if threads < 1:
            raise ConfigError("threads", f"must be at least 1, got {threads}")

        return cls(
            dim=dim,
            cells=cells,
            margins=margins,
            h=h,
            f=f,
            mu=mu,
            n_schedule=schedule,
            solver=solver_cfg,
            threads=threads,
            sweep_gammas=sweep_gammas,
            sweep_cells=sweep_cells,
            sweep_measures=sweep_measures,
        )
