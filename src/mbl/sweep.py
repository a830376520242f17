"""Parameter sweeps over steady-state observables, plus figure presets.

A sweep is a one- or two-axis grid over `SystemParams` fields. Axis names
are plain field names plus two linked aliases: "delta" sets both detunings
and "kappa" sets both decay rates. Constraint strings like "delta = g_ms/2"
re-derive dependent fields at every grid point; a rule reads axis and base
values only, never a field another rule sets.

Grid points are independent; failures at individual points are recorded and
never abort the grid. Closed-form columns are computed for blocks of rows
at once by `analytic_g2_array`, the single-point closed form run on arrays,
so each cell equals `analytic_g2` bit for bit. Cells with invalid
parameters or a singular or undefined closed form, and all numeric
columns, go one after another through `evaluate_point`, so reruns are
bit-identical. Cells and single points share `g2_zero`, `analytic_g2`,
`population_columns` and `correlation`, so both fail with one message.
The closed form has no thermal bath: its quantities reject n_th ≠ 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .analytic import analytic_g2, analytic_g2_array, require_cascade
from .core import projector
from .errors import NumericalError, ParameterError, finite_real, integer, positive
from .lindblad import (
    build_liouvillian,
    evolve,
    fock_populations,
    g2_from_populations,
    g2_zero,
    steady_state,
)
from .model import SWEEPABLE_FIELDS, SystemParams, invalid_mask

AXIS_ALIASES: dict[str, tuple[str, ...]] = {
    "delta": ("delta_m", "delta_s"),
    "kappa": ("kappa_m", "kappa_s"),
}

POPULATION_COLUMNS = ("p0", "p1", "p2", "p3")
# the columns a cell passes through `correlation`, and a table writes as log10
CORRELATION_COLUMNS = ("g2_numeric", "g2_analytic")

# each quantity's columns, in table order
QUANTITY_COLUMNS: dict[str, tuple[str, ...]] = {
    "g2_numeric": ("g2_numeric",),
    "g2_analytic": ("g2_analytic",),
    "both_g2": CORRELATION_COLUMNS,
    "populations": POPULATION_COLUMNS,
}
QUANTITIES = tuple(QUANTITY_COLUMNS)

# grid cells per array pass of the closed form; a whole-grid pass would hold
# dozens of grid-sized temporaries at once
_BLOCK_CELLS = 1024

_CONSTRAINT_RE = re.compile(
    r"^\s*(?P<target>[a-z_][a-z0-9_]*)\s*=\s*"
    r"(?:(?P<source>[a-z_][a-z0-9_]*)\s*(?:(?P<op>[*/])\s*(?P<factor>[-+0-9.eE]+))?"
    r"|(?P<literal>[-+0-9.eE]+))\s*$"
)


def _expand_param_name(name: str) -> tuple[str, ...]:
    if isinstance(name, str) and name in AXIS_ALIASES:
        return AXIS_ALIASES[name]
    if name in SWEEPABLE_FIELDS:
        return (name,)
    raise ParameterError(
        f"unknown sweep parameter {name!r}; expected one of {SWEEPABLE_FIELDS + tuple(AXIS_ALIASES)}"
    )


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis: a parameter name and the values it takes."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _expand_param_name(self.name)
        object.__setattr__(self, "values", tuple(finite_real(f"axis {self.name!r} value", v) for v in self.values))
        if not self.values:
            raise ParameterError(f"axis {self.name!r} needs at least one value")

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, count: int) -> "SweepAxis":
        integer(f"axis {name!r}: count", count, 2)
        lo, hi = finite_real(f"axis {name!r}: lo", lo), finite_real(f"axis {name!r}: hi", hi)
        if not lo < hi:
            raise ParameterError(f"axis {name!r}: need lo < hi, got [{lo!r}, {hi!r}]")
        return cls(name, tuple(np.linspace(lo, hi, count)))

    @property
    def count(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _rule_number(rule: str, text: str) -> float:
    """A constraint's factor or literal as a finite float; ParameterError otherwise."""
    try:
        value = float(text)
    except ValueError:
        value = text
    return finite_real(f"constraint {rule!r}: number", value)


@dataclass(frozen=True)
class Constraint:
    """Parsed linkage rule: target = source [*/ factor] or target = literal."""

    target: str
    source: str | None
    scale: float
    offset_literal: float | None
    divide: bool = False  # the source is divided by `scale`, so "/3" gives exactly source / 3

    @classmethod
    def parse(cls, rule: str) -> "Constraint":
        match = _CONSTRAINT_RE.match(rule) if isinstance(rule, str) else None
        if match is None:
            raise ParameterError(f"cannot parse constraint {rule!r}; expected 'name = name[*k|/k]' or 'name = value'")
        target = match.group("target")
        _expand_param_name(target)
        if match.group("literal") is not None:
            return cls(target=target, source=None, scale=1.0, offset_literal=_rule_number(rule, match.group("literal")))
        source = match.group("source")
        if source not in SWEEPABLE_FIELDS:
            raise ParameterError(f"constraint {rule!r}: source must be one of {SWEEPABLE_FIELDS}")
        scale, divide = 1.0, match.group("op") == "/"
        if match.group("op") is not None:
            scale = _rule_number(rule, match.group("factor"))
            if divide:
                if scale == 0.0:
                    raise ParameterError(f"constraint {rule!r}: division by zero")
                # a divisor whose reciprocal overflows gives ±inf at every source of magnitude 1 or more
                finite_real(f"constraint {rule!r}: scale", 1.0 / scale)
        return cls(target=target, source=source, scale=scale, offset_literal=None, divide=divide)

    def apply(self, fields: dict) -> None:
        """Set the target in `fields`, whose values are floats or float64 arrays."""
        if self.source is None:
            value = self.offset_literal
        else:
            value = fields[self.source] / self.scale if self.divide else fields[self.source] * self.scale
        for name in _expand_param_name(self.target):
            fields[name] = value


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a sweep grid."""

    base: SystemParams
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    quantity: str = "g2_numeric"
    constraints: tuple[str, ...] = ()
    _rules: tuple[Constraint, ...] = field(init=False, repr=False, compare=False)
    # every SWEEPABLE_FIELDS value over the grid: read-only views of shape `shape`
    _grid: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ParameterError(f"quantity must be one of {QUANTITIES}, got {self.quantity!r}")
        constraints = (self.constraints,) if isinstance(self.constraints, str) else self.constraints
        if not isinstance(constraints, (list, tuple)):
            raise ParameterError(f"constraints must be a string or a list of strings, got {constraints!r}")
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "_rules", tuple(Constraint.parse(rule) for rule in self.constraints))
        # each grid field has one setter: an axis or a rule, never two of them
        setters: dict[str, str] = {}
        targets = [(f"axis {axis.name!r}", axis.name) for axis in (self.axis1, self.axis2) if axis is not None]
        targets += [(f"constraint {rule!r}", parsed.target) for rule, parsed in zip(self.constraints, self._rules)]
        for setter, target in targets:
            for name in _expand_param_name(target):
                if name in setters:
                    raise ParameterError(f"field {name!r} is set by both {setters[name]} and {setter}")
                setters[name] = setter
        # rules read axis and base values only, so the order they are listed in cannot matter
        rule_targets = {name: rule for rule, parsed in zip(self.constraints, self._rules)
                        for name in _expand_param_name(parsed.target)}
        for rule, parsed in zip(self.constraints, self._rules):
            other = rule_targets.get(parsed.source, rule)
            if other != rule:
                raise ParameterError(f"constraint {rule!r} reads {parsed.source!r}, which constraint {other!r} sets")
        if self.quantity in ("g2_analytic", "both_g2"):
            require_cascade(self.base, f"the closed form behind quantity {self.quantity!r}")
            if "n_th" in setters:
                raise ParameterError(f"the closed form behind quantity {self.quantity!r} has no thermal bath, "
                                     f"but {setters['n_th']} sets n_th")
        object.__setattr__(self, "_grid", self._field_grid())

    def _field_grid(self) -> dict[str, np.ndarray]:
        """Each field over the grid, by the same float arithmetic a cell-by-cell rule would use."""
        n1, n2 = self.shape
        grid = {name: np.full((1, 1), getattr(self.base, name)) for name in SWEEPABLE_FIELDS}
        for axis, shape in ((self.axis1, (n1, 1)), (self.axis2, (1, n2))):
            if axis is not None:
                for name in _expand_param_name(axis.name):
                    grid[name] = axis.as_array().reshape(shape)
        with np.errstate(all="ignore"):  # an overflowing rule gives inf, which a cell then fails on
            for rule in self._rules:
                rule.apply(grid)
        return {name: np.broadcast_to(value, (n1, n2)) for name, value in grid.items()}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.axis1.count, self.axis2.count if self.axis2 is not None else 1)

    def column_names(self) -> tuple[str, ...]:
        return QUANTITY_COLUMNS[self.quantity]

    def params_at(self, i: int, j: int = 0) -> SystemParams:
        """Parameters at grid index (i, j) with constraints applied."""
        return self.base.replace(**{name: float(values[i, j]) for name, values in self._grid.items()})


@dataclass
class ResultGrid:
    """Raw sweep output: one matrix per quantity column, plus failures.

    Matrices have shape (axis1.count, axis2.count or 1) and hold raw values
    (g² is not log-scaled here; serialization applies log10). Cells listed
    in `failures` are NaN.
    """

    spec: SweepSpec
    planes: dict[str, np.ndarray]
    failures: list[tuple[tuple[int, int], str]] = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return self.planes[self.spec.column_names()[0]]


def correlation(name: str, value: float) -> float:
    """`value` as a table or report may carry it: log10 is taken, so NumericalError unless positive and finite."""
    if not math.isfinite(value) or value <= 0.0:
        raise NumericalError(f"{name} = {value!r} is not a positive finite correlation")
    return value


def population_columns(pops: np.ndarray) -> np.ndarray:
    """p0..p3 of populations on the last axis, one vector or a stack; zero above the truncation."""
    out = np.zeros((*pops.shape[:-1], len(POPULATION_COLUMNS)))
    out[..., : pops.shape[-1]] = pops[..., : out.shape[-1]]
    return out


def evaluate_point(params: SystemParams, quantity: str) -> dict[str, float]:
    """Compute the requested quantity columns for one parameter point."""
    out: dict[str, float] = {}
    if quantity in ("g2_numeric", "both_g2", "populations"):
        space = params.space()
        rho = steady_state(build_liouvillian(params))
        if quantity == "populations":
            for name, value in zip(POPULATION_COLUMNS, population_columns(fock_populations(rho, space)).tolist()):
                if not math.isfinite(value):
                    raise NumericalError(f"population {name} is not finite")
                out[name] = value
            return out
        out["g2_numeric"] = g2_zero(rho, space)
    if quantity in ("g2_analytic", "both_g2"):
        out["g2_analytic"] = analytic_g2(params)
    return {name: correlation(name, value) for name, value in out.items()}


def _closed_form_pass(spec: SweepSpec, plane: np.ndarray) -> np.ndarray:
    """Fill `plane` with `analytic_g2` by blocks of rows; returns the cells it filled.

    A cell is left out where its parameters are invalid or its value is NaN
    (where `analytic_g2` raises) or not positive, so `evaluate_point` can
    fail it exactly as a single-point call does.
    """
    n1, n2 = spec.shape
    done = np.zeros((n1, n2), dtype=bool)
    rows = max(1, _BLOCK_CELLS // n2)
    for start in range(0, n1, rows):
        block = {name: values[start:start + rows] for name, values in spec._grid.items()}
        g2 = analytic_g2_array(block)
        ok = ~invalid_mask(block, spec.base.scenario) & (g2 > 0.0)
        plane[start:start + rows][ok] = g2[ok]
        done[start:start + rows] = ok
    return done


def run_sweep(spec: SweepSpec) -> ResultGrid:
    """Evaluate the grid. Point failures are recorded, not raised."""
    n1, n2 = spec.shape
    columns = spec.column_names()
    planes = {name: np.full((n1, n2), np.nan) for name in columns}
    done = np.zeros((n1, n2), dtype=bool)
    if "g2_analytic" in columns:
        done = _closed_form_pass(spec, planes["g2_analytic"])
    todo = ~done if spec.quantity == "g2_analytic" else np.ones((n1, n2), dtype=bool)
    failures: list[tuple[tuple[int, int], str]] = []
    for i, j in np.argwhere(todo).tolist():  # C order, as the failure list is kept
        # a both_g2 cell the array pass filled still needs its numeric column
        try:
            values = evaluate_point(spec.params_at(i, j), "g2_numeric" if done[i, j] else spec.quantity)
        except (ParameterError, NumericalError) as exc:
            failures.append(((i, j), f"{type(exc).__name__}: {str(exc)[:160]}"))
            for plane in planes.values():
                plane[i, j] = np.nan
            continue
        for name, value in values.items():
            planes[name][i, j] = value
    return ResultGrid(spec=spec, planes=planes, failures=failures)


@dataclass(frozen=True)
class EvolutionJob:
    """Fixed-time-grid master-equation run from the ground product state."""

    base: SystemParams
    t_end: float
    num: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_end", positive("t_end", finite_real("t_end", self.t_end)))
        integer("num", self.num, 2)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.num)


@dataclass
class TimeSeries:
    """Evolution output: populations p0..p3 and g2 (NaN where undefined)."""

    times: np.ndarray
    planes: dict[str, np.ndarray]


def run_evolution(job: EvolutionJob) -> TimeSeries:
    """Integrate from |lower, 0⟩⟨lower, 0| and track populations and g²(0)."""
    space = job.base.space()
    liouv = build_liouvillian(job.base)
    times = job.times()
    pops = fock_populations(evolve(liouv, projector(space, 0, 0), times), space)
    planes = dict(zip(POPULATION_COLUMNS, population_columns(pops).T))
    planes["g2"] = g2_from_populations(pops)
    return TimeSeries(times=times, planes=planes)


_DELTA_AXIS = ("delta", -20.0, 20.0, 201)
_KAPPA_VALUES = (0.15, 0.3, 0.45, 1.0)

# Each figure's model point is a plain `SystemParams`; fields left out keep their
# defaults (scenario A, fock_dim 6, n_th 0, and no direct drive in scenario B).
_PRESETS: dict[str, SweepSpec | EvolutionJob] = {
    "fig3a": SweepSpec(
        base=SystemParams(omega_s=0.06, omega_d=0.01, kappa_m=1.0, kappa_s=1.0),
        axis1=SweepAxis.linspace(*_DELTA_AXIS),
        axis2=SweepAxis.linspace("g_ms", 0.0, 30.0, 121),
        quantity="g2_numeric",
    ),
    "fig3b": SweepSpec(
        base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, kappa_m=1.0, kappa_s=1.0),
        axis1=SweepAxis.linspace("omega_s", 0.0, 0.2, 101),
        axis2=SweepAxis.linspace("omega_d", 0.0, 0.05, 101),
        quantity="g2_numeric",
    ),
    "fig4a": SweepSpec(
        base=SystemParams(omega_s=0.06, omega_d=0.01),
        axis1=SweepAxis.linspace("g_ms", 0.0, 30.0, 121),
        axis2=SweepAxis.linspace("kappa", 0.05, 1.5, 59),
        quantity="g2_numeric",
        constraints=("delta = g_ms/2",),
    ),
    "fig4b": SweepSpec(
        base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_d=0.01),
        axis1=SweepAxis.linspace("omega_s", 0.0, 0.2, 101),
        axis2=SweepAxis.linspace("kappa", 0.05, 1.5, 59),
        quantity="g2_numeric",
    ),
    "fig5a": SweepSpec(
        base=SystemParams(g_ms=19.6, omega_s=0.06, kappa_m=0.15, kappa_s=0.15),
        axis1=SweepAxis.linspace(*_DELTA_AXIS),
        axis2=SweepAxis("omega_d", (0.004, 0.01, 0.012)),
        quantity="both_g2",
    ),
    "fig5b": SweepSpec(
        base=SystemParams(g_ms=19.6, omega_d=0.01, kappa_m=0.15, kappa_s=0.15),
        axis1=SweepAxis.linspace(*_DELTA_AXIS),
        axis2=SweepAxis("omega_s", (0.001, 0.05, 0.09)),
        quantity="both_g2",
    ),
    "fig6a": SweepSpec(
        base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_d=0.01),
        axis1=SweepAxis.linspace("omega_s", 0.0, 0.2, 101),
        axis2=SweepAxis("kappa", _KAPPA_VALUES),
        quantity="g2_numeric",
    ),
    "fig6b": SweepSpec(
        base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06),
        axis1=SweepAxis.linspace("omega_d", 0.0, 0.05, 101),
        axis2=SweepAxis("kappa", _KAPPA_VALUES),
        quantity="g2_numeric",
    ),
    "fig7": EvolutionJob(
        base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06, omega_d=0.01, kappa_m=0.15, kappa_s=0.15),
        t_end=100.0,
        num=1001,
    ),
    "fig8": SweepSpec(
        base=SystemParams(scenario="B", omega_d=0.01, kappa_m=1.0, kappa_s=1.0),
        axis1=SweepAxis.linspace("delta", -40.0, 40.0, 201),
        axis2=SweepAxis.linspace("g_ms_tilde", 0.0, 60.0, 121),
        quantity="g2_numeric",
    ),
    "fig9a": SweepSpec(
        base=SystemParams(scenario="B", omega_d=0.01),
        axis1=SweepAxis.linspace("g_ms_tilde", 0.0, 60.0, 121),
        axis2=SweepAxis.linspace("kappa", 0.05, 1.5, 59),
        quantity="g2_numeric",
        constraints=("delta = g_ms_tilde/2",),
    ),
    "fig9b": SweepSpec(
        base=SystemParams(scenario="B", g_ms_tilde=50.1, delta_m=25.05, delta_s=25.05),
        axis1=SweepAxis("omega_d", tuple(np.geomspace(0.001, 0.6, 57))),
        axis2=SweepAxis.linspace("kappa", 0.05, 1.5, 59),
        quantity="g2_numeric",
    ),
}

FIGURE_NAMES = tuple(sorted(_PRESETS))


def figure_preset(name: str) -> SweepSpec | EvolutionJob:
    """Sweep (or evolution) behind one of the bundled figure presets."""
    if name not in FIGURE_NAMES:
        raise ParameterError(f"unknown figure {name!r}; available: {', '.join(FIGURE_NAMES)}")
    return _PRESETS[name]
