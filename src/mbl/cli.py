"""Command-line interface.

Subcommands: steady, evolve, sweep, figure, spectrum, analytic. A JSON
config file (--config) can carry everything a run needs; command-line flags
override config values. Exit codes: 0 success, 1 bad input or config,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .analytic import STATE_NAMES, amplitude_g2, closed_form_amplitudes, optimal_detuning
from .errors import NumericalError, ParameterError
from .lindblad import (
    build_liouvillian,
    density_diagnostics,
    fock_populations,
    g2_zero,
    mean_occupation,
    steady_state,
    vectorize,
)
from .model import SystemParams, dressed_spectrum
from .output import (
    grid_csv,
    grid_json,
    levels_csv,
    levels_json,
    mapping_csv,
    mapping_json,
    timeseries_csv,
    timeseries_json,
    write_text,
)
from .sweep import (
    FIGURE_NAMES,
    QUANTITIES,
    EvolutionJob,
    SweepAxis,
    SweepSpec,
    figure_preset,
    run_evolution,
    run_sweep,
)

JOBS = ("steady", "evolve", "sweep", "figure", "spectrum", "analytic")

PARAM_FLOAT_FLAGS = (
    "delta_m",
    "delta_s",
    "delta",
    "g_ms",
    "g_ms_tilde",
    "omega_s",
    "omega_d",
    "kappa_m",
    "kappa_s",
    "kappa",
    "n_th",
)

_PARAM_FIELD_NAMES = {f.name for f in fields(SystemParams)}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ParameterError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _params_from_dict(raw: dict) -> SystemParams:
    if not isinstance(raw, dict):
        raise ParameterError(f"'params' must be an object, got {type(raw).__name__}")
    _check_keys(raw, _PARAM_FIELD_NAMES, "params")
    return SystemParams(**raw)


def _axis_from_dict(raw: dict, where: str) -> SweepAxis:
    if not isinstance(raw, dict):
        raise ParameterError(f"{where} must be an object, got {type(raw).__name__}")
    if "values" in raw:
        _check_keys(raw, {"name", "values"}, where)
        if "name" not in raw:
            raise ParameterError(f"{where}: missing 'name'")
        values = raw["values"]
        if not isinstance(values, (list, tuple)):
            raise ParameterError(f"{where}: 'values' must be a list")
        return SweepAxis.explicit(raw["name"], values)
    _check_keys(raw, {"name", "min", "max", "count"}, where)
    missing = {"name", "min", "max", "count"} - set(raw)
    if missing:
        raise ParameterError(f"{where}: missing key(s) {', '.join(sorted(missing))}")
    count = raw["count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise ParameterError(f"{where}: 'count' must be an integer")
    return SweepAxis.linspace(raw["name"], float(raw["min"]), float(raw["max"]), count)


@dataclass(frozen=True)
class SweepSection:
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    quantity: str = "g2_numeric"
    constraints: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSection":
        _check_keys(raw, {"axis1", "axis2", "quantity", "constraints"}, "sweep")
        if "axis1" not in raw:
            raise ParameterError("sweep: missing 'axis1'")
        axis1 = _axis_from_dict(raw["axis1"], "sweep.axis1")
        axis2 = None
        if raw.get("axis2") is not None:
            axis2 = _axis_from_dict(raw["axis2"], "sweep.axis2")
        quantity = raw.get("quantity", "g2_numeric")
        if quantity not in QUANTITIES:
            raise ParameterError(f"sweep: quantity must be one of {QUANTITIES}, got {quantity!r}")
        constraints = raw.get("constraints", [])
        if isinstance(constraints, str):
            constraints = [constraints]
        if not isinstance(constraints, (list, tuple)) or not all(isinstance(c, str) for c in constraints):
            raise ParameterError("sweep: 'constraints' must be a list of strings")
        return cls(axis1=axis1, axis2=axis2, quantity=quantity, constraints=tuple(constraints))

    def to_dict(self) -> dict:
        return {
            "axis1": {"name": self.axis1.name, "values": list(self.axis1.values)},
            "axis2": None if self.axis2 is None else {"name": self.axis2.name, "values": list(self.axis2.values)},
            "quantity": self.quantity,
            "constraints": list(self.constraints),
        }


@dataclass(frozen=True)
class EvolveSection:
    t_end: float = 100.0
    num: int = 501

    @classmethod
    def from_dict(cls, raw: dict) -> "EvolveSection":
        _check_keys(raw, {"t_end", "num"}, "evolve")
        t_end = float(raw.get("t_end", 100.0))
        num = raw.get("num", 501)
        if isinstance(num, bool) or not isinstance(num, int):
            raise ParameterError("evolve: 'num' must be an integer")
        return cls(t_end=t_end, num=num)

    def to_dict(self) -> dict:
        return {"t_end": self.t_end, "num": self.num}


@dataclass(frozen=True)
class SpectrumSection:
    omega_m: float
    omega_q: float
    g: float
    n_max: int = 3

    @classmethod
    def from_dict(cls, raw: dict) -> "SpectrumSection":
        _check_keys(raw, {"omega_m", "omega_q", "g", "n_max"}, "spectrum")
        missing = {"omega_m", "omega_q", "g"} - set(raw)
        if missing:
            raise ParameterError(f"spectrum: missing key(s) {', '.join(sorted(missing))}")
        n_max = raw.get("n_max", 3)
        if isinstance(n_max, bool) or not isinstance(n_max, int):
            raise ParameterError("spectrum: 'n_max' must be an integer")
        return cls(omega_m=float(raw["omega_m"]), omega_q=float(raw["omega_q"]), g=float(raw["g"]), n_max=n_max)

    def to_dict(self) -> dict:
        return {"omega_m": self.omega_m, "omega_q": self.omega_q, "g": self.g, "n_max": self.n_max}


@dataclass(frozen=True)
class RunConfig:
    """One run, fully described: parameters, job type, output, grids."""

    job: str | None = None
    params: SystemParams = field(default_factory=SystemParams)
    output_path: str | None = None
    output_format: str = "csv"
    sweep: SweepSection | None = None
    figure: str | None = None
    evolve: EvolveSection = field(default_factory=EvolveSection)
    spectrum: SpectrumSection | None = None
    gamma_mhz: float | None = None

    def __post_init__(self) -> None:
        if self.job is not None and self.job not in JOBS:
            raise ParameterError(f"job must be one of {JOBS}, got {self.job!r}")
        if self.output_format not in ("csv", "json"):
            raise ParameterError(f"output format must be 'csv' or 'json', got {self.output_format!r}")
        if self.figure is not None and self.figure not in FIGURE_NAMES:
            raise ParameterError(f"unknown figure {self.figure!r}; available: {', '.join(FIGURE_NAMES)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ParameterError(f"config root must be an object, got {type(raw).__name__}")
        allowed = {"job", "params", "output", "sweep", "figure", "evolve", "spectrum", "gamma_mhz"}
        _check_keys(raw, allowed, "config")
        params = _params_from_dict(raw.get("params", {}))
        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ParameterError("'output' must be an object")
        _check_keys(output, {"path", "format"}, "output")
        sweep = None if raw.get("sweep") is None else SweepSection.from_dict(raw["sweep"])
        spectrum = None if raw.get("spectrum") is None else SpectrumSection.from_dict(raw["spectrum"])
        evolve = EvolveSection() if raw.get("evolve") is None else EvolveSection.from_dict(raw["evolve"])
        gamma = raw.get("gamma_mhz")
        if gamma is not None:
            gamma = float(gamma)
        return cls(
            job=raw.get("job"),
            params=params,
            output_path=output.get("path"),
            output_format=output.get("format", "csv"),
            sweep=sweep,
            figure=raw.get("figure"),
            evolve=evolve,
            spectrum=spectrum,
            gamma_mhz=gamma,
        )

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "params": asdict(self.params),
            "output": {"path": self.output_path, "format": self.output_format},
            "sweep": None if self.sweep is None else self.sweep.to_dict(),
            "figure": self.figure,
            "evolve": self.evolve.to_dict(),
            "spectrum": None if self.spectrum is None else self.spectrum.to_dict(),
            "gamma_mhz": self.gamma_mhz,
        }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    return RunConfig.from_dict(raw)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message: str):  # noqa: D102
        raise ParameterError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _common_parent() -> argparse.ArgumentParser:
    parent = _Parser(add_help=False)
    parent.add_argument("--config", default=argparse.SUPPRESS, help="JSON run config; flags override its values")
    parent.add_argument("--out", default=argparse.SUPPRESS, help="output file (default: stdout, or <figure>.<fmt>)")
    parent.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS, help="output format")
    parent.add_argument("--gamma-mhz", type=float, default=argparse.SUPPRESS, help="reference rate in MHz (metadata only)")
    group = parent.add_argument_group("model parameters (units of gamma)")
    for name in PARAM_FLOAT_FLAGS:
        group.add_argument(_flag(name), type=float, default=argparse.SUPPRESS, dest=name)
    group.add_argument("--scenario", choices=("A", "B"), default=argparse.SUPPRESS)
    group.add_argument("--fock-dim", type=int, default=argparse.SUPPRESS, dest="fock_dim")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _common_parent()
    parser = _Parser(prog="mbl", description="steady-state quantum-correlation calculator for a driven coupled mode")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("steady", parents=[parent], help="steady state diagnostics, populations, and g2(0)")

    p_evolve = sub.add_parser("evolve", parents=[parent], help="time evolution from the ground product state")
    p_evolve.add_argument("--t-end", type=float, default=argparse.SUPPRESS, dest="t_end")
    p_evolve.add_argument("--num", type=int, default=argparse.SUPPRESS)

    p_sweep = sub.add_parser("sweep", parents=[parent], help="grid sweep over one or two parameters")
    p_sweep.add_argument("--axis1", default=argparse.SUPPRESS, help="'name:lo:hi:count' or 'name=v1,v2,...'")
    p_sweep.add_argument("--axis2", default=argparse.SUPPRESS, help="same syntax as --axis1")
    p_sweep.add_argument("--quantity", choices=QUANTITIES, default=argparse.SUPPRESS)
    p_sweep.add_argument(
        "--constraint", action="append", default=argparse.SUPPRESS, dest="constraints",
        help="linkage rule like 'delta = g_ms/2' (repeatable)",
    )

    p_fig = sub.add_parser("figure", parents=[parent], help="run a bundled figure preset")
    p_fig.add_argument("name", nargs="?", choices=FIGURE_NAMES, default=argparse.SUPPRESS)

    p_spec = sub.add_parser("spectrum", parents=[parent], help="coupled-ladder eigenvalues and eigenvectors")
    p_spec.add_argument("--omega-m", type=float, default=argparse.SUPPRESS, dest="sp_omega_m")
    p_spec.add_argument("--omega-q", type=float, default=argparse.SUPPRESS, dest="sp_omega_q")
    p_spec.add_argument("--g", type=float, default=argparse.SUPPRESS, dest="sp_g")
    p_spec.add_argument("--n-max", type=int, default=argparse.SUPPRESS, dest="sp_n_max")

    sub.add_parser("analytic", parents=[parent], help="closed-form steady amplitudes and g2(0)")
    return parser


def _merge_params(base: SystemParams, args: argparse.Namespace) -> SystemParams:
    values = asdict(base)
    for name in PARAM_FLOAT_FLAGS:
        if hasattr(args, name):
            flag_value = getattr(args, name)
            if name == "delta":
                values["delta_m"] = flag_value
                values["delta_s"] = flag_value
            elif name == "kappa":
                values["kappa_m"] = flag_value
                values["kappa_s"] = flag_value
            else:
                values[name] = flag_value
    if hasattr(args, "scenario"):
        values["scenario"] = args.scenario
    if hasattr(args, "fock_dim"):
        values["fock_dim"] = args.fock_dim
    return SystemParams(**values)


def _parse_axis_flag(text: str, which: str) -> SweepAxis:
    if "=" in text:
        name, _, rest = text.partition("=")
        try:
            values = [float(v) for v in rest.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ParameterError(f"{which}: bad value list in {text!r}") from exc
        return SweepAxis.explicit(name.strip(), values)
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"{which}: expected 'name:lo:hi:count' or 'name=v1,v2,...', got {text!r}")
    name, lo, hi, count = parts
    try:
        return SweepAxis.linspace(name.strip(), float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ParameterError(f"{which}: bad numbers in {text!r}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text(out_path, text)


def _print_mapping(pairs: dict[str, float]) -> None:
    for key, value in pairs.items():
        print(f"{key} = {value:.12g}")


def _cmd_steady(params: SystemParams, out: str | None, fmt: str, gamma: float | None) -> int:
    space = params.space()
    liouv = build_liouvillian(params, space)
    rho = steady_state(liouv)
    residual = float(np.max(np.abs(liouv @ vectorize(rho))))
    diag = density_diagnostics(rho)
    pops = fock_populations(rho, space)
    report: dict[str, float] = {
        "trace": diag["trace_real"],
        "hermiticity_defect": diag["hermiticity_defect"],
        "min_eigenvalue": diag["min_eigenvalue"],
        "residual": residual,
        "occupation": mean_occupation(rho, space),
    }
    for k in range(min(4, pops.size)):
        report[f"p{k}"] = float(pops[k])
    failed: str | None = None
    try:
        g2 = g2_zero(rho, space)
        report["g2"] = g2
        report["log10_g2"] = math.log10(g2) if g2 > 0 else float("nan")
    except NumericalError as exc:
        failed = str(exc)
    _print_mapping(report)
    if failed is not None:
        print(f"g2 = undefined ({failed})")
    if out is not None:
        _emit(mapping_csv(report) if fmt == "csv" else mapping_json(report, gamma), out)
    return 2 if failed is not None else 0


def _cmd_analytic(params: SystemParams, out: str | None, fmt: str, gamma: float | None) -> int:
    amps = closed_form_amplitudes(params)
    report: dict[str, float] = {}
    for name, value in zip(STATE_NAMES, amps.as_array()):
        report[f"{name}_re"] = value.real
        report[f"{name}_im"] = value.imag
    g2 = amplitude_g2(amps)
    report["g2_analytic"] = g2
    report["log10_g2_analytic"] = math.log10(g2)
    plus, minus = optimal_detuning(params.g_ms)
    report["optimal_delta_plus"] = plus
    report["optimal_delta_minus"] = minus
    _print_mapping(report)
    if out is not None:
        _emit(mapping_csv(report) if fmt == "csv" else mapping_json(report, gamma), out)
    return 0


def _cmd_spectrum(section: SpectrumSection | None, args: argparse.Namespace, out: str | None, fmt: str, gamma: float | None) -> int:
    values = {} if section is None else section.to_dict()
    for key, attr in (("omega_m", "sp_omega_m"), ("omega_q", "sp_omega_q"), ("g", "sp_g"), ("n_max", "sp_n_max")):
        if hasattr(args, attr):
            values[key] = getattr(args, attr)
    missing = {"omega_m", "omega_q", "g"} - set(values)
    if missing:
        raise ParameterError(f"spectrum needs {', '.join(sorted(missing))} (flags or config)")
    levels = dressed_spectrum(values["omega_m"], values["omega_q"], values["g"], int(values.get("n_max", 3)))
    print("n branch energy c_g_n c_e_nm1")
    for lv in levels:
        print(f"{lv.n} {lv.branch:+d} {lv.energy:.12g} {lv.c_g_n:.12g} {lv.c_e_nm1:.12g}")
    if out is not None:
        _emit(levels_csv(levels) if fmt == "csv" else levels_json(levels, gamma), out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if hasattr(args, "config") else RunConfig()
        command: str = args.command
        if cfg.job is not None and cfg.job != command:
            raise ParameterError(f"config job is {cfg.job!r} but the {command!r} subcommand was invoked")
        params = _merge_params(cfg.params, args)
        out = getattr(args, "out", cfg.output_path)
        fmt = getattr(args, "format", cfg.output_format)
        gamma = getattr(args, "gamma_mhz", cfg.gamma_mhz)

        if command == "steady":
            return _cmd_steady(params, out, fmt, gamma)

        if command == "analytic":
            return _cmd_analytic(params, out, fmt, gamma)

        if command == "spectrum":
            return _cmd_spectrum(cfg.spectrum, args, out, fmt, gamma)

        if command == "evolve":
            t_end = getattr(args, "t_end", cfg.evolve.t_end)
            num = getattr(args, "num", cfg.evolve.num)
            series = run_evolution(EvolutionJob(base=params, t_end=t_end, num=num))
            _emit(timeseries_csv(series) if fmt == "csv" else timeseries_json(series, gamma), out)
            return 0

        if command == "sweep":
            axis1 = _parse_axis_flag(args.axis1, "--axis1") if hasattr(args, "axis1") else (
                cfg.sweep.axis1 if cfg.sweep is not None else None
            )
            if axis1 is None:
                raise ParameterError("sweep needs --axis1 or a config 'sweep' section")
            axis2 = _parse_axis_flag(args.axis2, "--axis2") if hasattr(args, "axis2") else (
                cfg.sweep.axis2 if cfg.sweep is not None else None
            )
            quantity = getattr(args, "quantity", cfg.sweep.quantity if cfg.sweep is not None else "g2_numeric")
            constraints = tuple(getattr(args, "constraints", cfg.sweep.constraints if cfg.sweep is not None else ()))
            spec = SweepSpec(base=params, axis1=axis1, axis2=axis2, quantity=quantity, constraints=constraints)
            grid = run_sweep(spec)
            _emit(grid_csv(grid) if fmt == "csv" else grid_json(grid, gamma), out)
            return 0

        if command == "figure":
            name = getattr(args, "name", cfg.figure)
            if name is None:
                raise ParameterError(f"figure needs a name: one of {', '.join(FIGURE_NAMES)}")
            overridden = [n for n in (*PARAM_FLOAT_FLAGS, "scenario", "fock_dim") if hasattr(args, n)]
            if overridden:
                raise ParameterError(
                    f"figure presets are canonical; parameter flag(s) {', '.join(_flag(n) for n in overridden)} do not apply"
                )
            preset = figure_preset(name)
            out = out if out is not None else f"{name}.{fmt}"
            if isinstance(preset, EvolutionJob):
                series = run_evolution(preset)
                text = timeseries_csv(series) if fmt == "csv" else timeseries_json(series, gamma)
                n_rows = series.times.size
                n_failures = 0
            else:
                grid = run_sweep(preset)
                text = grid_csv(grid) if fmt == "csv" else grid_json(grid, gamma)
                n_rows = grid.values.size
                n_failures = len(grid.failures)
            _emit(text, out)
            print(f"wrote {out} ({n_rows} points, {n_failures} failures)")
            return 0

        raise ParameterError(f"unknown command {command!r}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
