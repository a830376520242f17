"""Command-line interface.

Subcommands: steady, evolve, sweep, figure, spectrum, analytic. Each takes
exactly the options it reads, declared once in `build_parser`; flags are
taken only as spelled in full. A command line that starts with a command
word is read once. If all of it is `--flag value` pairs of that command's
one-value flags, with no value that argparse would take for a flag, the
command's flag table reads it: each value is converted by its flag's own
type, in argv order, giving what the command's parser would. The table is
built from that parser, so each flag is still declared once. Any other
form (-h, --flag=value, --, a positional, an unknown flag, a missing or
unconvertible value) goes whole to the command's own parser, so help,
usage messages and exit codes stay argparse's. The top-level parser reads
only the rest (no arguments, -h, --version, an unknown command), with the
same messages and exit codes. A JSON config file (--config) can
carry everything a run needs: each of its keys stands for one flag, a key
counts only for a command that has that flag, and command-line flags
override config values. An output option that could not act is refused,
and so is an output path that no file can be written to.
Exit codes: 0 success, 1 bad input or config, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .analytic import STATE_NAMES, amplitude_g2, closed_form_amplitudes, optimal_detuning
from .errors import NumericalError, ParameterError, finite_real, positive
from .lindblad import (
    build_liouvillian,
    fock_populations,
    point_g2,
    population_moments,
    steady_coordinates,
    unvectorize,
)
from .model import SCENARIOS, SWEEPABLE_FIELDS, DressedLevel, SystemParams, dressed_spectrum
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
    AXIS_ALIASES,
    FIGURE_NAMES,
    POPULATION_COLUMNS,
    QUANTITIES,
    EvolutionJob,
    SweepAxis,
    SweepSpec,
    correlation,
    figure_preset,
    population_columns,
    run_evolution,
    run_sweep,
)

PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))

# commands that print a text report and write a file only with --out
REPORT_COMMANDS = ("steady", "analytic", "spectrum")

# Config file layout. A key maps to the argparse dest of the flag it stands
# for; a nested table is a section of the file.
CONFIG_DESTS: dict = {
    "job": "job",
    "figure": "name",
    "gamma_mhz": "gamma_mhz",
    "params": {name: name for name in PARAM_FIELDS},
    "output": {"path": "out", "format": "format"},
    "sweep": {name: name for name in ("axis1", "axis2", "quantity", "constraints")},
    "evolve": {"t_end": "t_end", "num": "num"},
    "spectrum": {name: name for name in ("omega_m", "omega_q", "g", "n_max")},
}

# each dest's config key, spelled as in the file
CONFIG_KEYS = {
    **{dest: key for key, dest in CONFIG_DESTS.items() if isinstance(dest, str)},
    **{dest: f"{section}.{key}" for section, table in CONFIG_DESTS.items() if isinstance(table, dict)
       for key, dest in table.items()},
}


def _spelled(dest: str) -> str:
    """An option as both its flag and its config key name it."""
    return f"--{dest.replace('_', '-')} (config {CONFIG_KEYS[dest]})"


def _check_keys(section: dict, allowed: set[str], where: str, required: set[str] = frozenset()) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ParameterError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = sorted(required - set(section))
    if missing:
        raise ParameterError(f"{where}: missing key(s) {', '.join(missing)}")


def _flatten(raw, table: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ParameterError(f"{where} must be an object, got {type(raw).__name__}")
    _check_keys(raw, set(table), where)
    opts = {}
    for key, value in raw.items():
        if value is not None:
            dest = table[key]
            opts.update(_flatten(value, dest, key) if isinstance(dest, dict) else {dest: value})
    return opts


def load_config(path: str) -> dict:
    """A JSON run config as {argparse dest: value}, laid out by `CONFIG_DESTS`.

    A null value counts as absent. Values are type-checked by the command
    that reads them, before it runs any numerics.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    return _flatten(raw, CONFIG_DESTS, "config")


class _NegativeNumber:
    """argparse's test for a negative number: a `-` token that float() reads, such as -3e-05, -1_0 or -inf."""

    @staticmethod
    def match(token: str) -> bool:
        if not token.startswith("-"):
            return False
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """argparse that takes no abbreviated flag and reports usage problems as config errors (exit 1)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse's own pattern takes digits only (and no exponent on Python 3.10-3.12), so a
        # spaced -3e-05, -inf or -1_0 would be a flag, though float() reads it spelled with `=`
        self._negative_number_matcher = _NegativeNumber

    def error(self, message: str):  # noqa: D102
        raise ParameterError(message)


def _common_parent() -> argparse.ArgumentParser:
    """Options every subcommand takes."""
    parent = _Parser(add_help=False)
    parent.add_argument("--config", default=argparse.SUPPRESS, help="JSON run config; flags override its values")
    parent.add_argument("--out", default=argparse.SUPPRESS, help="output file (default: stdout, or <figure>.<fmt>)")
    parent.add_argument("--format", default=argparse.SUPPRESS, help="output format: csv (default) or json")
    parent.add_argument("--gamma-mhz", type=float, default=argparse.SUPPRESS, help="reference rate in MHz (JSON metadata only)")
    return parent


def _model_parent() -> argparse.ArgumentParser:
    """The model parameters, for the subcommands that build a `SystemParams`."""
    parent = _Parser(add_help=False)
    group = parent.add_argument_group("model parameters (units of gamma)")
    for name in (*SWEEPABLE_FIELDS, *AXIS_ALIASES):
        group.add_argument("--" + name.replace("_", "-"), type=float, default=argparse.SUPPRESS)
    group.add_argument("--scenario", default=argparse.SUPPRESS, help=f"one of {', '.join(SCENARIOS)} (default A)")
    group.add_argument("--fock-dim", type=int, default=argparse.SUPPRESS)
    return parent


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each subcommand's own parser by name.

    Every option defaults to argparse.SUPPRESS, so a subcommand declares a
    dest exactly when its parser's `get_default(dest)` is SUPPRESS.
    """
    common, model = _common_parent(), _model_parent()
    parser = _Parser(prog="mbl", description="steady-state quantum-correlation calculator for a driven coupled mode")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("steady", parents=[common, model], help="steady state diagnostics, populations, and g2(0)")

    p_evolve = sub.add_parser("evolve", parents=[common, model], help="time evolution from the ground product state")
    p_evolve.add_argument("--t-end", type=float, default=argparse.SUPPRESS)
    p_evolve.add_argument("--num", type=int, default=argparse.SUPPRESS)

    p_sweep = sub.add_parser("sweep", parents=[common, model], help="grid sweep over one or two parameters")
    p_sweep.add_argument("--axis1", default=argparse.SUPPRESS, help="'name:lo:hi:count' or 'name=v1,v2,...'")
    p_sweep.add_argument("--axis2", default=argparse.SUPPRESS, help="same syntax as --axis1")
    p_sweep.add_argument("--quantity", default=argparse.SUPPRESS, help=f"one of {', '.join(QUANTITIES)} (default g2_numeric)")
    p_sweep.add_argument(
        "--constraint", action="append", default=argparse.SUPPRESS, dest="constraints",
        help="linkage rule like 'delta = g_ms/2' (repeatable)",
    )

    p_fig = sub.add_parser("figure", parents=[common], help="run a bundled figure preset")
    # no argparse choices: they reject the omitted name that a config "figure" key supplies
    p_fig.add_argument("name", nargs="?", default=argparse.SUPPRESS, help=f"one of {', '.join(FIGURE_NAMES)}")

    p_spec = sub.add_parser("spectrum", parents=[common], help="coupled-ladder eigenvalues and eigenvectors")
    p_spec.add_argument("--omega-m", type=float, default=argparse.SUPPRESS)
    p_spec.add_argument("--omega-q", type=float, default=argparse.SUPPRESS)
    p_spec.add_argument("--g", type=float, default=argparse.SUPPRESS)
    p_spec.add_argument("--n-max", type=int, default=argparse.SUPPRESS)

    sub.add_parser("analytic", parents=[common, model], help="closed-form steady amplitudes and g2(0)")
    return parser, sub.choices


_parser = functools.cache(build_parser)


@functools.cache
def _flag_tables() -> dict[str, dict[str, tuple[str, object, bool]]]:
    """Each command's one-value options, from its own parser: flag -> (dest, type, append)."""
    return {
        command: {
            flag: (action.dest, action.type, type(action) is argparse._AppendAction)
            for action in sub._actions
            if type(action) in (argparse._StoreAction, argparse._AppendAction) and action.nargs is None
            for flag in action.option_strings
        }
        for command, sub in _parser()[1].items()
    }


def _read_flags(command: str, args: list[str]) -> dict | None:
    """What the command's parser reads from `--flag value` pairs, or None for any other command line."""
    if len(args) % 2:
        return None
    table, negative = _flag_tables()[command], _parser()[1][command]._negative_number_matcher
    opts: dict = {}
    for flag, value in zip(args[::2], args[1::2]):
        if flag not in table or (value.startswith("-") and not negative.match(value)):
            return None
        dest, kind, append = table[flag]
        try:
            value = value if kind is None else kind(value)
        except (TypeError, ValueError):
            return None
        if append:
            opts.setdefault(dest, []).append(value)
        else:
            # a repeated flag keeps its first position, as setattr on argparse's namespace does
            opts[dest] = value
    return opts


def _params(opts: dict) -> SystemParams:
    """Model parameters; an alias (--delta, --kappa) overrides its split fields."""
    values = {name: opts[name] for name in PARAM_FIELDS if name in opts}
    for alias, split in AXIS_ALIASES.items():
        if alias in opts:
            values.update(dict.fromkeys(split, opts[alias]))
    return SystemParams(**values)


def _axis(raw, which: str) -> SweepAxis:
    """A sweep axis from flag syntax ('name:lo:hi:count', 'name=v1,v2,...') or a config object."""
    if isinstance(raw, str):
        name, eq, rest = raw.partition("=")
        if eq:
            try:
                values = [float(v) for v in rest.split(",") if v.strip() != ""]
            except ValueError as exc:
                raise ParameterError(f"--{which}: bad value list in {raw!r}") from exc
            return SweepAxis(name.strip(), values)
        parts = raw.split(":")
        if len(parts) != 4:
            raise ParameterError(f"--{which}: expected 'name:lo:hi:count' or 'name=v1,v2,...', got {raw!r}")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParameterError(f"--{which}: bad numbers in {raw!r}") from exc
        return SweepAxis.linspace(parts[0].strip(), lo, hi, count)
    where = f"sweep.{which}"
    if not isinstance(raw, dict):
        raise ParameterError(f"{where} must be an object, got {type(raw).__name__}")
    if "values" in raw:
        _check_keys(raw, {"name", "values"}, where, required={"name"})
        if not isinstance(raw["values"], list):
            raise ParameterError(f"{where}: 'values' must be a list")
        return SweepAxis(raw["name"], raw["values"])
    keys = {"name", "min", "max", "count"}
    _check_keys(raw, keys, where, required=keys)
    return SweepAxis.linspace(raw["name"], raw["min"], raw["max"], raw["count"])


def _output(command: str, opts: dict) -> tuple[str | None, str, float | None]:
    """Output path, format and reference rate; an option that cannot act, or a path no file can take, is refused."""
    out, fmt, gamma = opts.get("out"), opts.get("format", "csv"), opts.get("gamma_mhz")
    if out is not None and not isinstance(out, str):
        raise ParameterError(f"output path must be a string, got {out!r}")
    if out is not None and (out == "" or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ParameterError(f"output path {out!r} names no file in an existing directory")
    if fmt not in ("csv", "json"):
        raise ParameterError(f"output format must be 'csv' or 'json', got {fmt!r}")
    if gamma is not None:
        gamma = positive("gamma_mhz", finite_real("gamma_mhz", gamma))
    if out is None and command in REPORT_COMMANDS:
        given = [_spelled(dest) for dest in ("format", "gamma_mhz") if dest in opts]
        if given:
            raise ParameterError(f"without --out, {command} writes no file, so {' and '.join(given)} would be ignored")
    if gamma is not None and fmt == "csv":
        raise ParameterError(f"CSV output carries no metadata, so {_spelled('gamma_mhz')} would be ignored; use --format json")
    return out, fmt, gamma


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text(out_path, text)


def _report(pairs: dict[str, float], out: str | None, fmt: str, gamma: float | None) -> None:
    """Print `key = value` lines, and write the same values to `out` if given; zeros lose their sign."""
    pairs = {key: 0.0 if value == 0.0 else value for key, value in pairs.items()}
    sys.stdout.write("".join(f"{key} = {value:.12g}\n" for key, value in pairs.items()))
    if out is not None:
        _emit(mapping_csv(pairs) if fmt == "csv" else mapping_json(pairs, gamma), out)


def _cmd_steady(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    params = _params(opts)
    space = params.space()
    x, residual = steady_coordinates(build_liouvillian(params))
    # ρ is Hermitian by construction, so the report carries no Hermiticity defect
    rho = unvectorize(x, space.total_dim)
    # one read-out: the populations and moments that give the occupation also give g2
    pops = fock_populations(rho, space)
    occupation, pairs = population_moments(pops)
    report: dict[str, float] = {
        "trace": float(np.trace(rho).real),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]),
        "residual": residual,
        "occupation": float(occupation),
    }
    report.update(zip(POPULATION_COLUMNS, population_columns(pops).tolist()))
    failed: str | None = None
    try:
        g2 = correlation("g2_numeric", point_g2(occupation, pairs))
        report["g2"] = g2
        report["log10_g2"] = math.log10(g2)
    except NumericalError as exc:
        failed = str(exc)
    _report(report, out, fmt, gamma)
    if failed is not None:
        print(f"g2 = undefined ({failed})")
    return 2 if failed is not None else 0


def _cmd_analytic(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    params = _params(opts)
    amps = closed_form_amplitudes(params)
    report: dict[str, float] = {}
    for name, value in zip(STATE_NAMES, amps):
        report[f"{name}_re"] = value.real
        report[f"{name}_im"] = value.imag
    g2 = correlation("g2_analytic", amplitude_g2(amps))
    report["g2_analytic"] = g2
    report["log10_g2_analytic"] = math.log10(g2)
    plus, minus = optimal_detuning(params.coupling)
    report["optimal_delta_plus"] = plus
    report["optimal_delta_minus"] = minus
    _report(report, out, fmt, gamma)
    return 0


def _cmd_spectrum(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    levels = dressed_spectrum(opts.get("omega_m"), opts.get("omega_q"), opts.get("g"), opts.get("n_max", 3))
    print(" ".join(f.name for f in fields(DressedLevel)))
    for lv in levels:
        print(f"{lv.n} {lv.branch:+d} {lv.energy:.12g} {lv.c_g_n:.12g} {lv.c_e_nm1:.12g}")
    if out is not None:
        _emit(levels_csv(levels) if fmt == "csv" else levels_json(levels, gamma), out)
    return 0


def _run_job(job: SweepSpec | EvolutionJob, out: str | None, fmt: str, gamma: float | None) -> tuple[int, int]:
    """Run a sweep or an evolution and write its table; returns (points, failed points)."""
    if isinstance(job, EvolutionJob):
        series = run_evolution(job)
        _emit(timeseries_csv(series) if fmt == "csv" else timeseries_json(series, gamma), out)
        return series.times.size, 0
    grid = run_sweep(job)
    _emit(grid_csv(grid) if fmt == "csv" else grid_json(grid, gamma), out)
    return grid.values.size, len(grid.failures)


def _cmd_evolve(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    _run_job(EvolutionJob(base=_params(opts), t_end=opts.get("t_end", 100.0), num=opts.get("num", 501)), out, fmt, gamma)
    return 0


def _cmd_sweep(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    if "axis1" not in opts:
        raise ParameterError("sweep needs --axis1 or a config sweep.axis1")
    spec = SweepSpec(
        base=_params(opts),
        axis1=_axis(opts["axis1"], "axis1"),
        axis2=_axis(opts["axis2"], "axis2") if "axis2" in opts else None,
        quantity=opts.get("quantity", "g2_numeric"),
        constraints=opts.get("constraints", ()),
    )
    _run_job(spec, out, fmt, gamma)
    return 0


def _cmd_figure(opts: dict, out: str | None, fmt: str, gamma: float | None) -> int:
    name = opts.get("name")
    preset = figure_preset(name)
    out = out if out is not None else f"{name}.{fmt}"
    n_rows, n_failures = _run_job(preset, out, fmt, gamma)
    print(f"wrote {out} ({n_rows} points, {n_failures} failures)")
    return 0


_COMMANDS = {
    "steady": _cmd_steady,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "spectrum": _cmd_spectrum,
    "analytic": _cmd_analytic,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser, commands = _parser()
        argv = sys.argv[1:] if argv is None else argv
        if argv and argv[0] in commands:
            # the command word picks its flag table; any form the table does not take goes to its parser
            command = argv[0]
            flags = _read_flags(command, argv[1:])
            if flags is None:
                flags = vars(commands[command].parse_args(argv[1:]))
            flags = {"command": command, **flags}
        else:
            flags = vars(parser.parse_args(argv))
            command = flags["command"]
        config = load_config(flags["config"]) if "config" in flags else {}
        job = config.pop("job", command)
        if job != command:
            raise ParameterError(f"config job is {job!r} but the {command!r} subcommand was invoked")
        # a config key counts only where the command has its flag
        stray = [CONFIG_KEYS[dest] for dest in config if commands[command].get_default(dest) is not argparse.SUPPRESS]
        if stray:
            raise ParameterError(f"config key(s) {', '.join(stray)} do not apply to the {command!r} subcommand")
        # the one place config values and flags meet: a flag wins over its config key
        opts = {**config, **flags}
        # options every subcommand takes are checked for all of them, before any numerics
        return _COMMANDS[command](opts, *_output(command, opts))
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
