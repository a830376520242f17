"""Seeded workloads for the mbl benchmark.

A workload turns a seed into the argv lists that `mbl.cli.main` receives and
checks what those calls produced. One pass of a workload runs every `main`
call, then every `probe` call; probes are single-point calls timed one by
one for the `point_ms.*` latencies. Generating argv needs no mbl import;
the checks import the package API and recompute sampled results through it.

Why each workload exists (see NOTES.md for the numbers):

- steady_map: dense Lindblad steady states (build_liouvillian + LU solve),
  the path every master-equation grid cell and `mbl steady` call takes. Its
  scenario-B block carries an omega_d = 0 column whose dark cells fail on
  purpose, so the per-cell failure path is measured too.
- closed_form_map: a large dip-tracked closed-form grid. No Liouvillian is
  built; time goes to sweep bookkeeping, the thread pool, the closed form
  and JSON output. A Lindblad-only optimisation should not move it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("steady_map", "closed_form_map")

# tolerances of the output checks
G2_NUMERIC_RTOL = 1e-5  # above the ~5e-7 double-precision floor of the numeric g2
G2_ANALYTIC_RTOL = 1e-8
STEADY_RESIDUAL_MAX = 1e-10
TRACE_DEFECT_MAX = 1e-12

STEADY_PROBES = 200  # >= 200 so at least ten samples lie beyond p95
ANALYTIC_PROBES = 200


def _num(x: float) -> str:
    return repr(float(x))


def _values(xs) -> str:
    return ",".join(_num(x) for x in xs)


@dataclass
class Outcome:
    """Result of checking one pass: problems found and expected failures."""

    problems: list[str] = field(default_factory=list)
    expected_failures: int = 0


@dataclass
class Workload:
    main: list[list[str]]
    probes: list[list[str]]
    ops_per_pass: int
    check: Callable[[list[str]], Outcome]

    @property
    def warmup(self) -> list[str]:
        return self.probes[0]


def build(name: str, seed: int, outdir: str) -> Workload:
    """The workload `name` with inputs drawn from `seed`; outputs go to `outdir`."""
    makers = {"steady_map": _steady_map, "closed_form_map": _closed_form_map}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return makers[name](random.Random(seed), seed, outdir)


def _parse_mapping(text: str) -> dict[str, float]:
    """`key = value` lines printed by `mbl steady` / `mbl analytic`."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                out[key.strip()] = float(value)
            except ValueError:
                pass
    return out


def _read_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ------------------------------------------------------------- steady_map

# block 1: scenario A at the fig3a working point
_A_FIXED = {"omega_s": 0.06, "omega_d": 0.01, "kappa": 1.0}
_A_DELTA = (-20.0, 20.0)
_A_GMS = (0.5, 30.0)
_A_SHAPE = (10, 10)
# block 2: scenario B at the fig9b dip; omega_d = 0 is the dark column
_B_FIXED = {"g_ms_tilde": 50.1, "delta": 25.05}
_B_OMEGA_D = (0.001, 0.6)
_B_KAPPA = (0.05, 1.5)
_B_SHAPE = (6, 5)


def _flags(fixed: dict[str, float]) -> list[str]:
    out = []
    for key, value in fixed.items():
        out += ["--" + key.replace("_", "-"), _num(value)]
    return out


def _steady_map(rng: random.Random, seed: int, outdir: str) -> Workload:
    a_delta = sorted(rng.uniform(*_A_DELTA) for _ in range(_A_SHAPE[0]))
    a_gms = sorted(rng.uniform(*_A_GMS) for _ in range(_A_SHAPE[1]))
    lo, hi = math.log(_B_OMEGA_D[0]), math.log(_B_OMEGA_D[1])
    b_omega_d = [0.0] + sorted(math.exp(rng.uniform(lo, hi)) for _ in range(_B_SHAPE[0] - 1))
    b_kappa = sorted(rng.uniform(*_B_KAPPA) for _ in range(_B_SHAPE[1]))
    csv_path = os.path.join(outdir, "steady_map_a.csv")
    json_path = os.path.join(outdir, "steady_map_b.json")
    main = [
        ["sweep", "--scenario", "A", *_flags(_A_FIXED), "--axis1", "delta=" + _values(a_delta),
         "--axis2", "g_ms=" + _values(a_gms), "--quantity", "g2_numeric", "--out", csv_path],
        ["sweep", "--scenario", "B", *_flags(_B_FIXED), "--axis1", "omega_d=" + _values(b_omega_d),
         "--axis2", "kappa=" + _values(b_kappa), "--quantity", "g2_numeric", "--format", "json", "--out", json_path],
    ]
    points = [(rng.uniform(*_A_DELTA), rng.uniform(*_A_GMS)) for _ in range(STEADY_PROBES)]
    probes = [["steady", "--scenario", "A", *_flags(_A_FIXED), "--delta", _num(d), "--g-ms", _num(g)] for d, g in points]
    n_cells = _A_SHAPE[0] * _A_SHAPE[1] + _B_SHAPE[0] * _B_SHAPE[1]
    sample_rng = random.Random(seed + 1)
    a_sample = sample_rng.sample([(i, j) for i in range(_A_SHAPE[0]) for j in range(_A_SHAPE[1])], 6)
    b_sample = sample_rng.sample([(i, j) for i in range(1, _B_SHAPE[0]) for j in range(_B_SHAPE[1])], 4)

    def params_a(i: int, j: int):
        from mbl import SystemParams

        k = _A_FIXED["kappa"]
        return SystemParams(scenario="A", delta_m=a_delta[i], delta_s=a_delta[i], g_ms=a_gms[j],
                            omega_s=_A_FIXED["omega_s"], omega_d=_A_FIXED["omega_d"], kappa_m=k, kappa_s=k)

    def params_b(i: int, j: int):
        from mbl import SystemParams

        d = _B_FIXED["delta"]
        return SystemParams(scenario="B", delta_m=d, delta_s=d, g_ms_tilde=_B_FIXED["g_ms_tilde"],
                            omega_d=b_omega_d[i], kappa_m=b_kappa[j], kappa_s=b_kappa[j])

    def numeric_g2(p) -> float:
        from mbl import build_liouvillian, g2_zero, steady_state

        return g2_zero(steady_state(build_liouvillian(p)), p.space())

    def check(probe_out: list[str]) -> Outcome:
        res = Outcome()
        problems = res.problems
        with open(csv_path, encoding="utf-8") as fh:
            header, rows = _read_csv(fh.read())
        if header != ["delta", "g_ms", "log10_g2_numeric"] or len(rows) != _A_SHAPE[0] * _A_SHAPE[1]:
            problems.append(f"block A csv has header {header} and {len(rows)} rows")
            return res
        plane_a = {}
        for k, (d, g, v) in enumerate(rows):
            i, j = divmod(k, _A_SHAPE[1])
            if (d, g) != (a_delta[i], a_gms[j]) or not math.isfinite(v):
                problems.append(f"block A cell {(i, j)} reads {(d, g, v)}")
            plane_a[i, j] = v
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        fails = [(tuple(f["index"]), f["tag"]) for f in doc["failures"]]
        dark = [(0, j) for j in range(_B_SHAPE[1])]
        if [idx for idx, _ in fails] != dark or not all(tag.startswith("NumericalError:") for _, tag in fails):
            problems.append(f"block B failures are {fails}, expected NumericalError at {dark}")
        res.expected_failures = sum(1 for idx, tag in fails if idx in dark and tag.startswith("NumericalError:"))
        plane_b = doc["values"]
        for i in range(1, _B_SHAPE[0]):
            for j in range(_B_SHAPE[1]):
                if plane_b[i][j] is None:
                    problems.append(f"block B cell {(i, j)} has no value")
        for k, text in enumerate(probe_out):
            vals = _parse_mapping(text)
            residual, trace = vals.get("residual", math.inf), vals.get("trace", math.inf)
            if "g2" not in vals or not residual <= STEADY_RESIDUAL_MAX or not abs(trace - 1.0) <= TRACE_DEFECT_MAX:
                problems.append(f"steady probe {k}: residual {residual}, trace {trace}, g2 {vals.get('g2')}")
        if not problems:
            for i, j in a_sample:
                ref = numeric_g2(params_a(i, j))
                if _rel(10.0 ** plane_a[i, j], ref) > G2_NUMERIC_RTOL:
                    problems.append(f"block A cell {(i, j)}: g2 {10.0 ** plane_a[i, j]!r} vs direct {ref!r}")
            for i, j in b_sample:
                ref = numeric_g2(params_b(i, j))
                if _rel(10.0 ** plane_b[i][j], ref) > G2_NUMERIC_RTOL:
                    problems.append(f"block B cell {(i, j)}: g2 {10.0 ** plane_b[i][j]!r} vs direct {ref!r}")
        return res

    return Workload(main, probes, n_cells + STEADY_PROBES, check)


# -------------------------------------------------------- closed_form_map

_C_SHAPE = (201, 101)


def _closed_form_map(rng: random.Random, seed: int, outdir: str) -> Workload:
    g_lo, g_hi = rng.uniform(0.5, 1.5), rng.uniform(28.0, 30.0)
    k_lo, k_hi = rng.uniform(0.05, 0.1), rng.uniform(1.4, 1.5)
    omega_s = 0.06 * (1.0 + rng.uniform(-0.05, 0.05))
    omega_d = 0.01 * (1.0 + rng.uniform(-0.05, 0.05))
    drives = ["--omega-s", _num(omega_s), "--omega-d", _num(omega_d)]
    json_path = os.path.join(outdir, "closed_form_map.json")
    main = [
        ["sweep", "--axis1", f"g_ms:{_num(g_lo)}:{_num(g_hi)}:{_C_SHAPE[0]}",
         "--axis2", f"kappa:{_num(k_lo)}:{_num(k_hi)}:{_C_SHAPE[1]}", "--quantity", "g2_analytic",
         "--constraint", "delta = g_ms/2", *drives, "--format", "json", "--out", json_path],
    ]
    points = [(rng.uniform(g_lo, g_hi), rng.uniform(k_lo, k_hi)) for _ in range(ANALYTIC_PROBES)]
    probes = [["analytic", "--g-ms", _num(g), "--delta", _num(g / 2), "--kappa", _num(k), *drives] for g, k in points]
    sample_rng = random.Random(seed + 1)
    sample = [(sample_rng.randrange(_C_SHAPE[0]), sample_rng.randrange(_C_SHAPE[1])) for _ in range(20)]

    def reference_g2(g: float, k: float, delta: float) -> float:
        from mbl import SystemParams, amplitude_g2, solve_steady_linear

        p = SystemParams(scenario="A", delta_m=delta, delta_s=delta, g_ms=g, kappa_m=k, kappa_s=k,
                         omega_s=omega_s, omega_d=omega_d)
        return amplitude_g2(solve_steady_linear(p))

    def check(probe_out: list[str]) -> Outcome:
        res = Outcome()
        problems = res.problems
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        values = doc["values"]
        if doc["failures"]:
            problems.append(f"closed-form grid recorded failures {doc['failures'][:3]}")
        if len(values) != _C_SHAPE[0] or any(len(row) != _C_SHAPE[1] or None in row for row in values):
            problems.append("closed-form grid has missing cells")
            return res
        g_axis, k_axis = doc["axes"][0]["values"], doc["axes"][1]["values"]
        for k, text in enumerate(probe_out):
            g, kappa = points[k]
            got = _parse_mapping(text).get("g2_analytic", math.nan)
            if not _rel(got, reference_g2(g, kappa, g / 2)) <= G2_ANALYTIC_RTOL:
                problems.append(f"analytic probe {k}: g2 {got!r}")
        for i, j in sample:
            g = g_axis[i]
            ref = reference_g2(g, k_axis[j], g / 2)
            if not _rel(10.0 ** values[i][j], ref) <= G2_ANALYTIC_RTOL:
                problems.append(f"closed-form cell {(i, j)}: g2 {10.0 ** values[i][j]!r} vs linear solve {ref!r}")
        return res

    return Workload(main, probes, _C_SHAPE[0] * _C_SHAPE[1] + ANALYTIC_PROBES, check)
