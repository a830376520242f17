"""Golden outputs: a compact summary of what each reference command writes.

Each case is one `mbl` command, run through `cli.main` with `--format json`
into a temporary file. Its summary holds:
- the exit code, the shape (the length of each axis) and every failure's
  index and tag, compared exactly;
- for each numeric plane, the per-row sums of its values and of their
  squares as the file writes them (log10 for a correlation column), NaN
  cells left out, and the flat indices of its NaN cells. A grid's row is
  one axis1 index; a time series is one row. Sums are compared within
  SUM_ATOL, which is far below any real change and above the rounding
  that the BLAS thread count moves;
- for a `g2_analytic` plane, the SHA-256 of its raw float64 bytes. The
  closed form uses only + - * /, so its bits are portable where numpy's
  log10 may not be;
- for a report, each value within REPORT_RTOL, except the rounding-level
  values in REPORT_BOUNDS, whose digits follow the BLAS thread count: for
  those only whether they meet their bound is kept.

`tests/test_golden.py` checks every case against `tests/golden.json`. To
regenerate that file, from the repository root, with one BLAS thread so
that the sums have one history:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_outputs.py

A change that moves the reference says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np

from mbl.cli import main
from mbl.model import SystemParams
from mbl.sweep import SweepAxis, SweepSpec, run_sweep

REFERENCE = pathlib.Path(__file__).with_name("golden.json")

SUM_ATOL = 1e-8
REPORT_RTOL = 1e-9
REPORT_BOUNDS = {
    "min_eigenvalue": lambda v: abs(v) <= 1e-12,
    "residual": lambda v: v <= 1e-12,
    "trace": lambda v: abs(v - 1.0) <= 1e-12,
}

# README's working point: the deep antibunching dip
_POINT = ["--g-ms", "19.6", "--omega-s", "0.06", "--omega-d", "0.01", "--kappa", "0.15"]

CASES: dict[str, list[str]] = {
    "steady": ["steady", "--delta", "9.8", *_POINT],
    "analytic": ["analytic", "--delta", "9.8", *_POINT],
    "both_g2_cut": ["sweep", "--axis1", "delta:-20:20:201", "--quantity", "both_g2", *_POINT],
    "fig5a": ["figure", "fig5a"],
    "fig6b": ["figure", "fig6b"],
    "fig7": ["figure", "fig7"],
    "fig9b": ["figure", "fig9b"],
    # one cell per failure kind: an invalid rate, a singular solve, an overflowing residual
    "failure_tags": ["sweep", "--axis1", "omega_d=0,0.001,1e200", "--axis2", "kappa=-0.1,0,0.15",
                     "--quantity", "both_g2", "--delta", "9.8", "--g-ms", "19.6", "--omega-s", "0.06"],
}


def _column(plane) -> dict:
    values = np.atleast_2d(np.array(plane, dtype=float))  # JSON null reads as NaN
    return {
        "sums": np.nansum(values, axis=1).tolist(),
        "squares": np.nansum(values * values, axis=1).tolist(),
        "nan": np.flatnonzero(np.isnan(values)).tolist(),
    }


def _analytic_sha256(spec: dict) -> str:
    """SHA-256 of the raw `g2_analytic` plane of the sweep a grid document describes."""
    axes = [SweepAxis(axis["name"], axis["values"]) for axis in (spec["axis1"], spec["axis2"]) if axis is not None]
    grid = run_sweep(SweepSpec(SystemParams(**spec["base"]), *axes, quantity=spec["quantity"],
                               constraints=spec["constraints"]))
    return hashlib.sha256(grid.planes["g2_analytic"].astype("<f8").tobytes()).hexdigest()


def summarize(argv: list[str]) -> dict:
    """Run `mbl <argv> --format json` and summarise what it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "out.json")
        with contextlib.redirect_stdout(io.StringIO()):
            summary: dict = {"code": main([*argv, "--format", "json", "--out", str(path)])}
        doc = json.loads(path.read_text()) if path.exists() else {}
    if "planes" in doc:
        summary["shape"] = [len(axis["values"]) for axis in doc["axes"]]
        summary["failures"] = [[*failure["index"], failure["tag"]] for failure in doc["failures"]]
        summary["columns"] = {name: _column(plane) for name, plane in doc["planes"].items()}
        if "log10_g2_analytic" in doc["planes"]:
            summary["g2_analytic_sha256"] = _analytic_sha256(doc["spec"])
    elif "values" in doc:
        summary["report"] = {key: REPORT_BOUNDS[key](value) if key in REPORT_BOUNDS else value
                             for key, value in doc["values"].items()}
    return summary


def write_reference() -> None:
    """Rewrite `golden.json`, one case per line."""
    lines = [f"{json.dumps(name)}: {json.dumps(summarize(argv), allow_nan=False)}" for name, argv in CASES.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write_reference()
