"""CSV and JSON rendering of sweep grids, time series, and level tables.

CSV files are deterministic: one `np.savetxt` call per table writes
17-significant-digit floats (`%.17g`, the bytes `format(x, ".17g")` gives), LF
line endings, one row per grid point in axis1-major order. The columns
`sweep.CORRELATION_COLUMNS` names are emitted as log10 (raw values live in
ResultGrid); populations and times are raw.

JSON documents are one compact line, exactly the bytes of
`json.dumps(doc, allow_nan=False)` plus a newline: floats in shortest
round-trip form, NaN written as null, and a `metadata` block (version,
timestamp, `gamma_mhz` when given) as the last key. A grid document holds
`spec` (the base parameters, both axes, quantity and constraints), `axes`
(name and values of each axis), `values` (the first column's plane),
`planes` (every column, as nested axis1-major lists, log10 where the CSV
is) and `failures` (index and tag of each failed cell). A time series has
`axes` (time), `planes` and an empty `failures`; a level table has
`levels`, and a key/value report has `values`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, fields
from datetime import datetime, timezone
from typing import Iterable

import numpy as np

from . import __version__
from .model import DressedLevel
from .sweep import CORRELATION_COLUMNS, ResultGrid, TimeSeries


def _column_header(name: str) -> str:
    return f"log10_{name}" if name in CORRELATION_COLUMNS else name


def _transform(name: str, values: np.ndarray) -> np.ndarray:
    if name in CORRELATION_COLUMNS:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log10(values)
    return values


def _csv_text(header: Iterable[str], columns: Iterable) -> str:
    """`columns` side by side under `header`; `%.17g` writes each float as `format(x, ".17g")` does."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return buf.getvalue()


def grid_csv(grid: ResultGrid) -> str:
    spec = grid.spec
    n1, n2 = spec.shape
    header, columns = [spec.axis1.name], [np.repeat(spec.axis1.values, n2)]
    if spec.axis2 is not None:
        header.append(spec.axis2.name)
        columns.append(np.tile(spec.axis2.values, n1))
    for name in spec.column_names():
        header.append(_column_header(name))
        columns.append(_transform(name, grid.planes[name]).ravel())
    return _csv_text(header, columns)


def timeseries_csv(series: TimeSeries) -> str:
    return _csv_text(["time", *series.planes], [series.times, *series.planes.values()])


def levels_csv(levels: Iterable[DressedLevel]) -> str:
    header = [f.name for f in fields(DressedLevel)]
    levels = list(levels)
    return _csv_text(header, [[getattr(lv, name) for lv in levels] for name in header])


def _jsonable(value):
    """An array as nested lists, a float as itself; NaN becomes None (JSON null)."""
    if isinstance(value, np.ndarray):
        nan = np.isnan(value)
        return (np.where(nan, None, value) if nan.any() else value).tolist()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


_ENCODER = json.JSONEncoder(allow_nan=False)


def _write(value, memo: dict, out: list) -> None:
    """Append to `out` the text `json.dumps(value, allow_nan=False)` gives (string keys only).

    Dicts, and lists of dicts, are laid out here; every other value goes
    whole to the C encoder, once per object, so a list the document holds in
    two places (`values` and its plane, an axis in `axes` and in `spec`) is
    encoded once.
    """
    if isinstance(value, dict):
        out.append("{")
        for n, (k, v) in enumerate(value.items()):
            out.append(f"{', ' if n else ''}{_ENCODER.encode(k)}: ")
            _write(v, memo, out)
        out.append("}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        out.append("[")
        for n, v in enumerate(value):
            if n:
                out.append(", ")
            _write(v, memo, out)
        out.append("]")
    else:
        # keyed by id(): the document keeps every object alive while it is encoded
        if id(value) not in memo:
            memo[id(value)] = _ENCODER.encode(value)
        out.append(memo[id(value)])


def _json_text(doc: dict, gamma_mhz: float | None) -> str:
    """`doc` with the metadata block (version, timestamp, gamma_mhz if given) as its last key."""
    meta = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if gamma_mhz is not None:
        meta["gamma_mhz"] = gamma_mhz
    out: list[str] = []
    _write({**doc, "metadata": meta}, {}, out)
    out.append("\n")
    return "".join(out)


def grid_json(grid: ResultGrid, gamma_mhz: float | None = None) -> str:
    spec = grid.spec
    columns = spec.column_names()
    planes = {_column_header(name): _jsonable(_transform(name, grid.planes[name])) for name in columns}
    axes = [{"name": spec.axis1.name, "values": list(spec.axis1.values)}]
    if spec.axis2 is not None:
        axes.append({"name": spec.axis2.name, "values": list(spec.axis2.values)})
    doc = {
        "spec": {
            "base": asdict(spec.base),
            "axis1": axes[0],
            "axis2": axes[1] if spec.axis2 is not None else None,
            "quantity": spec.quantity,
            "constraints": list(spec.constraints),
        },
        "axes": axes,
        "values": planes[_column_header(columns[0])],
        "planes": planes,
        "failures": [{"index": list(idx), "tag": tag} for idx, tag in grid.failures],
    }
    return _json_text(doc, gamma_mhz)


def timeseries_json(series: TimeSeries, gamma_mhz: float | None = None) -> str:
    doc = {
        "axes": [{"name": "time", "values": _jsonable(series.times)}],
        "planes": {name: _jsonable(values) for name, values in series.planes.items()},
        "failures": [],
    }
    return _json_text(doc, gamma_mhz)


def levels_json(levels: Iterable[DressedLevel], gamma_mhz: float | None = None) -> str:
    return _json_text({"levels": [asdict(lv) for lv in levels]}, gamma_mhz)


def mapping_csv(pairs: dict[str, float]) -> str:
    lines = ["key,value"]
    for key, value in pairs.items():
        lines.append(f"{key},{value:.17g}")
    return "\n".join(lines) + "\n"


def mapping_json(pairs: dict[str, float], gamma_mhz: float | None = None) -> str:
    return _json_text({"values": {k: _jsonable(v) for k, v in pairs.items()}}, gamma_mhz)


def write_text(path: str, text: str) -> None:
    """Write with LF endings regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
