"""Serialization: CSV layout, float formatting, JSON documents."""
import datetime
import json

import numpy as np
import pytest

from mbl.model import SystemParams, dressed_spectrum
from mbl.output import (grid_csv, grid_json, levels_csv,
                        levels_json, mapping_csv, mapping_json,
                        timeseries_csv, timeseries_json, write_text)
from mbl.sweep import (EvolutionJob, ResultGrid, SweepAxis, SweepSpec,
                       TimeSeries, run_evolution, run_sweep)


def _demo_grid():
    spec = SweepSpec(
        base=SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01,
                          kappa_m=0.15, kappa_s=0.15),
        axis1=SweepAxis("delta", [-9.8, 9.8]),
        axis2=SweepAxis("omega_d", [0.004, 0.01, 0.012]),
        quantity="both_g2",
    )
    # powers of ten, whose log10 is exact, so the CSV bytes depend on no libm
    num = np.array([[1e-3, 1e-4, np.nan], [1e-7, 1e-6, 1e-5]])
    ana = np.array([[1e-2, 1e-3, np.nan], [1e-6, 1e-5, 1e-4]])
    failures = [((0, 2), "probe: boom")]
    return ResultGrid(spec=spec, planes={"g2_numeric": num, "g2_analytic": ana},
                      failures=failures)


def test_format_float():
    """`mapping_csv` writes 17 significant digits: NaN as nan, round trips exact."""
    floats = {"nan": float("nan"), "one": 1.0, "tenth": 0.1, "neg": -9.8, "pi": np.pi}
    rows = dict(line.split(",") for line in mapping_csv(floats).splitlines()[1:])
    assert rows == {"nan": "nan", "one": "1", "tenth": "0.10000000000000001",
                    "neg": "-9.8000000000000007", "pi": rows["pi"]}
    assert float(rows["pi"]) == np.pi


def test_grid_csv_layout():
    text = grid_csv(_demo_grid())
    lines = text.split("\n")
    assert lines[0] == "delta,omega_d,log10_g2_numeric,log10_g2_analytic"
    assert len(lines) == 8 and lines[7] == ""  # 6 data rows + trailing newline
    # axis1-major ordering: all omega_d for delta=-9.8 first
    coords = [tuple(float(f) for f in ln.split(",")[:2]) for ln in lines[1:7]]
    assert coords == [(-9.8, 0.004), (-9.8, 0.01), (-9.8, 0.012),
                      (9.8, 0.004), (9.8, 0.01), (9.8, 0.012)]
    # log scale applied to g2 columns
    assert lines[1].split(",")[2] == "-3"
    assert lines[4].split(",")[2] == "-7"
    # failed cell serializes as nan
    assert lines[3].split(",")[2] == "nan"
    assert "\r" not in text
    assert text == (
        "delta,omega_d,log10_g2_numeric,log10_g2_analytic\n"
        "-9.8000000000000007,0.0040000000000000001,-3,-2\n"
        "-9.8000000000000007,0.01,-4,-3\n"
        "-9.8000000000000007,0.012,nan,nan\n"
        "9.8000000000000007,0.0040000000000000001,-7,-6\n"
        "9.8000000000000007,0.01,-6,-5\n"
        "9.8000000000000007,0.012,-5,-4\n"
    )


def test_grid_csv_one_axis():
    spec = SweepSpec(
        base=SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01),
        axis1=SweepAxis("delta", [1.0, 2.0]),
        quantity="populations",
    )
    planes = {f"p{k}": np.array([[0.1 * (k + 1)], [0.2 * (k + 1)]])
              for k in range(4)}
    text = grid_csv(ResultGrid(spec=spec, planes=planes))
    lines = text.strip().split("\n")
    assert lines[0] == "delta,p0,p1,p2,p3"
    # populations are plain values, no log scaling
    assert lines[1].split(",")[1] == "0.10000000000000001"
    assert text == (
        "delta,p0,p1,p2,p3\n"
        "1,0.10000000000000001,0.20000000000000001,0.30000000000000004,0.40000000000000002\n"
        "2,0.20000000000000001,0.40000000000000002,0.60000000000000009,0.80000000000000004\n"
    )


def test_grid_json_document():
    doc = json.loads(grid_json(_demo_grid(), gamma_mhz=1.5))
    assert set(doc) == {"spec", "axes", "values", "planes", "failures",
                        "metadata"}
    assert doc["axes"][0]["name"] == "delta"
    assert doc["axes"][1]["values"] == [0.004, 0.01, 0.012]
    assert doc["values"] == doc["planes"]["log10_g2_numeric"]
    assert doc["values"][0][2] is None  # NaN -> null
    assert doc["values"][1][0] == pytest.approx(-7.0)
    assert doc["failures"] == [{"index": [0, 2], "tag": "probe: boom"}]
    assert doc["metadata"]["gamma_mhz"] == 1.5
    assert doc["metadata"]["version"]
    # timestamp parses back
    datetime.datetime.fromisoformat(doc["metadata"]["timestamp"])
    assert doc["spec"]["quantity"] == "both_g2"
    # no gamma key when not supplied
    doc2 = json.loads(grid_json(_demo_grid()))
    assert "gamma_mhz" not in doc2["metadata"]


def test_timeseries_serialization(broad_params):
    series = run_evolution(EvolutionJob(base=broad_params, t_end=1.0, num=5))
    text = timeseries_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "time,p0,p1,p2,p3,g2"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "0"
    assert lines[1].split(",")[-1] == "nan"  # g2 undefined at the vacuum start
    doc = json.loads(timeseries_json(series, gamma_mhz=2.0))
    assert doc["axes"][0]["name"] == "time"
    assert doc["axes"][0]["values"][-1] == 1.0
    assert len(doc["planes"]["g2"]) == 5
    assert doc["planes"]["g2"][0] is None
    assert doc["metadata"]["gamma_mhz"] == 2.0
    made = TimeSeries(times=np.array([0.0, 0.5, 1.0]),
                      planes={"p0": np.array([1.0, 0.75, 0.5]), "g2": np.array([np.nan, 0.25, 1e-7])})
    assert timeseries_csv(made) == "time,p0,g2\n0,1,nan\n0.5,0.75,0.25\n1,0.5,9.9999999999999995e-08\n"


def test_levels_serialization():
    levels = dressed_spectrum(7.0, 7.0, 2.0, n_max=2)
    text = levels_csv(levels)
    lines = text.strip().split("\n")
    assert lines[0] == "n,branch,energy,c_g_n,c_e_nm1"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[1] == "-1"
    assert text == (
        "n,branch,energy,c_g_n,c_e_nm1\n"
        "1,-1,6,0.70710678118654746,-0.70710678118654746\n"
        "1,1,8,0.70710678118654746,0.70710678118654746\n"
        "2,-1,12.585786437626904,0.70710678118654746,-0.70710678118654779\n"
        "2,1,15.414213562373096,0.70710678118654746,0.70710678118654779\n"
    )
    doc = json.loads(levels_json(levels))
    assert len(doc["levels"]) == 4
    assert doc["levels"][0]["n"] == 1
    assert doc["levels"][0]["branch"] == -1


def test_mapping_serialization():
    pairs = {"g2": 0.5, "log10_g2": -0.3010299956639812}
    text = mapping_csv(pairs)
    assert text.startswith("key,value\n")
    assert "g2,0.5\n" in text
    doc = json.loads(mapping_json(pairs, gamma_mhz=None))
    assert doc["values"]["g2"] == 0.5
    assert "metadata" in doc


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} written")


_JSON_DOCUMENTS = {
    "grid": lambda: grid_json(_demo_grid(), gamma_mhz=1.5),
    "timeseries": lambda: timeseries_json(TimeSeries(
        times=np.array([0.0, 0.5, 1.0]),
        planes={"p0": np.array([1.0, 0.75, 0.5]), "g2": np.array([np.nan, 0.25, 1e-7])})),
    "levels": lambda: levels_json(dressed_spectrum(7.0, 7.0, 2.0, n_max=2)),
    "mapping": lambda: mapping_json({"g2": 0.5, "log10_g2": float("nan")}, gamma_mhz=2.0),
}


@pytest.mark.parametrize("kind", sorted(_JSON_DOCUMENTS))
def test_json_documents_are_compact_and_strict(kind):
    text = _JSON_DOCUMENTS[kind]()
    # one line, exactly what the C encoder writes for the parsed document
    assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"
    doc = json.loads(text, parse_constant=_reject_constant)  # no NaN or Infinity token
    assert list(doc)[-1] == "metadata"


def test_grid_json_values_are_exact():
    rng = np.random.default_rng(13)
    grid = _demo_grid()
    for name in grid.planes:  # arbitrary magnitudes; the NaN failure cell stays
        grid.planes[name] = np.where(np.isnan(grid.planes[name]), np.nan, 10.0 ** rng.uniform(-9, 1, (2, 3)))
    doc = json.loads(grid_json(grid))
    for name, raw in grid.planes.items():
        expected = np.log10(raw)
        cells = doc["planes"][f"log10_{name}"]
        nulls = np.array([[c is None for c in row] for row in cells])
        assert np.array_equal(nulls, np.isnan(expected))
        written = np.array([c for row in cells for c in row if c is not None])
        assert np.array_equal(written.view(np.uint64), expected[~nulls].view(np.uint64))  # bit for bit
    assert doc["values"] == doc["planes"]["log10_g2_numeric"]
    spec = grid.spec
    for k, axis in enumerate((spec.axis1, spec.axis2)):
        assert doc["axes"][k] == {"name": axis.name, "values": list(axis.values)}
        assert doc["spec"][f"axis{k + 1}"] == doc["axes"][k]


def test_write_text_lf_bytes(tmp_path):
    target = tmp_path / "out.csv"
    write_text(str(target), "a,b\n1,2\n")
    raw = target.read_bytes()
    assert raw == b"a,b\n1,2\n"
    assert b"\r" not in raw


def test_csv_runs_are_byte_identical(broad_params):
    spec = SweepSpec(base=broad_params,
                     axis1=SweepAxis("delta", [5.0, 9.8]),
                     quantity="both_g2")
    a = grid_csv(run_sweep(spec))
    b = grid_csv(run_sweep(spec))
    assert a == b
