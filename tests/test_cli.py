"""Command-line behavior: flags, configs, outputs, exit codes."""
import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mbl
from mbl.analytic import STATE_NAMES
from mbl import cli
from mbl.cli import _COMMANDS, _flag_tables, build_parser, load_config, main
from mbl.errors import ParameterError
from mbl.lindblad import population_moments, steady_coordinates

BRIGHT = ["--delta", "9.8", "--g-ms", "19.6", "--omega-s", "0.06",
          "--omega-d", "0.01", "--kappa", "0.15"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mapping(text):
    out = {}
    for line in text.strip().split("\n"):
        if " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


# ------------------------------------------------------------------ steady

def test_steady_happy_path(capsys):
    code, out, err = run(capsys, "steady", *BRIGHT)
    assert code == 0 and err == ""
    vals = mapping(out)
    assert vals["trace"] == pytest.approx(1.0, abs=1e-10)
    assert vals["log10_g2"] == pytest.approx(-7.192269738556927, abs=1e-9)
    assert vals["p0"] == pytest.approx(0.9834, abs=1e-3)
    assert vals["residual"] < 1e-10


def test_steady_dark_state_exits_2(capsys):
    code, out, err = run(capsys, "steady")
    assert code == 2
    vals = mapping(out)
    assert vals["p0"] == pytest.approx(1.0)
    assert isinstance(vals["g2"], str) and vals["g2"].startswith("undefined")


def test_steady_writes_file(capsys, tmp_path):
    target = tmp_path / "steady.json"
    code, out, _ = run(capsys, "steady", *BRIGHT, "--out", str(target),
                       "--format", "json")
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["values"]["log10_g2"] == pytest.approx(-7.1922697, abs=1e-6)


STEADY_KEYS = ["trace", "min_eigenvalue", "residual", "occupation", "p0", "p1", "p2", "p3", "g2", "log10_g2"]
SCENARIO_B = ["--scenario", "B", "--g-ms-tilde", "50.1", "--delta", "25.05", "--omega-d", "0.01", "--kappa", "0.15"]
BRIGHT_PARAMS = mbl.SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06, omega_d=0.01,
                                 kappa_m=0.15, kappa_s=0.15)


def one_cell(params, quantity):
    """A one-cell sweep at `params`."""
    axis = mbl.SweepAxis("omega_d", [params.omega_d])
    return mbl.run_sweep(mbl.SweepSpec(base=params, axis1=axis, quantity=quantity))


def one_cell_failure(params, quantity):
    """The message of the one failure a one-cell sweep at `params` records, without its class."""
    [(_, tag)] = one_cell(params, quantity).failures
    kind, message = tag.split(": ", 1)
    assert kind == "NumericalError"
    return message


@pytest.mark.parametrize("argv, params", [
    (BRIGHT, BRIGHT_PARAMS),
    (SCENARIO_B, mbl.SystemParams(scenario="B", g_ms_tilde=50.1, delta_m=25.05, delta_s=25.05,
                                  omega_d=0.01, kappa_m=0.15, kappa_s=0.15)),
    ([*BRIGHT, "--fock-dim", "3"], BRIGHT_PARAMS.replace(fock_dim=3)),
], ids=["A", "B", "fock_dim-3"])
def test_steady_report_is_one_solve(capsys, tmp_path, argv, params):
    target = tmp_path / "steady.json"
    code, out, _ = run(capsys, "steady", *argv, "--out", str(target), "--format", "json")
    assert code == 0
    values = json.loads(target.read_text())["values"]
    assert list(values) == STEADY_KEYS
    # the printed report is the file's, and p0..p3 are there with zeros above the truncation
    assert out.splitlines() == [f"{key} = {value:.12g}" for key, value in values.items()]
    # the report reads the same solve the library routes do, bit for bit
    liouv = mbl.build_liouvillian(params)
    rho, space = mbl.steady_state(liouv), params.space()
    assert values["trace"] == np.trace(rho).real
    assert values["min_eigenvalue"] == np.linalg.eigvalsh(rho)[0]
    assert values["residual"] == steady_coordinates(liouv)[1]
    assert values["occupation"] == population_moments(mbl.fock_populations(rho, space))[0]
    pops = [values[f"p{k}"] for k in range(4)]
    assert pops == [*mbl.fock_populations(rho, space)[:4].tolist(), 0.0, 0.0][:4]
    assert pops == [one_cell(params, "populations").planes[f"p{k}"][0, 0] for k in range(4)]
    assert values["g2"] == mbl.g2_zero(rho, space)


def test_steady_dark_report_drops_only_g2(capsys, tmp_path):
    target = tmp_path / "steady.json"
    # an unoccupied mode, and g2 = 0 at fock_dim 2, which keeps no second level
    for argv, params in (([], mbl.SystemParams()), ([*BRIGHT, "--fock-dim", "2"], BRIGHT_PARAMS.replace(fock_dim=2))):
        code, out, _ = run(capsys, "steady", *argv, "--out", str(target), "--format", "json")
        assert code == 2
        assert [line.split(" = ")[0] for line in out.splitlines()] == [*STEADY_KEYS[:-2], "g2"]
        assert list(json.loads(target.read_text())["values"]) == STEADY_KEYS[:-2]
        # a sweep cell at the same point fails with the same message
        assert out.splitlines()[-1] == f"g2 = undefined ({one_cell_failure(params, 'g2_numeric')})"


@pytest.mark.parametrize("argv, exit_code", [
    (["steady", "--scenario", "B", "--g-ms-tilde", "50.1", "--delta", "25.05", "--omega-d", "0", "--kappa", "0.5"], 2),
    (["analytic", "--omega-s", "0.06", "--omega-d", "0.01", "--delta", "1"], 0),  # g_ms = 0
], ids=["dark-steady", "analytic-no-coupling"])
def test_reports_write_zeros_without_sign(capsys, tmp_path, argv, exit_code):
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--out", str(csv_path))
    assert code == exit_code
    assert run(capsys, *argv, "--out", str(json_path), "--format", "json")[0] == exit_code
    zeros = [line for line in out.split("\n") if line.endswith(" = 0")]
    assert zeros and not any(line.endswith(" = -0") for line in out.split("\n"))
    rows = dict(line.split(",") for line in csv_path.read_text().split())
    assert all(rows[line.split(" = ")[0]] == "0" for line in zeros)
    values = json.loads(json_path.read_text())["values"]
    assert all(math.copysign(1.0, v) == 1.0 for v in values.values() if v == 0)


# ---------------------------------------------------------------- analytic

def test_analytic_landmark_point(capsys, tmp_path):
    code, out, err = run(capsys, "analytic", *BRIGHT)
    assert code == 0 and err == ""
    vals = mapping(out)
    assert vals["log10_g2_analytic"] == pytest.approx(-7.26084917068, abs=1e-9)
    assert vals["optimal_delta_plus"] == 9.8
    assert vals["optimal_delta_minus"] == -9.8
    assert vals["c_g1_re"] == pytest.approx(-0.00102039322, abs=1e-9)
    assert vals["c_g1_im"] == pytest.approx(0.133329428767, abs=1e-9)
    # both amplitude routes give a complex array in STATE_ORDER, and the report is
    # that array zipped with STATE_NAMES, bit for bit: at README's point and off the dip
    target = tmp_path / "analytic.json"
    for delta in (9.8, 3.0):
        p = mbl.SystemParams(delta_m=delta, delta_s=delta, g_ms=19.6, omega_s=0.06,
                             omega_d=0.01, kappa_m=0.15, kappa_s=0.15)
        for route in (mbl.closed_form_amplitudes, mbl.solve_steady_linear):
            amps = route(p)
            assert isinstance(amps, np.ndarray) and amps.dtype == complex and amps.shape == (5,)
            assert amps[0] == 1.0
        argv = ["--delta", str(delta), *BRIGHT[2:], "--format", "json", "--out", str(target)]
        assert run(capsys, "analytic", *argv)[0] == 0
        values = json.loads(target.read_text())["values"]
        want = {}
        for name, c in zip(STATE_NAMES, mbl.closed_form_amplitudes(p)):
            want[f"{name}_re"], want[f"{name}_im"] = c.real, c.imag
        # every part but c_g0's +0 imaginary one is non-zero, so == is bit for bit
        assert list(values)[:10] == list(want)
        assert {key: values[key] for key in want} == want


def test_analytic_fails_where_a_cell_does(capsys):
    # a drive of 1e200 overflows the closed form: the cell records NaN as a failure, and so does the report
    code, out, err = run(capsys, "analytic", "--delta", "1", "--g-ms", "1", "--omega-s", "0.06",
                         "--omega-d", "1e200", "--kappa", "0.15")
    params = mbl.SystemParams(delta_m=1.0, delta_s=1.0, g_ms=1.0, omega_s=0.06, omega_d=1e200,
                              kappa_m=0.15, kappa_s=0.15)
    assert (code, out) == (2, "")
    assert err == f"numerical error: {one_cell_failure(params, 'g2_analytic')}\n"


def test_analytic_reports_beam_splitter_layout(capsys, tmp_path):
    # the closed form runs in scenario B, and the optimal detunings are ±g_ms_tilde/2
    target = tmp_path / "analytic.json"
    code, _, err = run(capsys, "analytic", *SCENARIO_B, "--format", "json", "--out", str(target))
    assert (code, err) == (0, "")
    values = json.loads(target.read_text())["values"]
    assert (values["optimal_delta_plus"], values["optimal_delta_minus"]) == (25.05, -25.05)
    params = mbl.SystemParams(scenario="B", g_ms_tilde=50.1, delta_m=25.05, delta_s=25.05,
                              omega_d=0.01, kappa_m=0.15, kappa_s=0.15)
    assert values["g2_analytic"] == mbl.analytic_g2(params) == one_cell(params, "g2_analytic").values[0, 0]


def test_analytic_rejects_thermal_bath(capsys):
    # the closed form has no bath to put an occupation on
    code, out, err = run(capsys, "analytic", *BRIGHT, "--n-th", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "n_th" in err
    code, out, err = run(capsys, "sweep", *BRIGHT, "--axis1", "g_ms:1:30:5", "--quantity", "g2_analytic",
                         "--n-th", "0.5")
    assert (code, out) == (1, "") and "no thermal bath" in err
    # the truncation does not enter it
    assert run(capsys, "analytic", *BRIGHT, "--fock-dim", "2")[:2] == run(capsys, "analytic", *BRIGHT)[:2]


@pytest.mark.parametrize("extra, field", [
    (["--g-ms", "7"], "g_ms"), (["--n-th", "3"], "n_th"), (["--omega-s", "0.06"], "omega_s"),
], ids=["g_ms", "n_th", "omega_s"])
def test_steady_rejects_fields_scenario_b_ignores(capsys, extra, field):
    argv = ["steady", "--scenario", "B", "--g-ms-tilde", "50.1", "--delta", "25.05", "--omega-d", "0.01",
            "--kappa", "0.5"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *extra)
    assert (code, out) == (1, "")
    assert err == f"error: scenario B has no {field} term; {field} must be 0, got {float(extra[1])}\n"


def test_analytic_split_detuning_flags_match_alias(capsys):
    _, combined, _ = run(capsys, "analytic", *BRIGHT)
    _, split, _ = run(capsys, "analytic", "--delta-m", "9.8", "--delta-s",
                      "9.8", "--g-ms", "19.6", "--omega-s", "0.06",
                      "--omega-d", "0.01", "--kappa-m", "0.15",
                      "--kappa-s", "0.15")
    assert combined == split


# ---------------------------------------------------------------- spectrum

def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--omega-m", "7", "--omega-q", "7",
                       "--g", "2", "--n-max", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n branch energy c_g_n c_e_nm1"
    assert len(lines) == 5
    first = lines[1].split()
    assert first[0] == "1" and first[1] == "-1"
    assert float(first[2]) == pytest.approx(6.0)


def test_spectrum_to_file(capsys, tmp_path):
    target = tmp_path / "levels.csv"
    code, _, _ = run(capsys, "spectrum", "--omega-m", "5.3", "--omega-q",
                     "4.9", "--g", "2.2", "--n-max", "3", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "n,branch,energy,c_g_n,c_e_nm1"
    assert len(lines) == 7


def test_spectrum_requires_frequencies(capsys):
    code, _, err = run(capsys, "spectrum")
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ evolve

def test_evolve_csv(capsys, tmp_path):
    target = tmp_path / "path.csv"
    code, out, _ = run(capsys, "evolve", *BRIGHT, "--t-end", "1", "--num",
                       "6", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "time,p0,p1,p2,p3,g2"
    assert len(lines) == 7
    assert lines[1].split(",")[1] == "1"  # starts in the ground state


def test_evolve_json(capsys, tmp_path):
    target = tmp_path / "path.json"
    code, _, _ = run(capsys, "evolve", *BRIGHT, "--t-end", "1", "--num", "4",
                     "--format", "json", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["axes"][0]["name"] == "time"
    assert len(doc["planes"]["p0"]) == 4


def test_evolve_refuses_a_propagator_that_lost_the_trace(capsys, tmp_path):
    target = tmp_path / "path.csv"
    code, out, err = run(capsys, "evolve", *BRIGHT, "--t-end", "1e300", "--num", "2", "--out", str(target))
    assert (code, out) == (2, "") and not target.exists()
    assert err.startswith("numerical error: propagation lost the trace") and "t = 1e+300" in err


@pytest.mark.parametrize("argv, code, err", [
    (["steady", "--omega-d", "1e300", "--g-ms", "2", "--omega-s", "0.06", "--fock-dim", "3"], 2,
     "numerical error: steady-state solve produced non-finite entries\n"),
    (["sweep", "--axis1", "omega_d=0.01,1e300", "--quantity", "both_g2", "--g-ms", "2", "--omega-s", "0.06",
      "--fock-dim", "3"], 0, ""),
    (["sweep", "--axis1", "g_ms=1,2", "--constraint", "delta = g_ms*1e308", "--quantity", "g2_analytic",
      "--omega-d", "0.01"], 0, ""),
    (["evolve", "--t-end", "1e308", "--num", "2", "--omega-d", "0.01", "--g-ms", "2", "--omega-s", "0.06",
      "--fock-dim", "3"], 2, "numerical error: propagation lost the trace: drift nan at t = 1e+308\n"),
], ids=["steady", "sweep-solve", "sweep-rule", "evolve"])
def test_overflow_prints_no_numpy_warning(capsys, argv, code, err):
    # stderr carries the command's own message and nothing numpy warned about
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got_code, _, got_err = run(capsys, *argv)
    assert (got_code, got_err) == (code, err)
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------------------------- sweep

def test_sweep_to_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--axis1", "delta:0:1:3",
                       "--quantity", "g2_analytic", "--g-ms", "19.6",
                       "--omega-s", "0.06", "--omega-d", "0.01")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,log10_g2_analytic"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.0


def test_sweep_explicit_axis_values(capsys, tmp_path):
    target = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "sweep", "--axis1", "delta=3.0,9.8", "--axis2",
                     "omega_d=0.005,0.01", "--quantity", "g2_analytic",
                     "--g-ms", "19.6", "--omega-s", "0.06", "--out",
                     str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "delta,omega_d,log10_g2_analytic"
    assert len(lines) == 5


def test_sweep_constraint_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--axis1", "g_ms=19.6", "--quantity",
                       "g2_analytic", "--constraint", "delta = g_ms/2",
                       "--omega-s", "0.06", "--omega-d", "0.01",
                       "--kappa", "0.15")
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[1])
    assert value == pytest.approx(-7.26084917068, abs=1e-6)


@pytest.mark.parametrize("rule", [
    "delta = g_ms * e", "delta = g_ms / .", "delta_m = 1e999", "delta = g_ms * 1e999",
])
def test_sweep_rejects_constraint_numbers_that_are_not_finite(capsys, tmp_path, rule):
    target = tmp_path / "cut.csv"
    code, out, err = run(capsys, "sweep", "--axis1", "g_ms:1:2:2", "--constraint", rule,
                         "--quantity", "g2_analytic", "--omega-s", "0.06", "--omega-d", "0.01",
                         "--out", str(target))
    assert code == 1 and err.startswith("error:")
    assert out == "" and not target.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--quantity", "g2_analytic"),                     # no axis
    ("sweep", "--axis1", "delta:1:0:5"),                        # lo >= hi
    ("sweep", "--axis1", "bogus=1,2"),                          # unknown name
    ("sweep", "--axis1", "delta:0:1:3", "--quantity", "zeta"),  # bad quantity
    ("sweep", "--axis1", "delta"),                              # no values
])
def test_sweep_rejects_bad_requests(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err


def test_sweep_rejects_a_rule_on_an_axis_field(capsys, tmp_path):
    # the rule would overwrite the axis, so every row would hold the same g2
    # under a delta column of values that were never computed
    target = tmp_path / "cut.csv"
    code, out, err = run(capsys, "sweep", "--axis1", "delta:-4:4:5", "--constraint", "delta = g_ms/2",
                         "--g-ms", "19.6", "--omega-s", "0.06", "--omega-d", "0.01", "--kappa", "0.15",
                         "--quantity", "g2_analytic", "--out", str(target))
    assert code == 1 and out == "" and not target.exists()
    assert err == "error: field 'delta_m' is set by both axis 'delta' and constraint 'delta = g_ms/2'\n"


def test_sweep_gamma_metadata(capsys, tmp_path):
    target = tmp_path / "grid.json"
    code, _, _ = run(capsys, "sweep", "--axis1", "delta=5.0", "--quantity",
                     "g2_analytic", "--g-ms", "19.6", "--omega-s", "0.06",
                     "--omega-d", "0.01", "--format", "json",
                     "--gamma-mhz", "2.5", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["metadata"]["gamma_mhz"] == 2.5


def test_sweep_runs_are_byte_identical(capsys, tmp_path):
    args = ("sweep", "--axis1", "delta=3.0,9.8", "--quantity", "both_g2",
            "--g-ms", "19.6", "--omega-s", "0.06", "--omega-d", "0.01")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ figure

def test_figure_writes_named_output(capsys, tmp_path):
    target = tmp_path / "panel.csv"
    code, out, _ = run(capsys, "figure", "fig6b", "--out", str(target))
    assert code == 0
    assert f"wrote {target} (404 points, 0 failures)" in out
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "omega_d,kappa,log10_g2_numeric"
    assert len(lines) == 405


def test_figure_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "figure", "fig6b", "--format", "json")
    assert code == 0
    assert (tmp_path / "fig6b.json").exists()
    doc = json.loads((tmp_path / "fig6b.json").read_text())
    assert doc["spec"]["quantity"] == "g2_numeric"
    assert len(doc["failures"]) == 0


def test_figure_dip_cut_shape(capsys, tmp_path):
    target = tmp_path / "fig5a.csv"
    code, out, _ = run(capsys, "figure", "fig5a", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "delta,omega_d,log10_g2_numeric,log10_g2_analytic"
    assert len(lines) == 604  # 201 detunings x 3 drive strengths


def test_figure_rejects_parameter_flags(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "figure", "fig5a", "--delta", "3.0")
    assert code == 1 and out == "" and not any(tmp_path.iterdir())
    assert err == "error: unrecognized arguments: --delta 3.0\n"


def test_figure_rejects_config_parameters(capsys, tmp_path):
    target = tmp_path / "fig6b.csv"
    cfg = _write_config(tmp_path, {"job": "figure", "figure": "fig6b", "params": {"kappa_m": 5.0},
                                   "output": {"path": str(target)}})
    code, out, err = run(capsys, "figure", "--config", cfg)
    assert code == 1 and out == "" and not target.exists()
    assert err == "error: config key(s) params.kappa_m do not apply to the 'figure' subcommand\n"


SPECTRUM = ["--omega-m", "7", "--omega-q", "7", "--g", "2"]


@pytest.mark.parametrize("argv", [
    ["spectrum", *SPECTRUM, "--kappa", "5"],
    ["spectrum", *SPECTRUM, "--scenario", "B"],
    ["figure", "fig7", "--delta", "3"],
], ids=["spectrum-kappa", "spectrum-scenario", "figure-delta"])
def test_model_flags_only_where_a_model_is_built(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--out", "levels.csv")
    assert code == 1 and out == "" and err.startswith("error: unrecognized arguments:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["figure", "spectrum"])
def test_help_lists_no_model_parameter(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "--delta" not in text and "--scenario" not in text and "model parameters" not in text


def test_figure_requires_a_name(capsys):
    code, _, err = run(capsys, "figure")
    assert code == 1 and "error:" in err


def test_figure_unknown_name(capsys):
    code, _, err = run(capsys, "figure", "fig99")
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ config

def _write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_drives_a_sweep(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    cfg = _write_config(tmp_path, {
        "job": "sweep",
        "params": {"g_ms": 19.6, "omega_s": 0.06, "omega_d": 0.01,
                   "kappa_m": 0.15, "kappa_s": 0.15},
        "sweep": {"axis1": {"name": "delta", "values": [9.8]},
                  "quantity": "g2_analytic"},
        "output": {"path": str(out_path), "format": "csv"},
    })
    code, _, _ = run(capsys, "sweep", "--config", cfg)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "delta,log10_g2_analytic"
    assert float(lines[1].split(",")[1]) == pytest.approx(-7.2608, abs=1e-3)


def test_config_job_mismatch(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"job": "sweep"})
    code, _, err = run(capsys, "steady", "--config", cfg)
    assert code == 1 and "error:" in err


def test_config_bad_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"job": "steady",')
    code, _, err = run(capsys, "steady", "--config", str(path))
    assert code == 1
    assert "line" in err


def test_config_unknown_key(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"job": "steady", "jobz": 1})
    code, _, err = run(capsys, "steady", "--config", cfg)
    assert code == 1 and "jobz" in err
    cfg = _write_config(tmp_path, {"job": "sweep", "threads": 2})
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 1 and "unknown key(s) in config: threads" in err


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "steady", "--config",
                       str(tmp_path / "nope.json"))
    assert code == 1 and "error:" in err


def test_flags_override_config(capsys, tmp_path):
    # config switches the drives on; explicit flags switch them back off,
    # which must win and leave the steady state dark
    cfg = _write_config(tmp_path, {
        "job": "steady",
        "params": {"delta_m": 9.8, "delta_s": 9.8, "g_ms": 19.6,
                   "omega_s": 0.06, "omega_d": 0.01},
    })
    code, out, _ = run(capsys, "steady", "--config", cfg,
                       "--omega-s", "0", "--omega-d", "0")
    assert code == 2
    assert mapping(out)["p0"] == pytest.approx(1.0)


# Each case: the command, its config document and the same run spelled as flags.
# Config numbers are ints where flags give floats, and params use the split fields
# where flags use the --delta/--kappa aliases.
_SPLIT = {"delta_m": 9.8, "delta_s": 9.8, "g_ms": 19.6, "omega_s": 0.06,
          "omega_d": 0.01, "kappa_m": 0.15, "kappa_s": 0.15}
EQUIVALENT_RUNS = {
    "steady": ({"params": _SPLIT, "gamma_mhz": 2, "output": {"format": "json"}},
               [*BRIGHT, "--gamma-mhz", "2", "--format", "json"]),
    # null = absent, also for a key the command does not take
    "analytic": ({"params": _SPLIT, "gamma_mhz": None, "sweep": None, "evolve": {"num": None},
                  "spectrum": None, "figure": None}, BRIGHT),
    "evolve": ({"params": _SPLIT, "evolve": {"t_end": 2, "num": 5}},
               [*BRIGHT, "--t-end", "2", "--num", "5"]),
    "spectrum": ({"spectrum": {"omega_m": 7, "omega_q": 6.5, "g": 2, "n_max": 2},
                  "output": {"format": "json"}, "gamma_mhz": 1.5},
                 ["--omega-m", "7", "--omega-q", "6.5", "--g", "2", "--n-max", "2",
                  "--format", "json", "--gamma-mhz", "1.5"]),
    "figure": ({"figure": "fig7", "output": {"format": "json"}}, ["fig7", "--format", "json"]),
    "sweep": ({"params": {"omega_s": 0.06, "kappa_m": 0.15, "kappa_s": 0.15},
               "sweep": {"axis1": {"name": "g_ms", "min": 1, "max": 20, "count": 4},
                         "axis2": {"name": "omega_d", "values": [0.005, 0.01]},
                         "quantity": "g2_analytic", "constraints": ["delta = g_ms/2"]},
               "gamma_mhz": 1.5, "output": {"format": "json"}},
              ["--omega-s", "0.06", "--kappa", "0.15", "--axis1", "g_ms:1:20:4",
               "--axis2", "omega_d=0.005,0.01", "--quantity", "g2_analytic",
               "--constraint", "delta = g_ms/2", "--gamma-mhz", "1.5", "--format", "json"]),
}


def _without_timestamp(path):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', path.read_text())


@pytest.mark.parametrize("command", sorted(EQUIVALENT_RUNS))
def test_config_matches_flags(capsys, tmp_path, command):
    doc, argv = EQUIVALENT_RUNS[command]
    from_config, from_flags = tmp_path / "config.out", tmp_path / "flags.out"
    cfg = _write_config(tmp_path, {"job": command, **doc,
                                   "output": {**doc.get("output", {}), "path": str(from_config)}})
    assert run(capsys, command, "--config", cfg)[0] == 0
    assert run(capsys, command, *argv, "--out", str(from_flags))[0] == 0
    assert _without_timestamp(from_config) == _without_timestamp(from_flags)


@pytest.mark.parametrize("command, doc", [
    ("steady", {"gamma_mhz": "x"}),
    ("evolve", {"evolve": {"t_end": "abc"}}),
    ("sweep", {"sweep": 3}),
    ("evolve", {"evolve": [1]}),
    ("spectrum", {"spectrum": {"omega_m": "a", "omega_q": 1, "g": 1}}),
    ("sweep", {"sweep": {"axis1": {"name": "delta", "min": "a", "max": 1, "count": 3}}}),
    ("sweep", {"sweep": {"axis1": {"name": ["delta"], "values": [1]}}}),
    ("sweep", {"sweep": {"axis1": "delta=1", "constraints": 5}}),
    ("sweep", {"sweep": {"axis1": "delta=1", "constraints": [5]}}),
    ("figure", {"figure": ["fig7"]}),
    # a key the command does not take is refused, whatever its value
    ("figure", {"figure": "fig7", "params": {"kappa_m": "x"}}),
    ("spectrum", {"params": {"kappa_m": -1}, "spectrum": {"omega_m": 7, "omega_q": 7, "g": 2}}),
])
def test_config_rejects_malformed_values(capsys, tmp_path, command, doc):
    code, out, err = run(capsys, command, "--config", _write_config(tmp_path, doc))
    assert code == 1 and err.startswith("error:")
    assert out == ""  # rejected before any numerics ran


@pytest.mark.parametrize("argv, doc", [
    (("steady", "--format", "xml"), {"output": {"format": "xml"}}),
    (("steady", "--scenario", "C"), {"params": {"scenario": "C"}}),
    (("sweep", "--axis1", "delta=1", "--quantity", "bogus"), {"sweep": {"axis1": "delta=1", "quantity": "bogus"}}),
], ids=["format", "scenario", "quantity"])
def test_flag_and_config_values_share_one_check(capsys, tmp_path, argv, doc):
    code, out, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error:") and out == ""
    cfg = _write_config(tmp_path, {"job": argv[0], **doc})
    assert run(capsys, argv[0], "--config", cfg) == (1, "", err)


# Each case: a command, a config that runs it, and a key of another command, as the
# file spells it. The key would be ignored, so the run is refused before it starts.
_STEADY = {"params": _SPLIT}
STRAY_KEYS = {
    "steady-sweep": ("steady", _STEADY, {"sweep": {"quantity": "bogus", "axis1": 7}}, "sweep.quantity, sweep.axis1"),
    "steady-evolve": ("steady", _STEADY, {"evolve": {"t_end": 5}}, "evolve.t_end"),
    "steady-spectrum": ("steady", _STEADY, {"spectrum": {"g": 3}}, "spectrum.g"),
    "steady-figure": ("steady", _STEADY, {"figure": "fig99"}, "figure"),
    "analytic": ("analytic", _STEADY, {"evolve": {"num": 3}}, "evolve.num"),
    "evolve": ("evolve", _STEADY, {"sweep": {"constraints": ["delta = g_ms/2"]}}, "sweep.constraints"),
    "sweep": ("sweep", {"sweep": {"axis1": "delta=1"}}, {"figure": "fig7"}, "figure"),
    "figure": ("figure", {"figure": "fig7"}, {"spectrum": {"n_max": 2}}, "spectrum.n_max"),
    "spectrum": ("spectrum", {"spectrum": {"omega_m": 7, "omega_q": 7, "g": 2}},
                 {"params": {"delta_m": 1, "scenario": "B"}}, "params.delta_m, params.scenario"),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
def test_config_rejects_keys_of_other_commands(capsys, tmp_path, case):
    command, doc, stray, named = STRAY_KEYS[case]
    target = tmp_path / "result.csv"
    assert run(capsys, command, "--config", _write_config(tmp_path, {**doc, "output": {"path": str(target)}}))[0] == 0
    target.unlink()
    cfg = _write_config(tmp_path, {"job": command, **doc, **stray, "output": {"path": str(target)}})
    code, out, err = run(capsys, command, "--config", cfg)
    assert (code, out) == (1, "") and not target.exists()
    assert err == f"error: config key(s) {named} do not apply to the {command!r} subcommand\n"


@pytest.mark.parametrize("argv, doc", [
    (["steady", *BRIGHT, "--n", "0.1"], {"params": {"n": 0.1}}),
    (["steady", *BRIGHT, "--fock", "4"], {"params": {"fock": 4}}),
    (["evolve", *BRIGHT, "--t", "2"], {"evolve": {"t": 2}}),
], ids=["n_th", "fock_dim", "t_end"])
def test_flags_and_config_keys_are_never_abbreviated(capsys, tmp_path, argv, doc):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: unrecognized arguments:")
    code, out, err = run(capsys, argv[0], "--config", _write_config(tmp_path, doc))
    assert (code, out) == (1, "") and err.startswith("error: unknown key(s)")


def test_config_output_path_must_be_a_string(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"output": {"path": 5}})
    code, out, err = run(capsys, "steady", *BRIGHT, "--config", cfg)
    assert code == 1 and err.startswith("error:") and "path" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["figure", "fig6b", "--out", "{missing}/f.csv"],
    ["sweep", "--axis1", "delta:-1:1:3", *BRIGHT, "--out", "{missing}/cut.csv"],
    ["steady", *BRIGHT, "--out", ""],
    ["figure", "fig6b", "--out", ""],
], ids=["figure-missing-dir", "sweep-missing-dir", "steady-empty", "figure-empty"])
def test_unwritable_output_path_is_refused_before_numerics(capsys, tmp_path, monkeypatch, argv):
    # a path no file can be written to exits 1 before any point is solved, not after the grid
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append("run_sweep"))
    monkeypatch.setattr(cli, "steady_coordinates", lambda *args: calls.append("steady_coordinates"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(arg.format(missing=tmp_path / "missing") for arg in argv))
    assert (code, out, calls) == (1, "", []) and err.startswith("error: output path"), err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("gamma", ["nan", "inf", "-3", "0"])
def test_gamma_must_be_finite_and_positive(capsys, tmp_path, gamma):
    target = tmp_path / "grid.json"
    code, out, err = run(capsys, "sweep", "--axis1", "delta=5.0", "--quantity", "g2_analytic",
                         "--format", "json", "--gamma-mhz", gamma, "--out", str(target))
    assert code == 1 and err.startswith("error:") and "gamma_mhz" in err
    assert not target.exists()


# Each case: a run spelled as flags, the same run as a config document, and the
# output option, as flag and as config key, that could not act on it. No file is
# written without --out by steady, analytic or spectrum, and CSV carries no metadata.
_SPECTRUM = {"omega_m": 7, "omega_q": 7, "g": 2}
_ANALYTIC_SWEEP = ["sweep", "--axis1", "delta=5.0", "--quantity", "g2_analytic"]
IGNORED_OUTPUT_OPTIONS = {
    "steady-format": (["steady", *BRIGHT, "--format", "json"],
                      {"params": _SPLIT, "output": {"format": "json"}}, "--format", "output.format"),
    "steady-gamma": (["steady", *BRIGHT, "--format", "json", "--gamma-mhz", "3"],
                     {"params": _SPLIT, "output": {"format": "json"}, "gamma_mhz": 3}, "--gamma-mhz", "gamma_mhz"),
    "analytic-format": (["analytic", *BRIGHT, "--format", "csv"],
                        {"params": _SPLIT, "output": {"format": "csv"}}, "--format", "output.format"),
    "spectrum-format": (["spectrum", "--omega-m", "7", "--omega-q", "7", "--g", "2", "--format", "json"],
                        {"spectrum": _SPECTRUM, "output": {"format": "json"}}, "--format", "output.format"),
    "sweep-csv-gamma": ([*_ANALYTIC_SWEEP, "--gamma-mhz", "5", "--out", "grid.csv"],
                        {"sweep": {"axis1": "delta=5.0", "quantity": "g2_analytic"}, "gamma_mhz": 5,
                         "output": {"path": "grid.csv"}}, "--gamma-mhz", "gamma_mhz"),
    "sweep-stdout-gamma": ([*_ANALYTIC_SWEEP, "--format", "csv", "--gamma-mhz", "5"],
                           {"sweep": {"axis1": "delta=5.0", "quantity": "g2_analytic"}, "gamma_mhz": 5,
                            "output": {"format": "csv"}}, "--gamma-mhz", "gamma_mhz"),
    "evolve-csv-gamma": (["evolve", *BRIGHT, "--num", "3", "--gamma-mhz", "1", "--out", "path.csv"],
                         {"params": _SPLIT, "evolve": {"num": 3}, "gamma_mhz": 1, "output": {"path": "path.csv"}},
                         "--gamma-mhz", "gamma_mhz"),
    "figure-csv-gamma": (["figure", "fig7", "--gamma-mhz", "2"], {"figure": "fig7", "gamma_mhz": 2},
                         "--gamma-mhz", "gamma_mhz"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_OUTPUT_OPTIONS))
def test_output_options_that_cannot_act_are_refused(capsys, tmp_path, monkeypatch, case):
    argv, doc, flag, key = IGNORED_OUTPUT_OPTIONS[case]
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error:")
    assert flag in err and f"(config {key})" in err
    assert os.listdir(tmp_path) == []
    cfg = _write_config(tmp_path, {"job": argv[0], **doc})
    assert run(capsys, argv[0], "--config", cfg) == (1, "", err)
    assert os.listdir(tmp_path) == ["run.json"]


def test_append_flag_does_not_carry_into_next_call(capsys, tmp_path):
    argv = ["sweep", "--axis1", "g_ms=19.6", "--quantity", "g2_analytic", "--format", "json"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(capsys, *argv, "--constraint", "delta = g_ms/2", "--out", str(first))[0] == 0
    assert run(capsys, *argv, "--out", str(second))[0] == 0
    assert json.loads(first.read_text())["spec"]["constraints"] == ["delta = g_ms/2"]
    assert json.loads(second.read_text())["spec"]["constraints"] == []


def _readme_block(lang, section=""):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = readme.split(f"## {section}\n", 1)[1] if section else readme
    return readme.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_block_runs(capsys, tmp_path, monkeypatch):
    block = _readme_block("sh", "Command line").replace("\\\n", " ")
    commands = [line for line in block.split("\n") if line.startswith("mbl ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"
    for name in ("cut.csv", "fig5a.csv", "path.csv"):
        assert (tmp_path / name).exists()


def test_readme_config_example_runs(capsys, tmp_path, monkeypatch):
    example = _readme_block("json")
    (tmp_path / "run.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", "run.json")
    assert code == 0, err
    out_path = json.loads(example)["output"]["path"]
    lines = (tmp_path / out_path).read_text().strip().split("\n")
    assert lines[0] == "delta,log10_g2_numeric,log10_g2_analytic"
    assert len(lines) == 202


def test_readme_python_example_runs(capsys):
    exec(compile(_readme_block("python"), "README.md", "exec"), {})
    numeric, analytic = (float(v) for v in capsys.readouterr().out.split())
    # the README point is the bright oracle point of test_lindblad
    assert numeric == pytest.approx(6.4228867049889608e-8, rel=1e-10)
    assert analytic == pytest.approx(5.4846741311821754e-8, rel=1e-12)


# ------------------------------------------------------------------- misc

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


# main hands a command's arguments to that command's parser alone; each case
# spells flags both as `--flag value` and `--flag=value`, with a negative exponent
DISPATCH = {
    "steady": ["--delta", "-3e-05", "--g-ms=19.6", "--fock-dim", "3", "--out", "steady.csv"],
    "evolve": ["--t-end=5", "--num", "3", "--omega-d", "-1E+2", "--format=json"],
    "sweep": ["--axis1", "g_ms:1:30:5", "--constraint", "delta = g_ms/2", "--constraint=omega_d = 0.01",
              "--quantity=g2_analytic"],
    "figure": ["fig7", "--format=json", "--gamma-mhz", "3"],
    "spectrum": ["--omega-m", "7", "--omega-q=-.5", "--g", "2", "--n-max=3"],
    "analytic": [*BRIGHT, "--kappa=-3e-05"],
}


@pytest.fixture
def reached(monkeypatch):
    """The options each command receives from `main`; every command is stubbed to exit 0."""
    seen = []
    for command in _COMMANDS:
        monkeypatch.setitem(_COMMANDS, command, lambda opts, *output: seen.append(opts) or 0)
    return seen


@pytest.mark.parametrize("command", DISPATCH)
def test_main_reaches_what_the_parser_reaches(reached, tmp_path, command):
    parser = build_parser()[0]
    argv = [command, *DISPATCH[command]]
    cfg = _write_config(tmp_path, {"job": command, "output": {"path": "from-config.csv"}})
    for each in (argv, [*argv, "--config", cfg], [command, "--config", cfg]):
        assert main(each) == 0
        flags = vars(parser.parse_args(each))
        config = load_config(cfg) if "--config" in each else {}
        config.pop("job", None)
        # the same options, in the same order
        assert list(reached.pop().items()) == list({**config, **flags}.items())
        assert flags["command"] == command


# values a flag may meet: numbers the widened pattern reads as values, strings argparse takes
# as flags or separators, values a type rejects, and one more flag (None)
DRAWN_VALUES = ["1", "-3e-05", "-1E+2", "-.5", "", "-", "--", "abc", "-e5", "nan", " 2 ", "1_0", "-1_0", "-inf", None]


def test_flag_table_reads_what_the_parser_reads(reached, capsys, monkeypatch):
    # every reached option and every usage error is argparse's, whichever reader took the line
    monkeypatch.setattr(cli, "load_config", lambda path: {})
    monkeypatch.setattr(cli, "_output", lambda command, opts: (None, "csv", None))
    parser, commands = build_parser()
    rng = random.Random(26)
    for _ in range(6000):
        command = rng.choice(list(commands))
        flags = [flag for flag in commands[command]._option_string_actions if flag not in ("-h", "--help")]
        flags = [*rng.sample(flags, 2), "--frobnicate"]  # few flags, so repeats are common
        argv = [command]
        for _ in range(rng.randint(0, 4)):
            value = rng.choice(DRAWN_VALUES)
            argv += [rng.choice(flags), rng.choice(flags) if value is None else value]
        if rng.random() < 0.2:
            argv.append(rng.choice(flags))
        try:
            expected = {"command": command, **vars(parser.parse_args(argv))}
        except ParameterError as exc:
            assert run(capsys, *argv) == (1, "", f"error: {exc}\n"), argv
            assert not reached
            continue
        assert main(argv) == 0, argv
        # by repr, since nan != nan
        assert repr(list(reached.pop().items())) == repr(list(expected.items())), argv


def test_flag_tables_hold_every_option():
    # a flag the table lacks would send every command line that uses it through argparse
    for command, sub in build_parser()[1].items():
        options = {flag: action for flag, action in sub._option_string_actions.items() if flag not in ("-h", "--help")}
        assert sorted(_flag_tables()[command]) == sorted(options)
        for flag, (dest, kind, append) in _flag_tables()[command].items():
            action = options[flag]
            assert action.nargs is None and type(action) is (argparse._AppendAction if append else argparse._StoreAction)
            assert (dest, kind) == (action.dest, action.type)


@pytest.mark.parametrize("argv, message", [
    (["steady", "--frobnicate", "3"], "unrecognized arguments: --frobnicate 3"),
    (["analytic", *BRIGHT, "--kappa"], "argument --kappa: expected one argument"),
    ([], "the following arguments are required: command"),
    (["frobnicate", "--delta", "1"], "argument command: invalid choice: 'frobnicate'"),
], ids=["unknown-flag", "missing-value", "no-command", "unknown-command"])
def test_usage_errors_are_the_parsers(capsys, argv, message):
    with pytest.raises(ParameterError) as info:
        build_parser()[0].parse_args(argv)
    assert run(capsys, *argv) == (1, "", f"error: {info.value}\n")
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("command", DISPATCH)
def test_command_help_is_the_parsers(capsys, command):
    with pytest.raises(SystemExit) as info:
        build_parser()[0].parse_args([command, "--help"])
    expected = capsys.readouterr()
    assert info.value.code == 0 and expected.out.startswith(f"usage: mbl {command} ")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0 and capsys.readouterr() == expected


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    for argv in (["analytic", *BRIGHT], ["steady", "--frobnicate", "3"], []):
        monkeypatch.setattr(sys, "argv", ["mbl", *argv])
        from_sys = main(None), *capsys.readouterr()
        assert from_sys == run(capsys, *argv)


def test_negative_number_pattern_is_widened():
    # argparse tells a negative number from a flag by this private attribute; the parser replaces it
    assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)
    parser, commands = build_parser()
    for each in (parser, *commands.values()):
        for token in ("-3e-05", "-1_0", "-inf", "-nan", "-Infinity"):
            assert each._negative_number_matcher.match(token)
        for token in ("-e5", "-", "--1", "-1__0", "-infinite", "--delta", "-h", "1"):
            assert not each._negative_number_matcher.match(token)
    # a real unknown flag still fails, also before a negative value
    for argv in (["steady", "--frobnicate", "-3e-05"], ["steady", "-3e-05"]):
        with pytest.raises(ParameterError, match="unrecognized arguments"):
            parser.parse_args(argv)


@pytest.mark.parametrize("command", ["steady", "evolve", "sweep", "figure", "spectrum", "analytic"])
def test_float_flags_take_negative_exponent_values(command):
    parser, commands = build_parser()
    actions = [action for action in commands[command]._actions if action.type is float]
    assert actions
    for action in actions:
        flag = action.option_strings[0]
        for value in ("-3e-05", "-1E+2", "-.5"):
            spaced = vars(parser.parse_args([command, flag, value]))
            assert spaced == vars(parser.parse_args([command, f"{flag}={value}"]))
            assert spaced == {"command": command, action.dest: float(value)}


@pytest.mark.parametrize("value", ["-1_0", "-inf", "-nan", "-Infinity"])
def test_spaced_negative_value_is_read_as_joined(capsys, value):
    # a `-` token that float() reads is a value in both spellings: one exit code, stdout and stderr
    spaced = run(capsys, "analytic", *BRIGHT[2:], "--delta", value)
    assert spaced == run(capsys, "analytic", *BRIGHT[2:], f"--delta={value}")
    # -1_0 is δ = -10; the others reach the finiteness check, not argparse's "expected one argument"
    assert spaced[0] == 0 if value == "-1_0" else spaced == (1, "", f"error: delta_m must be a finite real number, got {float(value)}\n")


def test_runtime_needs_no_scipy(tmp_path):
    # every subcommand that computes runs with scipy blocked from import
    fig7 = tmp_path / "fig7.csv"
    runs = [["steady", *BRIGHT], ["analytic", *BRIGHT],
            ["sweep", "--axis1", "delta:-1:1:3", "--quantity", "both_g2", *BRIGHT[2:]],
            ["evolve", *BRIGHT, "--t-end", "1", "--num", "3"],
            ["figure", "fig7", "--out", str(fig7)]]
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from mbl.cli import main\n"
              f"print([main(argv) for argv in {runs!r}])\n")
    src = str(Path(mbl.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "[0, 0, 0, 0, 0]"
    assert len(fig7.read_text().strip().split("\n")) == 1002
