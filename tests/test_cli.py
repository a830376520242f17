"""Command-line behavior: flags, configs, outputs, exit codes."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbl
from mbl.cli import main

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


# ---------------------------------------------------------------- analytic

def test_analytic_landmark_point(capsys):
    code, out, err = run(capsys, "analytic", *BRIGHT)
    assert code == 0 and err == ""
    vals = mapping(out)
    assert vals["log10_g2_analytic"] == pytest.approx(-7.26084917068, abs=1e-9)
    assert vals["optimal_delta_plus"] == 9.8
    assert vals["optimal_delta_minus"] == -9.8
    assert vals["c_g1_re"] == pytest.approx(-0.00102039322, abs=1e-9)
    assert vals["c_g1_im"] == pytest.approx(0.133329428767, abs=1e-9)


def test_analytic_rejects_beam_splitter_layout(capsys):
    code, out, err = run(capsys, "analytic", "--scenario", "B",
                         "--g-ms-tilde", "50.1", "--omega-d", "0.01")
    assert code == 1
    assert err.startswith("error:")


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
    assert lines[0].split() == ["n", "branch", "energy", "c_g_n", "c_e_nm1"]
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


def test_figure_rejects_parameter_flags(capsys):
    code, _, err = run(capsys, "figure", "fig5a", "--delta", "3.0")
    assert code == 1
    assert "canonical" in err


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
    "analytic": ({"params": _SPLIT, "gamma_mhz": None, "sweep": None}, BRIGHT),  # null = absent
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
    # model parameters are checked for every subcommand, also where unused
    ("figure", {"figure": "fig7", "params": {"kappa_m": "x"}}),
    ("spectrum", {"params": {"kappa_m": -1}, "spectrum": {"omega_m": 7, "omega_q": 7, "g": 2}}),
])
def test_config_rejects_malformed_values(capsys, tmp_path, command, doc):
    code, out, err = run(capsys, command, "--config", _write_config(tmp_path, doc))
    assert code == 1 and err.startswith("error:")
    assert out == ""  # rejected before any numerics ran


def test_config_output_path_must_be_a_string(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"output": {"path": 5}})
    code, out, err = run(capsys, "steady", *BRIGHT, "--config", cfg)
    assert code == 1 and err.startswith("error:") and "path" in err
    assert out == ""


@pytest.mark.parametrize("gamma", ["nan", "inf", "-3", "0"])
def test_gamma_must_be_finite_and_positive(capsys, tmp_path, gamma):
    target = tmp_path / "grid.json"
    code, out, err = run(capsys, "sweep", "--axis1", "delta=5.0", "--quantity", "g2_analytic",
                         "--format", "json", "--gamma-mhz", gamma, "--out", str(target))
    assert code == 1 and err.startswith("error:") and "gamma_mhz" in err
    assert not target.exists()


def test_append_flag_does_not_carry_into_next_call(capsys, tmp_path):
    argv = ["sweep", "--axis1", "g_ms=19.6", "--quantity", "g2_analytic", "--format", "json"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(capsys, *argv, "--constraint", "delta = g_ms/2", "--out", str(first))[0] == 0
    assert run(capsys, *argv, "--out", str(second))[0] == 0
    assert json.loads(first.read_text())["spec"]["constraints"] == ["delta = g_ms/2"]
    assert json.loads(second.read_text())["spec"]["constraints"] == []


def test_readme_config_example_runs(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", "run.json")
    assert code == 0, err
    out_path = json.loads(example)["output"]["path"]
    lines = (tmp_path / out_path).read_text().strip().split("\n")
    assert lines[0] == "delta,log10_g2_numeric,log10_g2_analytic"
    assert len(lines) == 202


# ------------------------------------------------------------------- misc

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_no_subcommand_fails(capsys):
    code = main([])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_fails(capsys):
    code = main(["steady", "--frobnicate", "3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
