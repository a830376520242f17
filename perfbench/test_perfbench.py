"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, _covered  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_argv(name, tmp_path):
    a = workloads.build(name, 7, str(tmp_path))
    b = workloads.build(name, 7, str(tmp_path))
    c = workloads.build(name, 8, str(tmp_path))
    assert (a.main, a.probes, a.ops_per_pass) == (b.main, b.probes, b.ops_per_pass)
    assert a.main != c.main and a.probes != c.probes
    assert a.ops_per_pass == c.ops_per_pass


def test_metric_names_and_benchmark_file():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _outputs(wl) -> list[str]:
    return [argv[argv.index("--out") + 1] for argv in wl.main]


def _scale_values(path: str, factor: float) -> None:
    """Multiply every g2 in a CSV or JSON grid output by `factor`; the files hold log10 g2."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        doc = json.loads(text)
        doc["values"] = [[None if v is None else v + math.log10(factor) for v in row] for row in doc["values"]]
        Path(path).write_text(json.dumps(doc))
        return
    lines = text.strip("\n").split("\n")
    logged = [k for k, col in enumerate(lines[0].split(",")) if col.startswith("log10_")]
    out = [lines[0]]
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        for k in logged:
            cells[k] += math.log10(factor)
        out.append(",".join(repr(v) for v in cells))
    Path(path).write_text("\n".join(out) + "\n")


@pytest.fixture(scope="module")
def cli():
    import mbl.cli

    return mbl.cli


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_checks_and_rejects_perturbation(name, cli, tmp_path):
    wl = workloads.build(name, 3, str(tmp_path))
    res = worker.run_passes(cli, wl, passes=1)
    assert res["problems"] == []
    assert res["attempted"] == wl.ops_per_pass
    assert res["expected_failures"] == (5 if name == "steady_map" else 0)
    assert wl.check([]).problems == []
    for path in _outputs(wl):
        _scale_values(path, 1.05)
    assert wl.check([]).problems


def test_checker_rejects_bad_probe(cli, tmp_path):
    wl = workloads.build("steady_map", 3, str(tmp_path))
    for argv in wl.main:
        assert worker.call(cli, argv)[0] == 0
    probe_out = [worker.call(cli, argv)[1] for argv in wl.probes[:3]]
    probe_out[1] = probe_out[1].replace("residual = ", "residual = 1e-3 #")
    problems = wl.check(probe_out).problems
    assert len(problems) == 1 and problems[0].startswith("steady probe 1")


def test_tracer_counts_repeat_and_uninstall_restores(cli, tmp_path):
    import mbl.sweep

    original = (cli.main, mbl.sweep.steady_state, mbl.sweep.SweepSpec.params_at)
    argv = ["sweep", "--axis1", "delta:-1:1:3", "--axis2", "omega_d=0,0.01", "--quantity", "g2_numeric",
            "--scenario", "B", "--out", str(tmp_path / "g.csv")]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        assert cli.main(argv) == 0
        tracer.uninstall()
        agg = tracer.aggregate()
        counts.append({name: a["calls"] for name, a in agg.items()} | dict(tracer.counters))
        assert agg["sweep.params_at"]["calls"] == 6
        assert agg["lindblad.steady_state"]["calls"] == 6
        assert agg["lindblad.g2_zero"]["calls"] == 6
        assert tracer.counters["output.bytes"] == len((tmp_path / "g.csv").read_bytes())
        main = agg["cli.main"]
        assert 0 < main["self_s"] < main["total_s"]
    assert counts[0] == counts[1]
    assert (cli.main, mbl.sweep.steady_state, mbl.sweep.SweepSpec.params_at) == original


def test_covered_merges_overlaps_and_clips():
    assert _covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert _covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert _covered([], 0.0, 1.0) == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "steady_map", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
