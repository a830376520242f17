"""Benchmark of the mbl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload steady_map --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory. Each run starts fresh worker processes (worker.py) without
MBL_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, so
the numbers show library defaults whatever the caller's environment holds.

--trace 0 reports the end-to-end metrics: the median set-up time of five
fresh workers, then timed passes of the workload for --seconds.
--trace 1 reports the per-layer metrics: untraced passes for half of
--seconds, then traced passes with every public function of the layer
modules wrapped, and on steady_map a pass in a worker with BLAS and
MBL_THREADS pinned to 1.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The full record (environment block, samples, problems)
goes to perfbench/out/. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from environment import THREAD_VARS, thread_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "point_ms.p50": "ms",
    "point_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_ms": "ms",
    "cli.import_ms": "ms",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.params_at.calls": "count",
    "sweep.params_at.us_per_call": "us",
    "model.build_h_eff.us_per_call": "us",
    "core.annihilation.calls_per_op": "count/op",
    "core.qubit_ops.calls_per_op": "count/op",
    "lindblad.build_liouvillian.us_per_call": "us",
    "lindblad.steady_state.calls": "count",
    "lindblad.steady_state.us_per_call": "us",
    "lindblad.steady_state.us_per_call.1t": "us",
    "lindblad.steady_state.gflops_computed": "GFLOP/s",
    "lindblad.g2_zero.us_per_call": "us",
    "lindblad.fock_populations.us_per_call": "us",
    "analytic.analytic_g2.calls": "count",
    "analytic.analytic_g2.us_per_call": "us",
    "output.grid_json.ms": "ms",
    "output.grid_csv.ms": "ms",
    "output.write_text.ms": "ms",
    "output.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    "point_ms.p95": "ms",
}

SETUP_WORKERS = 4  # set-up-only workers; the measuring worker adds a fifth sample
TIME_LIMIT_S = 170.0
PINNED_WORKLOAD = "steady_map"


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args, outdir: Path, env: dict, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--mode", mode, "--outdir", str(outdir), *extra]
    remaining = deadline - time.monotonic()
    if remaining < 1.0:
        raise WorkerError(f"no time left for the {mode} worker")
    cmd += ["--t-spawn", repr(time.perf_counter())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], res: dict, vigintiles_ms: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        # the mean pass: slow stretches of a shared host last several passes, and over ten seeds
        # the mean spread less than the median did
        "wall_s": statistics.fmean(res["walls"]),
        "ops_per_s": res["attempted"] / sum(res["walls"]),
        "point_ms.p50": vigintiles_ms[9],
        "point_ms.p90": vigintiles_ms[17],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mbl" / "cli.py").is_file():
        print(f"error: no mbl sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    outdir = HERE / "out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "thread_env_caller": thread_env()}
    try:
        setups = []
        if not args.trace:
            setups = [spawn("setup", args, workdir, env, deadline)["setup_s"] for _ in range(SETUP_WORKERS)]
        extra = ("--spans", str(outdir / f"spans-{args.workload}.json")) if args.trace else ()
        res = spawn("trace" if args.trace else "measure", args, workdir, env, deadline, extra)
        setups.append(res["setup_s"])
        pinned = None
        if args.trace and args.workload == PINNED_WORKLOAD:
            pinned_env = dict(env, **{name: "1" for name in THREAD_VARS})
            pinned = spawn("pinned", args, workdir, pinned_env, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = res["problems"] + (pinned["problems"] if pinned else [])
    vigintiles_ms = [x * 1e3 for x in statistics.quantiles(res["latencies"], n=20)]
    fail_frac = (res["expected_failures"] + len(problems)) / res["attempted"]
    if args.trace:
        # p95 lands between 4 ms scheduler ticks under default BLAS threads, too unsteady for a bound
        layers = dict(res["layers"], fail_frac=fail_frac, **{"point_ms.p95": vigintiles_ms[18]})
        if pinned:
            layers["lindblad.steady_state.us_per_call.1t"] = pinned["layers"].get("lindblad.steady_state.us_per_call", 0.0)
        # a function the workload never calls reports 0
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = end_to_end(setups, res, vigintiles_ms)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = not problems
    record.update(environment=res["environment"], setup_samples_s=setups, pass_walls_s=res["walls"],
                  traced_pass_walls_s=res.get("traced_walls"), attempted=res["attempted"],
                  latency_ms_vigintiles=vigintiles_ms,
                  expected_failures=res["expected_failures"], fail_frac=fail_frac, problems=problems[:50],
                  all_layers=res.get("layers"), metrics=metrics)
    record_path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems[:10]:
        print(f"check failed: {line}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": min(len(problems), res["attempted"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
