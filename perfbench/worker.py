"""One benchmark worker process; run.py starts it and reads its last stdout line.

Modes:
  setup   import mbl.cli, generate inputs, make one warm-up call, report setup time
  measure setup, then timed passes for --seconds, checking each pass's outputs
  trace   measure for half of --seconds, then TRACE_PASSES passes with every
          layer function wrapped
  pinned  one traced pass; run.py starts it with BLAS and MBL_THREADS pinned to 1

The mbl CLI runs in-process through `mbl.cli.main(argv)`; what it prints is
captured per call, so this process's own stdout carries only the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_PASSES = 2
MIN_PASSES = 2


def call(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    if rc != 0:
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


def run_passes(cli, wl, seconds: float | None = None, passes: int | None = None, tracer=None) -> dict:
    """Timed passes until `seconds` of pass time (at least MIN_PASSES) or exactly `passes`.

    With a tracer, only the passes are traced; the output checks, which call
    the same mbl functions, run with the originals restored.
    """
    walls: list[float] = []
    latencies: list[float] = []
    problems: list[str] = []
    expected_failures = 0
    while True:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        outputs = [call(cli, argv) for argv in wl.main]
        probe_out = []
        for argv in wl.probes:
            t = time.perf_counter()
            probe_out.append(call(cli, argv))
            latencies.append(time.perf_counter() - t)
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        for k, (rc, text) in enumerate(outputs + probe_out):
            if rc != 0:
                problems.append(f"call {k} exited {rc}: {text.strip()[-300:]}")
        outcome = wl.check([text for _, text in probe_out])
        problems += outcome.problems
        expected_failures += outcome.expected_failures
        if passes is not None:
            if len(walls) >= passes:
                break
        elif sum(walls) >= seconds and len(walls) >= MIN_PASSES:
            break
    return {"walls": walls, "latencies": latencies, "problems": problems,
            "expected_failures": expected_failures, "attempted": wl.ops_per_pass * len(walls)}


def layer_metrics(tracer, passes: int, ops_per_pass: int) -> dict[str, float]:
    """`<module>.<function>.<stat>` per span name, per pass unless the stat says otherwise."""
    out: dict[str, float] = {}
    for name, agg in tracer.aggregate().items():
        calls = agg["calls"] / passes
        out[f"{name}.calls"] = int(calls) if calls == int(calls) else calls
        out[f"{name}.calls_per_op"] = calls / ops_per_pass
        out[f"{name}.us_per_call"] = agg["total_s"] / agg["calls"] * 1e6
        out[f"{name}.ms"] = agg["total_s"] / passes * 1e3
        out[f"{name}.self_ms"] = agg["self_s"] / passes * 1e3
    counters = tracer.counters
    written = counters.get("output.bytes", 0) / passes
    out["output.bytes"] = int(written) if written == int(written) else written
    solve_s = out.get("lindblad.steady_state.ms", 0.0) * passes / 1e3
    if solve_s > 0:
        out["lindblad.steady_state.gflops_computed"] = counters["lindblad.steady_state.flops"] / solve_s / 1e9
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "pinned"), default="measure")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--t-spawn", type=float, default=None, help="perf_counter() of the parent at spawn")
    parser.add_argument("--spans", default=None, help="write the traced spans to this file")
    args = parser.parse_args(argv)
    t_spawn = T_START if args.t_spawn is None else args.t_spawn

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    t0 = time.perf_counter()
    import mbl.cli as cli

    import_s = time.perf_counter() - t0
    wl = workloads.build(args.workload, args.seed, args.outdir)
    rc, text = call(cli, wl.warmup)
    if rc != 0:
        raise SystemExit(f"warm-up call failed with exit {rc}: {text[-300:]}")
    result: dict = {"setup_s": time.perf_counter() - t_spawn, "import_s": import_s}

    if args.mode in ("trace", "pinned"):
        from tracer import Tracer

        tracer = Tracer()
    if args.mode == "pinned":
        traced = run_passes(cli, wl, passes=1, tracer=tracer)
        result["layers"] = layer_metrics(tracer, 1, wl.ops_per_pass)
        result["problems"] = traced["problems"]
    elif args.mode in ("measure", "trace"):
        # the untraced passes of a traced run only set the base of trace.overhead_frac
        timed = run_passes(cli, wl, seconds=args.seconds if args.mode == "measure" else args.seconds / 2)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(timed)
        if args.mode == "trace":
            traced = run_passes(cli, wl, passes=TRACE_PASSES, tracer=tracer)
            layers = layer_metrics(tracer, TRACE_PASSES, wl.ops_per_pass)
            layers["cli.import_ms"] = import_s * 1e3
            layers["trace.overhead_frac"] = statistics.fmean(traced["walls"]) / statistics.fmean(timed["walls"]) - 1.0
            result["layers"] = layers
            result["problems"] = timed["problems"] + traced["problems"]
            result["traced_walls"] = traced["walls"]
            if args.spans:
                tracer.dump(args.spans)
        from environment import environment

        result["environment"] = environment(ROOT)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
