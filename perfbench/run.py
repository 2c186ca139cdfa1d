"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_table1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, the same three on every workload;
with ``--trace 1`` the public calls into each layer are wrapped in spans and
the metrics are the per-layer self times and counters (see
``perfbench/README.md``).  A human-readable table, with the workload's finer
figures, goes to standard error.  ``all`` runs each workload in its own
process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_table1", "population_sweep", "serve_churn")

#: Single-threaded BLAS: the workloads use one compute thread each (the
#: serve workload adds the server thread), so figures do not depend on how
#: many cores a shared machine happens to leave free.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another; one merged line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            if not lines:
                continue
        outcome = json.loads(lines[-1])
        print(f"{workload}: {lines[-1]}")
        merged["correct"] = merged["correct"] and outcome["correct"]
        merged["attempted"] += outcome["attempted"]
        merged["failed"] += outcome["failed"]
        for name, metric in outcome["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if status:
        return status
    print(json.dumps(merged, separators=(", ", ": ")))
    return 0


def run_one(args: argparse.Namespace) -> int:
    from perfbench import wl_serve, wl_sweep, wl_table1
    from perfbench.harness import OUTPUT_DIR, CheckFailed, RunContext, RunResult, private_scratch
    from perfbench.tracing import (
        Patcher,
        Tracer,
        install_layers,
        layer_metrics,
        overhead_pct,
        summarize,
        traced_round_count,
    )

    module = {
        "paper_table1": wl_table1,
        "population_sweep": wl_sweep,
        "serve_churn": wl_serve,
    }[args.workload]

    tracer = patcher = None
    if args.trace:
        tracer, patcher = Tracer(), Patcher()
        install_layers(tracer, patcher)
    with private_scratch(ROOT, args.workload) as scratch:
        ctx = RunContext(args.seed, args.seconds, scratch)
        try:
            result = module.run(ctx, tracer)
        except CheckFailed as exc:
            print(f"perfbench: {args.workload}: output check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
        finally:
            if patcher is not None:
                patcher.undo()

    speed = ctx.speed.samples
    slowdown = ctx.speed.slowdown()
    result.notes.append(
        f"speedometer: {len(speed)} ticks, the reference loop took {min(speed):.2f}x to "
        f"{max(speed):.2f}x its nominal time (mean {slowdown:.2f}x); every time and "
        "rate above is divided by that mean"
    )
    result.notes.append(
        "set-ups took " + ", ".join(f"{t:.2f}" for t in ctx.setup_times) + " s of wall time")
    result.scale_to_nominal(slowdown)
    if tracer is not None:
        traced_rounds = max(1, traced_round_count(len(result.round_walls)))
        overhead = overhead_pct(result.round_walls)
        if overhead is not None:
            result.derived["trace.overhead_pct"] = overhead
        result.derived["trace.spans"] = len(tracer.spans) / traced_rounds
        end_to_end = result.render()
        layered = RunResult(result.correct, result.attempted, result.failed)
        for name, value, unit in layer_metrics(tracer, 1, traced_rounds, result.derived):
            layered.add(name, value, unit)
        layered.scale_to_nominal(slowdown)
        layered.notes.append(f"per-layer times are divided by the run's mean {slowdown:.2f}x")
        spans_path = ROOT / OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"end-to-end figures of this traced run:\n{end_to_end}", file=sys.stderr)
        print(f"self time by span, round phase, all traced rounds:\n{summarize(tracer)}",
              file=sys.stderr)
        print(f"{len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
        result = layered
    print(result.render(), file=sys.stderr)
    print(result.to_json(), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - report any crash without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
