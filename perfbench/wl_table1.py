"""``paper_table1``: the paper's Table 1 at full durations, three ways.

Set-up trains the REPTree predictor from the pipeline, as ``repro table1``
does.  Each round (timed as ``round_s``) then produces the 13 x {ondemand, USTA @ 37 °C} table in
memory, streamed into a fresh shard directory, and resumed from that
directory with every cell answered from disk.
"""

from __future__ import annotations

import gc
import shutil
import time

from . import checks
from .harness import (
    RunContext,
    RunResult,
    median,
    peak_rss_mb,
    repeated_setup,
    timed_rounds,
)
from .tracing import Tracer, begin_round, end_round, min_rounds


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _rounds(ctx: RunContext, tracer: Tracer):
    """Round 0 warms up before the clock of ``--seconds`` starts.

    A round takes about 8 s, so with the warm-up inside ``--seconds`` a
    30-second run measured only two rounds, and ``round_s`` spread by 0.18
    over ten seeds.
    """
    yield 0
    for index in timed_rounds(ctx.deadline(), min_rounds(tracer) - 1):
        yield index + 1


def run(ctx: RunContext, tracer: Tracer = None) -> RunResult:
    from repro.analysis.context import ReproductionContext
    from repro.analysis.paper_data import PAPER_TABLE1
    from repro.analysis.table1 import reproduce_table1
    from repro.workloads.benchmarks import BENCHMARK_NAMES

    result = RunResult()
    setup_s, context = repeated_setup(ctx, tracer, lambda: ReproductionContext.build(
        seed=ctx.seed, duration_scale=1.0, model_name="reptree"))
    records = context.training_data.num_records

    cell_ids = [f"{name}/{scheme}" for name in BENCHMARK_NAMES for scheme in ("baseline", "usta")]
    legs = {"memory": [], "stream": [], "resume": []}
    round_times, warmup_s, reference = [], None, None
    for index in _rounds(ctx, tracer):
        gc.collect()
        ctx.speed.tick()
        begin_round(tracer, index)
        round_start = time.perf_counter()
        start = time.perf_counter()
        rows = reproduce_table1(context)
        timed = {"memory": time.perf_counter() - start}
        ctx.speed.tick()
        store = ctx.fresh_dir("table1-stream") / "store"
        start = time.perf_counter()
        streamed = reproduce_table1(context, stream_to=store)
        timed["stream"] = time.perf_counter() - start
        if tracer is not None:
            tracer.count("streamstore.bytes_written", _dir_bytes(store))
            tracer.count("streamstore.bytes_read",
                          sum(p.stat().st_size for p in store.glob("shard-*.jsonl")))
        ctx.speed.tick()
        start = time.perf_counter()
        resumed = reproduce_table1(context, stream_to=store, resume=True)
        timed["resume"] = time.perf_counter() - start
        result.round_walls.append(time.perf_counter() - round_start)
        if index > 0:  # round 0 warms up
            for leg, seconds in timed.items():
                legs[leg].append(seconds)
            round_times.append(sum(timed.values()))
        else:
            warmup_s = sum(timed.values())
        result.attempted += 3
        end_round(tracer)

        if reference is None:
            # Round 0's shards are re-parsed; later rounds must reproduce
            # the figures read off them.
            reference = checks.shard_cell_figures(store)
            checks.check_cell_set(reference, cell_ids)
            checks.check_usta_lowers_peak(rows)
        checks.check_legs_match(reference, {
            "in-memory": checks.table_figures(rows),
            "streamed": checks.table_figures(streamed),
            "resumed": checks.table_figures(resumed),
        })
        shutil.rmtree(store.parent, ignore_errors=True)
        if index == 1:
            peak_mb = peak_rss_mb()

    errors = []
    for row in rows:
        paper = PAPER_TABLE1[row.benchmark]
        errors.append(abs(row.baseline_max_skin_c - paper.baseline_max_skin_c))
        errors.append(abs(row.usta_max_skin_c - paper.usta_max_skin_c))

    result.add_end_to_end(setup_s, round_times, peak_mb)
    result.detail("table1_s", median(legs["memory"]), "s")
    result.detail("table1_stream_s", median(legs["stream"]), "s")
    result.detail("table1_resume_s", median(legs["resume"]), "s")
    result.detail("table1_skin_error_c", sum(errors) / len(errors), "degC")
    result.notes.append(
        f"{len(result.round_walls)} round(s) of 3 tables x {len(cell_ids)} cells; "
        f"predictor trained on {records} records; the warm-up round took {warmup_s:.2f} s "
        "and the measured ones " + ", ".join(f"{seconds:.2f}" for seconds in round_times)
        + " s of wall time"
    )
    return result
