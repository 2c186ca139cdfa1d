"""``population_sweep``: ~1,500 managed members held in memory.

Members cycle the ten paper users over six traces, each with its own
platform seed.  Every member runs USTA + ``quantile_tracker`` with its
simulated user's feedback on the trained ``linear_regression`` recipe (which
rides the vectorized policy plane), through ``BatchRunner.for_jobs(None)``.
Each round (timed as ``round_s``) runs the plan and builds the ``repro
sweep`` table row of every member.
"""

from __future__ import annotations

import gc
import os
import random
import time

from . import checks
from .harness import (
    RunContext,
    RunResult,
    check,
    median,
    peak_rss_mb,
    repeated_setup,
    timed_rounds,
)
from .tracing import Tracer, begin_round, end_round, min_rounds

MEMBERS = 1500
#: (benchmark, duration in seconds) — the ROADMAP's mixed-trace sweep shape.
TRACES = (
    ("skype", 600.0),
    ("youtube", 480.0),
    ("antutu_tester", 360.0),
    ("gfxbench", 300.0),
    ("game", 420.0),
    ("record", 240.0),
)
RECIPE = {"model": "linear_regression"}
#: Members re-run alone through the scalar engine each run.
SERIAL_SAMPLES = 8


def sweep_row(result, skin_limit_c: float) -> tuple:
    """The numbers one ``repro sweep`` table row prints for a member."""
    records = result.records
    return (
        len(result),
        records[-1].comfort_limit_c if records else None,
        result.max_skin_temp_c,
        result.percent_time_over(skin_limit_c),
        result.average_frequency_ghz,
        result.usta_active_fraction,
    )


def _setup(ctx: RunContext):
    """Traces, plan and a cold linear recipe in a fresh artifact directory."""
    from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec, PredictorSpec
    from repro.core.predictor import reset_predictor_caches
    from repro.runtime import ExperimentCell, ExperimentPlan
    from repro.users.population import paper_population
    from repro.workloads.benchmarks import build_benchmark

    reset_predictor_caches()
    os.environ["REPRO_ARTIFACT_DIR"] = str(ctx.fresh_dir("artifacts"))
    traces = [
        build_benchmark(name, seed=ctx.seed * 31 + k, duration_s=duration)
        for k, (name, duration) in enumerate(TRACES)
    ]
    recipe = PredictorSpec("trained", params=dict(RECIPE))
    recipe.build()
    users = list(paper_population())
    plan = ExperimentPlan()
    for index in range(MEMBERS):
        profile = users[index % len(users)]
        platform_seed = ctx.seed * 100_000 + index
        policy = PolicySpec(
            governor=GovernorSpec("ondemand"),
            manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}, predictor=recipe),
            adapter=AdapterSpec(
                "quantile_tracker",
                feedback={"report_period_s": 10.0, "seed": platform_seed},
            ),
            label="usta+quantile_tracker",
        ).for_user(profile)
        plan.add(
            ExperimentCell(
                cell_id=f"m{index:05d}",
                trace=traces[(index // len(users)) % len(traces)],
                policy=policy,
                seed=platform_seed,
                metadata={"user_id": profile.user_id, "limit_c": profile.skin_limit_c},
            )
        )
    return plan


def run(ctx: RunContext, tracer: Tracer = None) -> RunResult:
    from repro.runtime import BatchRunner, ExperimentPlan
    from repro.runtime.executors import SerialExecutor
    from repro.runtime.plane_kernels import manager_vectorization_ineligibility

    result = RunResult()
    setup_s, plan = repeated_setup(ctx, tracer, lambda: _setup(ctx))
    cells = list(plan)
    reason = manager_vectorization_ineligibility(cells[0].build_manager())
    check(reason is None, f"sweep members are off the policy plane: {reason}")

    round_times, reference_rows = [], None
    runner = BatchRunner.for_jobs(None)
    for index in timed_rounds(ctx.deadline(), min_rounds(tracer)):
        gc.collect()
        ctx.speed.tick()
        begin_round(tracer, index)
        start = time.perf_counter()
        store = runner.run(plan)
        elapsed = time.perf_counter() - start
        ctx.speed.tick()
        start = time.perf_counter()
        rows = {}
        for entry in store:
            rows[entry.cell.cell_id] = sweep_row(entry.result, entry.cell.metadata["limit_c"])
        elapsed += time.perf_counter() - start
        end_round(tracer)
        result.round_walls.append(elapsed)
        if index > 0:  # round 0 warms up (the process heap grows to its peak)
            round_times.append(elapsed)
        result.attempted += len(cells)

        if reference_rows is None:
            reference_rows = rows
            for entry in store:
                records = entry.result.records
                checks.check_caps_respected(
                    entry.cell.cell_id,
                    [r.frequency_level for r in records],
                    [r.level_cap for r in records],
                )
            sampled = random.Random(ctx.seed).sample(range(len(cells)), SERIAL_SAMPLES)
            serial = {}
            for cell_index in sampled:
                cell = cells[cell_index]
                alone = BatchRunner(SerialExecutor()).run(ExperimentPlan([cell]))
                serial[cell.cell_id] = sweep_row(
                    alone.result_of(cell.cell_id), cell.metadata["limit_c"])
            checks.check_rows_identical(rows, serial)
        else:
            check(rows == reference_rows, "a later round's sweep rows differ from round 0")
        del store, rows
        if index == 1:
            peak_mb = peak_rss_mb()

    member_steps = sum(r[0] for r in reference_rows.values())
    result.add_end_to_end(setup_s, round_times, peak_mb)
    result.detail("sweep_member_steps_per_s", member_steps / median(round_times), "1/s")
    result.notes.append(
        f"{len(round_times)} measured round(s) of {len(cells)} members, "
        f"{member_steps} member-steps each; the rounds took "
        + ", ".join(f"{wall:.2f}" for wall in result.round_walls) + " s of wall time"
    )
    return result
