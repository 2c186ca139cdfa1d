"""Tests of the benchmark harness itself: its rules, its file and its checks.

Every output check gets a negative test: a corrupted copy of a good output
must make it fail.  None of these tests runs a workload.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks  # noqa: E402
from perfbench.harness import (  # noqa: E402
    END_TO_END,
    METRIC_NAME_RE,
    CheckFailed,
    Metric,
    RunResult,
    Speedometer,
    percentile,
    timed_rounds,
)
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    LAYER_METRIC_NAMES,
    Patcher,
    Tracer,
    install_layers,
    layer_metrics,
    overhead_pct,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


# -- the percentile rule ---------------------------------------------------------


def test_p99_needs_a_thousand_samples():
    assert percentile([float(i) for i in range(999)], 99.0) is None
    values = [float(i) for i in range(1000)]
    assert percentile(values, 99.0) == 989.0
    assert sum(v > percentile(values, 99.0) for v in values) == 10


def test_p50_and_p90_follow_the_same_rule():
    assert percentile([1.0] * 20, 50.0) == 1.0
    assert percentile([1.0] * 19, 50.0) is None
    assert percentile([1.0] * 99, 90.0) is None
    assert percentile([float(i) for i in range(100)], 90.0) == 89.0


# -- nominal speed -----------------------------------------------------------------


def test_a_run_is_scaled_by_the_mean_of_its_ticks(monkeypatch):
    speed = Speedometer()
    ticks = iter([1.0, 2.0, 1.5])

    def fake_tick():
        speed.samples.append(next(ticks))
        return speed.samples[-1]

    monkeypatch.setattr(speed, "tick", fake_tick)
    for _ in range(3):
        speed.tick()
    assert speed.slowdown() == 1.5


def test_time_metrics_scale_and_others_do_not():
    result = RunResult(attempted=1)
    result.add("a_s", 2.0, "s")
    result.add("b", 100.0, "1/s")
    result.add("c", 5.0, "MB")
    result.detail("d_ms", 8.0, "ms")
    result.scale_to_nominal(2.0)
    assert [m.value for m in result.metrics] == [1.0, 200.0, 5.0]
    assert result.details[0].value == 4.0


def test_the_reference_loop_ticks():
    speed = Speedometer()
    assert speed.tick() > 0 and len(speed.samples) == 1
    with pytest.raises(ValueError):
        Speedometer().slowdown()


# -- metric names and the result line --------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "service.handle_s.feed_batch", "p-99.x_1"])
def test_metric_name_pattern_accepts(name):
    assert METRIC_NAME_RE.match(name)
    Metric(name, 1.0, "s")


@pytest.mark.parametrize("name", ["", "_x", "a b", "a/b", "temp°", "x" * 65])
def test_metric_name_pattern_rejects(name):
    assert not METRIC_NAME_RE.match(name)
    with pytest.raises(ValueError):
        Metric(name, 1.0, "s")


def test_result_line_has_exactly_the_four_keys():
    result = RunResult(attempted=5, failed=1)
    result.add("setup_s", 0.5, "s")
    payload = json.loads(result.to_json())
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}


def test_result_line_refuses_duplicates_and_empty_runs():
    result = RunResult(attempted=1)
    result.add("x", 1.0, "s")
    result.add("x", 2.0, "s")
    with pytest.raises(ValueError):
        result.to_json()
    with pytest.raises(ValueError):
        RunResult(attempted=0).to_json()
    with pytest.raises(ValueError):
        Metric("x", float("nan"), "s")


# -- the fixed form of BENCHMARK.json --------------------------------------------


def test_benchmark_json_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    for path in SPEC["paths"]:
        assert PATH_RE.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_json_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_benchmark_json_metrics():
    names = []
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert METRIC_NAME_RE.match(metric["name"]), metric["name"]
        assert UNIT_RE.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_reports_the_same_end_to_end_metrics():
    assert tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"]) == END_TO_END
    result = RunResult(attempted=1)
    result.add_end_to_end(1.5, [2.0, 3.0, 9.0], 120.5)
    result.detail("table1_s", 1.0, "s")
    metrics = json.loads(result.to_json())["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == list(END_TO_END)
    assert metrics["round_s"]["value"] == 3.0 and metrics["peak_mb"]["value"] == 120.5
    assert "table1_s" in result.render()


def test_rounds_stop_before_one_would_overrun_the_deadline():
    assert list(timed_rounds(0.0, min_rounds=2)) == [0, 1]
    rounds = []
    for index in timed_rounds(time.perf_counter() + 0.3):
        rounds.append(index)
        time.sleep(0.2)  # a second round would end after the deadline
    assert rounds == [0]


def test_per_layer_list_matches_the_tracer():
    assert tuple(m["name"] for m in SPEC["per_layer"]) == LAYER_METRIC_NAMES


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.enabled, tracer.phase = True, "round"
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    spans = {name: (start, end) for _, name, start, end, *_ in tracer.spans}
    selfs = tracer.self_times("round")
    outer_wall = spans["outer"][1] - spans["outer"][0]
    inner_wall = spans["inner"][1] - spans["inner"][0]
    assert math.isclose(selfs["outer"], outer_wall - inner_wall, abs_tol=1e-12)
    assert math.isclose(selfs["inner"], inner_wall, abs_tol=1e-12)
    assert tracer.total_time("outer", "round") == outer_wall


def test_layer_metrics_cover_every_name_and_read_zero_when_unused():
    values = layer_metrics(Tracer(), 1, 1, {})
    assert tuple(name for name, _, _ in values) == LAYER_METRIC_NAMES
    assert all(value == 0.0 for _, value, _ in values)


def test_overhead_compares_traced_with_untraced_rounds():
    assert overhead_pct([5.0]) is None
    assert math.isclose(overhead_pct([9.0, 1.1, 1.0, 1.1, 1.0]), 10.0)


def test_install_layers_wraps_call_sites_and_undo_restores_them():
    import repro.api.plane as api_plane
    import repro.runtime.plane_kernels as kernels
    import repro.runtime.vectorized as vectorized

    original = kernels.caps_from_margins
    patcher = Patcher()
    install_layers(Tracer(), patcher)
    try:
        assert vectorized.caps_from_margins is not original
        assert api_plane.caps_from_margins is vectorized.caps_from_margins
        assert vectorized.caps_from_margins.__wrapped__ is original
    finally:
        patcher.undo()
    assert vectorized.caps_from_margins is original
    assert api_plane.caps_from_margins is original


def test_disabled_wrappers_record_nothing():
    import numpy as np

    import repro.runtime.plane_kernels as kernels

    tracer, patcher = Tracer(), Patcher()
    install_layers(tracer, patcher)
    try:
        margins = np.array([0.5, -1.0])
        steps = np.array([3], dtype=np.int64)
        kernels.caps_from_margins(margins, steps, np.array([0.0]), 1.0)
        assert tracer.spans == []
        tracer.enabled, tracer.phase = True, "round"
        kernels.caps_from_margins(margins, steps, np.array([0.0]), 1.0)
        assert [span[1] for span in tracer.spans] == ["plane.kernels"]
    finally:
        patcher.undo()


# -- output checks: each passes on a good output and fails on a corrupted one ---


def _write_shard(directory: Path, cells) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "shard-00000.jsonl", "w", encoding="utf-8") as fh:
        for cell_id, records in cells:
            fh.write(json.dumps({"cell": {"cell_id": cell_id},
                                 "result": {"records": records}}) + "\n")


def _record(skin, screen, freq):
    return {"skin_temp_c": skin, "screen_temp_c": screen, "frequency_khz": freq}


def test_shard_figures_are_recomputed_from_raw_lines(tmp_path):
    _write_shard(tmp_path, [("a/baseline", [_record(30.0, 29.0, 1000), _record(31.5, 28.0, 2000)])])
    figures = checks.shard_cell_figures(tmp_path)
    assert figures == {"a/baseline": (31.5, 29.0, 0.0015)}
    checks.check_cell_set(figures, ["a/baseline"])
    with pytest.raises(CheckFailed):
        checks.check_cell_set(figures, ["a/baseline", "a/usta"])


def test_shard_figures_fail_on_a_duplicated_cell(tmp_path):
    cell = ("a/usta", [_record(30.0, 29.0, 1000)])
    _write_shard(tmp_path, [cell, cell])
    with pytest.raises(CheckFailed):
        checks.shard_cell_figures(tmp_path)


def test_shard_figures_fail_on_a_torn_line(tmp_path):
    _write_shard(tmp_path, [("a/usta", [_record(30.0, 29.0, 1000)])])
    path = tmp_path / "shard-00000.jsonl"
    path.write_text(path.read_text().rstrip("\n"))
    with pytest.raises(CheckFailed):
        checks.shard_cell_figures(tmp_path)


def _row(benchmark="b", base_skin=36.0, usta_skin=35.0):
    return SimpleNamespace(
        benchmark=benchmark,
        baseline_max_skin_c=base_skin, baseline_max_screen_c=34.0, baseline_avg_freq_ghz=1.2,
        usta_max_skin_c=usta_skin, usta_max_screen_c=33.0, usta_avg_freq_ghz=1.1,
    )


def test_legs_must_equal_the_shard_figures_exactly():
    rows = [_row()]
    reference = checks.table_figures(rows)
    checks.check_legs_match(reference, {"memory": checks.table_figures(rows)})
    corrupted = checks.table_figures([_row(usta_skin=35.0 + 1e-12)])
    with pytest.raises(CheckFailed):
        checks.check_legs_match(reference, {"memory": corrupted})


def test_usta_must_lower_the_peak_near_the_limit():
    assert checks.check_usta_lowers_peak([_row(), _row("cool", 30.0, 30.0)]) == 1
    with pytest.raises(CheckFailed):
        checks.check_usta_lowers_peak([_row(usta_skin=36.0)])
    with pytest.raises(CheckFailed):
        checks.check_usta_lowers_peak([_row("cool", 30.0, 29.0)])


def test_sweep_rows_must_match_their_serial_reruns():
    batch = {"m1": (600, 36.5, 38.0, 10.0, 1.2, 0.3)}
    checks.check_rows_identical(batch, {"m1": batch["m1"]})
    with pytest.raises(CheckFailed):
        checks.check_rows_identical(batch, {"m1": (600, 36.5, 38.0, 10.0, 1.2, 0.30000000001)})
    with pytest.raises(CheckFailed):
        checks.check_rows_identical(batch, {})


def test_frequency_level_must_respect_the_previous_cap():
    checks.check_caps_respected("m", [11, 11, 6, 6], [11, 6, 6, 11])
    with pytest.raises(CheckFailed):
        checks.check_caps_respected("m", [11, 11, 7, 6], [11, 6, 6, 11])


def test_every_request_needs_one_reply():
    checks.check_replies(10, 9, 1)
    with pytest.raises(CheckFailed):
        checks.check_replies(10, 8, 1)


def test_replay_must_be_bit_identical():
    served = [{"level_cap": 9, "comfort_limit_c": 36.9}]
    checks.check_replay("s", served, [dict(served[0])])
    with pytest.raises(CheckFailed):
        checks.check_replay("s", served, [{"level_cap": 9, "comfort_limit_c": 36.900000000000006}])
    with pytest.raises(CheckFailed):
        checks.check_replay("s", served, [])


def test_restored_limit_must_equal_the_last_decision():
    checks.check_restored_limit("u", 36.25, {"comfort_limit_c": 36.25})
    with pytest.raises(CheckFailed):
        checks.check_restored_limit("u", 37.0, {"comfort_limit_c": 36.25})
    with pytest.raises(CheckFailed):
        checks.check_restored_limit("u", None, {"comfort_limit_c": 36.25})


def test_decision_log_needs_one_line_per_decision(tmp_path):
    log = tmp_path / "decisions.jsonl"
    log.write_text("".join(json.dumps({"session": f"s{i}", "limit_c": 37.0}) + "\n"
                           for i in range(3)))
    assert checks.check_decision_log(log, 3) == 3
    with pytest.raises(CheckFailed):
        checks.check_decision_log(log, 4)


# -- run hygiene -------------------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
