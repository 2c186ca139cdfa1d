"""Output checks, each computed apart from the code path it checks.

Every function takes plain data (parsed files, numbers, wire dictionaries)
and raises :class:`~perfbench.harness.CheckFailed` on a wrong output, so the
tests can feed each one a corrupted copy and watch it fail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .harness import check

#: Per-cell figures Table 1 prints: (peak skin °C, peak screen °C, mean GHz).
CellFigures = Tuple[float, float, float]


def shard_cell_figures(directory: Path) -> Dict[str, CellFigures]:
    """Re-derive every cell's Table 1 figures from raw shard JSONL.

    Reads ``shard-*.jsonl`` with the stdlib ``json`` module only (not the
    program's store reader) and fails when a cell appears twice.
    """
    figures: Dict[str, CellFigures] = {}
    shards = sorted(Path(directory).glob("shard-*.jsonl"))
    check(bool(shards), f"no shard files in {directory}")
    for shard in shards:
        with open(shard, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                check(line.endswith("\n"), f"{shard.name}:{number} is not terminated")
                entry = json.loads(line)
                cell_id = entry["cell"]["cell_id"]
                check(cell_id not in figures, f"cell {cell_id!r} appears twice in the shards")
                records = entry["result"]["records"]
                check(bool(records), f"cell {cell_id!r} has no records")
                freqs = [r["frequency_khz"] for r in records]
                figures[cell_id] = (
                    max(r["skin_temp_c"] for r in records),
                    max(r["screen_temp_c"] for r in records),
                    sum(freqs) / len(freqs) / 1e6,
                )
    return figures


def check_cell_set(figures: Mapping[str, CellFigures], expected: Iterable[str]) -> None:
    expected = set(expected)
    missing = expected - set(figures)
    extra = set(figures) - expected
    check(not missing and not extra,
          f"shard cells differ from the plan: missing {sorted(missing)}, extra {sorted(extra)}")


def table_figures(rows) -> Dict[str, CellFigures]:
    """The same figures read off a list of ``Table1Row`` objects."""
    out: Dict[str, CellFigures] = {}
    for row in rows:
        out[f"{row.benchmark}/baseline"] = (
            row.baseline_max_skin_c, row.baseline_max_screen_c, row.baseline_avg_freq_ghz)
        out[f"{row.benchmark}/usta"] = (
            row.usta_max_skin_c, row.usta_max_screen_c, row.usta_avg_freq_ghz)
    return out


def check_legs_match(reference: Mapping[str, CellFigures],
                     legs: Mapping[str, Mapping[str, CellFigures]]) -> None:
    """Every leg's table must equal the figures re-derived from the shards, exactly."""
    for leg, figures in legs.items():
        check(set(figures) == set(reference), f"{leg} table has cells {sorted(figures)}")
        for cell_id, expected in reference.items():
            check(figures[cell_id] == expected,
                  f"{leg} table differs on {cell_id}: {figures[cell_id]} != {expected}")


def check_usta_lowers_peak(rows, limit_c: float = 37.0, margin_c: float = 2.0) -> int:
    """The paper's claim: wherever the baseline peak comes within 2 °C of the
    limit, USTA lowers the peak skin temperature.  Returns the rows it covered."""
    covered = 0
    for row in rows:
        if row.baseline_max_skin_c >= limit_c - margin_c:
            covered += 1
            check(row.usta_max_skin_c < row.baseline_max_skin_c,
                  f"USTA did not lower the peak on {row.benchmark}: "
                  f"{row.usta_max_skin_c} >= {row.baseline_max_skin_c}")
    check(covered > 0, "no benchmark came within 2 °C of the limit")
    return covered


def check_rows_identical(batch: Mapping[str, tuple], serial: Mapping[str, tuple]) -> None:
    """Sampled sweep rows from the batch must equal their lone scalar re-runs bit for bit."""
    check(bool(serial), "no members were re-run")
    for member, row in serial.items():
        check(batch.get(member) == row,
              f"sweep row of {member} differs from its serial re-run: {batch.get(member)} != {row}")


def check_caps_respected(member: str, levels: Sequence[int], caps: Sequence[int]) -> None:
    """Each step's frequency level must not exceed the previous step's cap."""
    check(len(levels) == len(caps), f"{member}: level/cap series differ in length")
    for step in range(1, len(levels)):
        if levels[step] > caps[step - 1]:
            check(False, f"{member} step {step}: level {levels[step]} above the "
                         f"cap {caps[step - 1]} set the step before")


def check_replies(sent: int, replied: int, failed: int) -> None:
    """Every request got exactly one reply, except the ones counted as failed."""
    check(replied + failed == sent,
          f"{sent} requests sent but {replied} replied and {failed} failed")


def check_replay(session: str, served: Sequence[dict], replayed: Sequence[dict]) -> None:
    """Decisions served over the socket must equal a stand-alone replay, bit for bit."""
    check(len(served) == len(replayed),
          f"{session}: {len(served)} decisions served, {len(replayed)} replayed")
    for index, (a, b) in enumerate(zip(served, replayed)):
        check(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True),
              f"{session} decision {index} differs from its replay: {a} != {b}")


def check_restored_limit(user: str, restored, last_decision: Mapping) -> None:
    check(restored is not None and restored == last_decision["comfort_limit_c"],
          f"{user}: restored limit {restored} != last decision's "
          f"{last_decision['comfort_limit_c']}")


def check_decision_log(path: Path, decisions_returned: int) -> int:
    """The decision log holds one well-formed line per decision returned."""
    lines = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            check("session" in entry and "limit_c" in entry, f"malformed log line {line!r}")
            lines += 1
    check(lines == decisions_returned,
          f"decision log has {lines} lines for {decisions_returned} decisions returned")
    return lines
