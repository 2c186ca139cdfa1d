"""Shared pieces of the benchmark: statistics, metric records and run hygiene.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`perfbench.run` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Metric names as ``BENCHMARK.json`` allows them.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile is reported only when at least this many samples lie
#: beyond it: p99 needs 1,000 samples (10 of them above p99).
TAIL_SAMPLES_BEYOND = 10

#: Where runs keep their scratch state and write their span files, relative
#: to the checkout root.  Both are listed in the root ``.gitignore``.
SCRATCH_DIR = ".perfbench_tmp"
OUTPUT_DIR = ".perfbench_out"


#: The reference loop: this many additions in pure Python, and how long it
#: takes at the nominal speed every reported time is scaled to.
REFERENCE_LOOPS = 1_000_000
REFERENCE_NOMINAL_S = 0.060

#: Units of the metrics the speed scaling applies to.
TIME_UNITS = {"s": -1, "ms": -1, "1/s": 1}


class Speedometer:
    """How fast this machine runs a fixed pure-Python loop, tick by tick.

    Shared machines change speed by tens of percent from one minute to the
    next, for every process alike.  Workloads tick between their timed
    units, and every time and rate a run reports is divided by the mean of
    its ticks against :data:`REFERENCE_NOMINAL_S` (:meth:`slowdown`).  One
    factor for the whole run follows the machine from run to run; a factor
    per unit would add the noise of single ticks, whose loop correlates only
    loosely with the program's speed over seconds.  The loop lives in this
    file and never changes with the program.
    """

    def __init__(self) -> None:
        #: each tick's loop time as a multiple of the nominal time
        self.samples: List[float] = []

    def tick(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i
        self.samples.append((time.perf_counter() - start) / REFERENCE_NOMINAL_S)
        return self.samples[-1]

    def slowdown(self) -> float:
        """The run's mean loop time against the nominal one."""
        if not self.samples:
            raise ValueError("the speedometer never ticked")
        return statistics.fmean(self.samples)


class CheckFailed(AssertionError):
    """An output check found a wrong result; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds (kept under ``-O``)."""
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile (nearest rank), or ``None`` when it is no tail.

    A percentile is only a tail when at least :data:`TAIL_SAMPLES_BEYOND`
    samples lie above it, i.e. ``len(values) * (1 - pct/100) >= 10``: p99
    needs 1,000 samples and p90 needs 100.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError("pct must be in (0, 100)")
    n = len(values)
    if n * (100.0 - pct) / 100.0 < TAIL_SAMPLES_BEYOND - 1e-9:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The end-to-end metrics every workload reports, as ``(name, unit)``.  They
#: are common to all workloads, so one set of bounds judges each of them.
END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_mb", "MB"))


@dataclass
class Metric:
    name: str
    value: float
    unit: str

    def __post_init__(self) -> None:
        if not METRIC_NAME_RE.match(self.name):
            raise ValueError(f"bad metric name {self.name!r}")
        if not isinstance(self.value, (int, float)) or not math.isfinite(self.value):
            raise ValueError(f"metric {self.name} has no finite value: {self.value!r}")


@dataclass
class RunResult:
    """What one workload run reports: its checks, operation counts and metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: List[Metric] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Wall time of each measured round, in order.  In a traced run the first
    #: round runs untraced and the rest traced; their difference is the
    #: tracing overhead.
    round_walls: List[float] = field(default_factory=list)
    #: Per-layer values the workload derives itself (traced runs only).
    derived: Dict[str, float] = field(default_factory=dict)
    #: Finer figures of the workload for the human-readable table.
    details: List[Metric] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics.append(Metric(name, float(value), unit))

    def add_end_to_end(self, setup_s: float, round_times: Sequence[float],
                       peak_mb: float) -> None:
        """The :data:`END_TO_END` metrics: median set-up, median measured
        round and peak RSS (taken at the end of round 1, so that it covers
        the same work however many rounds a run fits in)."""
        values = {"setup_s": setup_s, "round_s": median(round_times), "peak_mb": peak_mb}
        for name, unit in END_TO_END:
            self.add(name, values[name], unit)

    def detail(self, name: str, value: float, unit: str) -> None:
        """A finer figure of the workload, shown on standard error only."""
        self.details.append(Metric(name, float(value), unit))

    def scale_to_nominal(self, slowdown: float) -> None:
        """Express every time and rate at the nominal machine speed."""
        for metric in self.metrics + self.details:
            power = TIME_UNITS.get(metric.unit)
            if power is not None:
                metric.value *= slowdown ** power

    def to_json(self) -> str:
        names = [m.name for m in self.metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric names in {names}")
        if self.attempted < 1:
            raise ValueError("a run must attempt at least one operation")
        payload = {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in self.metrics},
        }
        return json.dumps(payload, separators=(", ", ": "))

    def render(self) -> str:
        """Human-readable table of the metrics (printed to stderr)."""
        width = max((len(m.name) for m in self.metrics), default=10)
        lines = [
            f"{m.name:<{width}}  {m.value:>16.6g}  {m.unit}" for m in self.metrics
        ]
        lines.append(
            f"{'operations':<{width}}  {self.attempted:>16d}  attempted, "
            f"{self.failed} failed; checks {'passed' if self.correct else 'FAILED'}"
        )
        if self.details:
            lines.append("details (not in the result line):")
            lines.extend(f"  {m.name:<26}  {m.value:>14.6g}  {m.unit}" for m in self.details)
        return "\n".join(lines + self.notes)


@dataclass
class RunContext:
    """Arguments and private directories of one workload run."""

    seed: int
    seconds: float
    scratch: Path
    speed: Speedometer = field(default_factory=Speedometer)
    #: wall time of each set-up, in order
    setup_times: List[float] = field(default_factory=list)

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory inside the run's scratch directory."""
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds


#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def repeated_setup(ctx: RunContext, tracer, build: Callable[[], T],
                   discard: Optional[Callable[[T], None]] = None) -> Tuple[float, T]:
    """Set up :data:`SETUPS` times and keep the last; ``(median time, last)``.

    The speedometer ticks before each set-up.  Only the last one runs
    traced, so a traced run reports the per-layer cost of one set-up.
    """
    times: List[float] = []
    built = None
    for index in range(SETUPS):
        if built is not None and discard is not None:
            discard(built)
        built = None
        gc.collect()
        if tracer is not None:
            tracer.phase, tracer.enabled = "setup", index == SETUPS - 1
        ctx.speed.tick()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.enabled = False
    ctx.setup_times = times
    return median(times), built


@contextmanager
def private_scratch(root: Path, workload: str) -> Iterator[Path]:
    """A run-private scratch directory under the checkout, removed afterwards.

    ``REPRO_ARTIFACT_DIR`` points inside it for the duration of the run, so
    trained-predictor artifacts never leak between runs or out of the
    checkout.
    """
    base = root / SCRATCH_DIR
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    previous = os.environ.get("REPRO_ARTIFACT_DIR")
    os.environ["REPRO_ARTIFACT_DIR"] = str(scratch / "artifacts")
    try:
        yield scratch
    finally:
        if previous is None:
            os.environ.pop("REPRO_ARTIFACT_DIR", None)
        else:
            os.environ["REPRO_ARTIFACT_DIR"] = previous
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()  # only when no other run is using it
        except OSError:
            pass


def timed_rounds(deadline: float, min_rounds: int = 1) -> Iterator[int]:
    """Round numbers while the next round should end by ``deadline``.

    The next round is expected to take as long as the last one, so a run
    overshoots ``deadline`` by little.  At least ``min_rounds`` are made.
    """
    index, last = 0, 0.0
    while index < min_rounds or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        yield index
        last = time.perf_counter() - start
        index += 1

