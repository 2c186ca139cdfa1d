"""Span tracing around the public calls into each layer of ``repro``.

The traced run wraps the program's public functions and methods from the
outside: each wrapper opens a span (name, start, end, parent id, phase) and
bumps counters, then calls the original.  Functions are patched wherever a
caller looks them up — the defining module *and* every ``repro`` module that
imported the name — so ``from .plane_kernels import caps_from_margins`` call
sites are traced too.  Spans stay in memory and are written out as JSONL when
the run ends.

A layer's self time is its spans' durations minus the parts covered by their
child spans, so nested layers (a stream store write inside the vectorized
engine inside the streaming summary) are never counted twice.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(metric name, unit, source, phase)``.  ``source`` is ``("self", span)``
#: for summed self time of one span name, ``("total", span)`` for its summed
#: wall time children included, ``("count", counter)`` for a counter, or
#: ``("derived", key)`` for a value the workload computes.  Setup-phase
#: metrics are per set-up; round-phase metrics are per measured round.
LAYER_METRICS: Tuple[Tuple[str, str, tuple, str], ...] = (
    ("workloads.trace_build_s", "s", ("self", "workloads.trace_build"), "setup"),
    ("pipeline.collect_s", "s", ("total", "pipeline.collect"), "setup"),
    ("pipeline.records", "count", ("count", "pipeline.records"), "setup"),
    ("ml.fit_s", "s", ("self", "ml.fit"), "setup"),
    ("ml.fits", "count", ("count", "ml.fits"), "setup"),
    ("predictor.calls", "count", ("count", "predictor.calls"), "round"),
    ("predictor.rows", "count", ("count", "predictor.rows"), "round"),
    ("predictor.s", "s", ("self", "predictor"), "round"),
    ("plan.batches", "count", ("count", "plan.batches"), "round"),
    ("plan.vectorized_cells", "count", ("count", "plan.vectorized_cells"), "round"),
    ("plan.scalar_cells", "count", ("count", "plan.scalar_cells"), "round"),
    ("thermal.calls", "count", ("count", "thermal.calls"), "round"),
    ("thermal.s", "s", ("self", "thermal"), "round"),
    ("vectorized.self_s", "s", ("self", "vectorized"), "round"),
    ("plane.s", "s", ("self", "plane.kernels"), "round"),
    ("results.records", "count", ("count", "results.records"), "round"),
    ("results.materialise_s", "s", ("self", "results.materialise"), "round"),
    ("streamstore.write_s", "s", ("self", "streamstore.write"), "round"),
    ("streamstore.bytes_written", "bytes", ("count", "streamstore.bytes_written"), "round"),
    ("streamstore.fsyncs", "count", ("count", "streamstore.fsyncs"), "round"),
    ("streamstore.read_s", "s", ("self", "streamstore.read"), "round"),
    ("streamstore.bytes_read", "bytes", ("count", "streamstore.bytes_read"), "round"),
    ("analysis.summary_s", "s", ("self", "analysis.summary"), "round"),
    ("wire.request_bytes", "bytes", ("count", "wire.request_bytes"), "round"),
    ("wire.response_bytes", "bytes", ("count", "wire.response_bytes"), "round"),
    ("wire.overhead_s", "s", ("derived", "wire.overhead_s"), "round"),
    ("service.handle_s.feed_batch", "s", ("self", "service.handle.feed_batch"), "round"),
    ("service.handle_s.open", "s", ("self", "service.handle.open"), "round"),
    ("service.handle_s.close", "s", ("self", "service.handle.close"), "round"),
    ("service.handle_s.checkpoint", "s", ("self", "service.handle.checkpoint"), "round"),
    ("service.log_bytes", "bytes", ("count", "service.log_bytes"), "round"),
    ("session.feed_many_s", "s", ("self", "session.feed_many"), "round"),
    ("plane.tick_s", "s", ("self", "plane.tick"), "round"),
    ("plane.resident", "count", ("derived", "plane.resident"), "round"),
    ("plane.ticks", "count", ("count", "plane.ticks"), "round"),
    ("state.restore_s", "s", ("self", "state.restore"), "round"),
    ("state.record_s", "s", ("self", "state.record"), "round"),
    ("state.save_s", "s", ("self", "state.save"), "round"),
    ("state.shards_written", "count", ("count", "state.shards_written"), "round"),
    ("state.fsyncs", "count", ("count", "state.fsyncs"), "round"),
    ("trace.spans", "count", ("derived", "trace.spans"), "round"),
    ("trace.overhead_pct", "%", ("derived", "trace.overhead_pct"), "round"),
)

LAYER_METRIC_NAMES = tuple(name for name, _, _, _ in LAYER_METRICS)


def begin_round(tracer: Optional["Tracer"], index: int) -> None:
    """Round 0 warms up untraced; after it odd rounds are traced, even ones not.

    Interleaving puts traced and untraced rounds under the same machine
    conditions, so their difference measures the tracing overhead.
    """
    if tracer is not None:
        tracer.phase, tracer.enabled = "round", index % 2 == 1


def end_round(tracer: Optional["Tracer"]) -> None:
    if tracer is not None:
        tracer.enabled = False


def min_rounds(tracer: Optional["Tracer"], measured: int = 1) -> int:
    """Rounds a run makes at the least: round 0 warms up and is not measured,
    and a traced run needs a traced and an untraced round after it."""
    return max(measured + 1, 3 if tracer is not None else 2)


def traced_round_count(rounds: int) -> int:
    return rounds // 2


def overhead_pct(round_walls: Sequence[float]) -> Optional[float]:
    """Median traced round against median untraced round (warm-up excluded), in %."""
    traced = round_walls[1::2]
    untraced = round_walls[2::2]
    if not traced or not untraced:
        return None
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


class Tracer:
    """In-memory span and counter recorder shared by every wrapper.

    Wrappers call straight through while ``enabled`` is false, so one
    process can time an untraced round next to traced ones.  ``phase``
    (``"setup"`` or ``"round"``) is stamped on every span and counter.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: List[tuple] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        token = (span_id, name, stack[-1][0] if stack else None, self.phase, time.perf_counter())
        stack.append(token)
        return token

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is token:
            stack.pop()
        else:  # pragma: no cover - unbalanced only if a wrapper is buggy
            stack.remove(token)
        span_id, name, parent, phase, start = token
        self.spans.append((span_id, name, start, end, parent, phase, threading.get_ident()))

    def innermost(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def inside(self, name: str) -> bool:
        return any(token[1] == name for token in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[(self.phase, name)] += amount

    # -- reading -----------------------------------------------------------------

    def self_times(self, phase: str) -> Dict[str, float]:
        """Summed self time per span name, over spans of one phase."""
        durations = {}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            durations[span_id] = end - start
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, span_phase, _ in self.spans:
            if span_phase == phase:
                totals[name] += durations[span_id] - child_time[span_id]
        return totals

    def total_time(self, prefix: str, phase: str) -> float:
        """Summed wall time (children included) of spans whose name starts with prefix."""
        return sum(
            end - start
            for _, name, start, end, _, span_phase, _ in self.spans
            if span_phase == phase and name.startswith(prefix)
        )

    def counter(self, name: str, phase: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, phase, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "phase": phase,
                            "thread": thread,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_metrics(
    tracer: Tracer,
    setups: int,
    rounds: int,
    derived: Dict[str, float],
) -> List[Tuple[str, float, str]]:
    """Every per-layer metric as ``(name, value, unit)``.

    Setup-phase values are per traced set-up and round-phase values per
    traced round, so they do not depend on how many rounds a run fitted in.
    A layer the workload never calls reads 0.
    """
    self_by_phase = {"setup": tracer.self_times("setup"), "round": tracer.self_times("round")}
    out = []
    for name, unit, (kind, key), phase in LAYER_METRICS:
        per = max(1, setups if phase == "setup" else rounds)
        if kind == "self":
            value = self_by_phase[phase].get(key, 0.0) / per
        elif kind == "total":
            value = tracer.total_time(key, phase) / per
        elif kind == "count":
            value = tracer.counter(key, phase) / per
        else:
            value = derived.get(key, 0.0)
        out.append((name, float(value), unit))
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def timed(tracer: Tracer, name, fn: Callable, after: Optional[Callable] = None,
          outermost: bool = False) -> Callable:
    """Wrap ``fn`` in a span; ``name`` may be a callable of the call's arguments.

    ``after(result, args, kwargs)`` runs once the span has closed (for
    counters read off the result).  With ``outermost`` a call nested in a
    span of the same name opens no new span and counts nothing.
    """

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span_name = name(*args, **kwargs) if callable(name) else name
        if outermost and tracer.inside(span_name):
            return fn(*args, **kwargs)
        token = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def timed_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: each resume-to-yield stretch is one span."""

    def wrapper(*args, **kwargs):
        generator = fn(*args, **kwargs)
        while True:
            token = tracer.begin(name) if tracer.enabled else None
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                if token is not None:
                    tracer.end(token)
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make: Callable[[Callable], Callable]) -> int:
        """Wrap a module-level function wherever a ``repro`` module holds it.

        Returns the number of module namespaces patched.
        """
        original = getattr(module, attr)
        wrapped = make(original)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)
                    patched += 1
        return patched

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a method defined on ``cls`` itself."""
        self._set(cls, attr, make(cls.__dict__[attr]))

    def prop(self, cls: type, attr: str, make_getter: Callable[[Callable], Callable]) -> None:
        """Wrap a property's getter, keeping its setter."""
        original = cls.__dict__[attr]
        self._set(cls, attr, property(make_getter(original.fget), original.fset))

    def raw(self, owner, attr: str, value) -> None:
        self._set(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _rows_of(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


def install_layers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public calls of every layer the benchmark attributes time to."""
    # Import every module whose namespace holds a from-imported name first,
    # so the identity scan in Patcher.function finds each call site.
    import repro.analysis.context  # noqa: F401
    import repro.analysis.streaming as streaming
    import repro.analysis.table1  # noqa: F401
    import repro.api.plane as api_plane
    import repro.api.session as api_session
    import repro.core.pipeline as pipeline
    import repro.core.predictor as predictor_mod
    import repro.fleet.service as service_mod
    import repro.fleet.state as state_mod
    import repro.ml.base as ml_base
    import repro.runtime.executors  # noqa: F401
    import repro.runtime.plan as plan_mod
    import repro.runtime.plane_kernels as kernels
    import repro.runtime.streamstore as streamstore
    import repro.runtime.vectorized as vectorized
    import repro.sim.results as results_mod
    import repro.thermal.solver as solver
    import repro.workloads.benchmarks as benchmarks

    t = tracer

    # workloads
    patcher.function(
        benchmarks, "build_benchmark",
        lambda fn: timed(t, "workloads.trace_build", fn),
    )

    # core.pipeline
    patcher.function(
        pipeline, "collect_training_data",
        lambda fn: timed(
            t, "pipeline.collect", fn,
            after=lambda data, a, k: t.count("pipeline.records", data.num_records),
        ),
    )

    # ml: every concrete regressor's own fit
    def _subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from _subclasses(sub)

    import repro.ml  # noqa: F401 - registers the concrete learners

    for cls in {ml_base.Regressor, *_subclasses(ml_base.Regressor)}:
        if "fit" in cls.__dict__:
            patcher.method(
                cls, "fit",
                lambda fn: timed(
                    t, "ml.fit", fn, outermost=True,
                    after=lambda r, a, k: t.count("ml.fits"),
                ),
            )

    # core.predictor: row-object methods and the plane fast kernels
    def _count_rows(rows):
        t.count("predictor.calls")
        t.count("predictor.rows", rows)

    patcher.method(
        predictor_mod.RuntimePredictor, "predict",
        lambda fn: timed(t, "predictor", fn, outermost=True,
                         after=lambda r, a, k: _count_rows(1)),
    )
    for name in ("predict_batch", "predict_batch_arrays"):
        patcher.method(
            predictor_mod.RuntimePredictor, name,
            lambda fn: timed(t, "predictor", fn, outermost=True,
                             after=lambda r, a, k: _count_rows(_rows_of(
                                 a[1] if len(a) > 1 else k.get("features")))),
        )

    def _wrap_kernel_factory(fn):
        def factory(*args, **kwargs):
            found = fn(*args, **kwargs)
            if found is None:
                return None
            kernel, has_screen = found
            return (
                timed(t, "predictor", kernel,
                      after=lambda r, a, k: _count_rows(
                          int(getattr(a[0], "shape", (1,))[0]) if a else 1)),
                has_screen,
            )

        factory.__wrapped__ = fn
        return factory

    patcher.function(kernels, "predictor_fast_kernel", _wrap_kernel_factory)

    # runtime.plan
    def _plan_counts(plan, a, k):
        t.count("plan.batches", len(plan.batches))
        t.count("plan.vectorized_cells", len(plan.batched_indices))
        t.count("plan.scalar_cells", len(plan.scalar))

    patcher.function(plan_mod, "plan_batches",
                     lambda fn: timed(t, "plan", fn, after=_plan_counts))

    # thermal
    thermal_count = lambda r, a, k: t.count("thermal.calls")  # noqa: E731
    for name in ("step", "step_many"):
        patcher.method(solver.ThermalSolver, name,
                       lambda fn: timed(t, "thermal", fn, after=thermal_count))

    def _wrap_stepper_factory(fn):
        def make_stepper(*args, **kwargs):
            return timed(t, "thermal", fn(*args, **kwargs), after=thermal_count)

        make_stepper.__wrapped__ = fn
        return make_stepper

    patcher.method(solver.ThermalSolver, "make_stepper", _wrap_stepper_factory)

    # runtime.vectorized and the shared policy-plane kernels
    patcher.function(vectorized, "simulate_population_mixed",
                     lambda fn: timed(t, "vectorized", fn))
    patcher.function(kernels, "caps_from_margins", lambda fn: timed(t, "plane.kernels", fn))
    for name in ("apply_step_events", "apply_quantile_events"):
        patcher.method(kernels.AdapterArrays, name, lambda fn: timed(t, "plane.kernels", fn))

    # sim.results: first access of a deferred record list
    def _wrap_records(fget):
        def get(self):
            if not t.enabled or self.__dict__.get("_records_thunk") is None:
                return fget(self)
            token = t.begin("results.materialise")
            try:
                records = fget(self)
            finally:
                t.end(token)
            t.count("results.records", len(records))
            return records

        return get

    patcher.prop(results_mod.SimulationResult, "records", _wrap_records)

    # runtime.streamstore
    store_cls = streamstore.StreamingResultStore
    for name in ("begin_cell", "emit", "emit_serialized", "end_cell", "flush"):
        patcher.method(store_cls, name, lambda fn: timed(t, "streamstore.write", fn))
    patcher.prop(store_cls, "completed_cell_ids",
                 lambda fget: timed(t, "streamstore.read", fget))
    patcher.method(store_cls, "iter_results",
                   lambda fn: timed_generator(t, "streamstore.read", fn))

    # analysis.streaming
    patcher.function(streaming, "stream_plan_summaries",
                     lambda fn: timed(t, "analysis.summary", fn))

    # fleet.service: one span per request, named by its op
    patcher.method(
        service_mod.PolicyService, "handle",
        lambda fn: timed(
            t, lambda self, request: f"service.handle.{request.get('op')}", fn
        ),
    )

    # api.session / api.plane
    patcher.method(api_session.SessionPool, "feed_many",
                   lambda fn: timed(t, "session.feed_many", fn))
    patcher.method(
        api_plane.SessionPlane, "tick_many",
        lambda fn: timed(t, "plane.tick", fn, after=lambda r, a, k: t.count("plane.ticks")),
    )

    # fleet.state
    store = state_mod.SessionStateStore
    patcher.method(store, "restore", lambda fn: timed(t, "state.restore", fn))
    patcher.method(store, "record", lambda fn: timed(t, "state.record", fn))
    patcher.method(
        store, "save",
        lambda fn: timed(t, "state.save", fn,
                         after=lambda n, a, k: t.count("state.shards_written", n)),
    )

    # fsync, charged to the layer whose span is innermost on this thread
    fsync = os.fsync

    def traced_fsync(fd):
        if t.enabled:
            inner = t.innermost() or ""
            if inner.startswith("streamstore"):
                t.count("streamstore.fsyncs")
            elif inner.startswith("state."):
                t.count("state.fsyncs")
        return fsync(fd)

    patcher.raw(os, "fsync", traced_fsync)


def summarize(tracer: Tracer) -> str:
    """Per-span-name self time over the round phase, largest first."""
    rows = sorted(tracer.self_times("round").items(), key=lambda kv: -kv[1])
    return "\n".join(f"  {name:<32} {value:10.4f} s self" for name, value in rows)
