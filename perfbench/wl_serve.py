"""``serve_churn``: the socket server under a closed loop with session churn.

``run_service`` runs in one background thread with a state directory and a
decision log.  One client connection sends each request only after the
previous reply arrived.  About 5,000 sessions are opened (distinct user ids,
the spec's default limit).  Each round feeds every session by ``feed_batch``
in chunks of 200 with a few ``discomfort`` reports, sends one oversized
1,000-session ``feed_batch``, and closes and warm-reopens 1% of the
sessions; a ``checkpoint`` ends every block of four rounds, and a block is
what ``round_s`` times.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import checks
from .harness import (
    RunContext,
    RunResult,
    check,
    median,
    peak_rss_mb,
    percentile,
    repeated_setup,
    timed_rounds,
)
from .tracing import Tracer, begin_round, end_round, min_rounds, traced_round_count

SESSIONS = 5000
CHUNK = 200
#: One extra request per round this wide: ~120 KB, above asyncio's default
#: 64 KiB line limit in the server's reader.
OVERSIZE = 1000
CHURN = SESSIONS // 100
ROUNDS_PER_BLOCK = 4
FEEDBACK_PER_CHUNK = 2
#: Set-up sends this many opens before reading their replies.  Opened one
#: round trip at a time, 5,000 sessions timed the machine's thread wake-ups
#: more than the service: the median set-up of ten seeds ran from 2.9 to
#: 6.3 s.
OPEN_WINDOW = 100
SAMPLED = 8
#: The linear recipe trained on a tenth of the benchmark durations: the
#: serving path's cost does not depend on the coefficients, and a short
#: collection keeps the untimed preparation of every run short.
RECIPE = {"model": "linear_regression", "duration_scale": 0.1}
#: Frequencies (kHz) the simulated clients report.
FREQUENCIES = (384000, 594000, 810000, 1026000, 1242000, 1458000, 1674000, 1890000, 2106000)


def policy_spec():
    from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec, PredictorSpec

    return PolicySpec(
        governor=GovernorSpec("ondemand"),
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0},
                            predictor=PredictorSpec("trained", params=dict(RECIPE))),
        adapter=AdapterSpec("quantile_tracker"),
        label="usta+quantile_tracker",
    )


def _encode(request: dict) -> bytes:
    return json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"


class Client:
    """One blocking line-JSON connection; a lost reply reconnects."""

    def __init__(self, address: Tuple[str, int]):
        self.address = address
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=60)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def call(self, payload: bytes) -> Tuple[Optional[bytes], float]:
        """Send one request line; ``(reply line or None, RTT seconds)``."""
        start = time.perf_counter()
        try:
            self.sock.sendall(payload)
            line = self.reader.readline()
        except OSError:
            line = b""
        rtt = time.perf_counter() - start
        if not line:
            self.close()
            self._connect()
            self.reconnects += 1
            return None, rtt
        return line, rtt

    def rpc(self, request: dict) -> dict:
        line, _ = self.call(_encode(request))
        check(line is not None, f"no reply to {request.get('op')!r}")
        return json.loads(line)

    def pipeline(self, requests: List[dict]) -> List[dict]:
        """Sends every request, then reads their replies in order."""
        self.sock.sendall(b"".join(_encode(request) for request in requests))
        lines = [self.reader.readline() for _ in requests]
        check(all(lines), f"{lines.count(b'')} of {len(requests)} pipelined requests got no reply")
        return [json.loads(line) for line in lines]


class Server:
    """``run_service`` in a background thread over fresh state and log paths."""

    def __init__(self, ctx: RunContext, spec):
        from repro.fleet.service import PolicyService, run_service
        from repro.fleet.state import SessionStateStore

        self.state_dir = ctx.fresh_dir("serve-state")
        self.log_path = ctx.fresh_dir("serve-log") / "decisions.jsonl"
        self.service = PolicyService(
            spec,
            state_store=SessionStateStore(self.state_dir),
            decision_log=self.log_path,
        )
        bound = {}
        ready = threading.Event()

        def on_listening(host, port):
            bound["address"] = (host, port)
            ready.set()

        self.thread = threading.Thread(
            target=run_service,
            args=(self.service, "127.0.0.1", 0),
            kwargs={"checkpoint_period_s": None, "on_listening": on_listening},
            name="perfbench-serve",
            daemon=True,
        )
        self.thread.start()
        check(ready.wait(timeout=60), "server never bound")
        self.client = Client(bound["address"])

    def stop(self) -> None:
        """Shut the server down; fails when it sent any reply nobody asked for."""
        try:
            self.client.rpc({"op": "shutdown"})
            unasked = self.client.reader.read()  # up to the server's close
        finally:
            self.client.close()
            self.thread.join(timeout=60)
        check(not self.thread.is_alive(), "server thread did not stop")
        check(unasked == b"", f"the server sent {len(unasked)} bytes nobody asked for")


class LoopErrors(logging.Handler):
    """Counts the errors the server's event loop logs instead of printing each.

    An oversized request kills its connection handler with a ``ValueError``
    that asyncio logs with a traceback; one summary line replaces them.
    """

    def __init__(self):
        super().__init__(logging.ERROR)
        self.count = 0
        self.first: Optional[str] = None

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1
        if self.first is None:
            error = record.exc_info[1] if record.exc_info else None
            self.first = f"{type(error).__name__}: {error}" if error else record.getMessage()

    def __enter__(self) -> "LoopErrors":
        self._logger = logging.getLogger("asyncio")
        self._propagate = self._logger.propagate
        self._logger.addHandler(self)
        self._logger.propagate = False
        return self

    def __exit__(self, *exc) -> None:
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate


class Inputs:
    """Seeded per-round telemetry and feedback for every session."""

    def __init__(self, seed: int, session_ids: List[str]):
        self.seed = seed
        self.session_ids = session_ids

    def round(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        n = len(self.session_ids)
        util = np.round(rng.uniform(0.05, 1.0, n), 3)
        cpu = np.round(rng.uniform(34.0, 62.0, n), 2)
        battery = np.round(cpu - rng.uniform(2.0, 7.0, n), 2)
        freq = rng.choice(FREQUENCIES, n)
        samples = {}
        for k, sid in enumerate(self.session_ids):
            samples[sid] = {
                "time_s": float(index),
                "utilization": float(util[k]),
                "frequency_khz": int(freq[k]),
                "sensors": {"cpu": float(cpu[k]), "battery": float(battery[k])},
            }
        feedback = {}
        for lo in range(0, n, CHUNK):
            for k in rng.choice(np.arange(lo, min(n, lo + CHUNK)), FEEDBACK_PER_CHUNK,
                                replace=False):
                sid = self.session_ids[int(k)]
                feedback[sid] = [{
                    "time_s": float(index),
                    "kind": "discomfort",
                    "skin_temp_c": round(float(rng.uniform(33.0, 38.0)), 2),
                }]
        return samples, feedback

    def oversized(self, index: int):
        rng = np.random.default_rng([self.seed, index, 1])
        start = (index * OVERSIZE) % len(self.session_ids)
        ids = [self.session_ids[(start + k) % len(self.session_ids)] for k in range(OVERSIZE)]
        return {
            sid: {
                "time_s": index + 0.5,
                "utilization": round(float(rng.uniform(0.05, 1.0)), 3),
                "frequency_khz": int(rng.choice(FREQUENCIES)),
                "sensors": {"cpu": round(float(rng.uniform(34.0, 62.0)), 2),
                            "battery": round(float(rng.uniform(30.0, 55.0)), 2)},
            }
            for sid in ids
        }


class Traffic:
    """The closed-loop client side: sends, times and books every request."""

    def __init__(self, server: Server, sampled, tracer: Optional[Tracer]):
        self.server = server
        self.tracer = tracer
        self.sampled = set(sampled)
        self.sent = self.replied = self.failed = 0
        self.decisions = 0
        #: decisions returned on the regular (not oversized) requests
        self.regular_decisions = 0
        self.rtt: Dict[str, List[float]] = {
            "feed_batch": [], "oversized": [], "open": [], "close": [], "checkpoint": []}
        self.traced_rtt = 0.0
        self.last_limit: Dict[str, float] = {}
        #: sampled session -> [(sample, feedback, served decision)]
        self.history: Dict[str, List[tuple]] = {sid: [] for sid in sampled}

    def reset_timings(self) -> None:
        for times in self.rtt.values():
            times.clear()
        self.regular_decisions = 0

    def send(self, kind: str, request: dict) -> Optional[dict]:
        """One request and its reply (``None``, counted failed, when none came)."""
        payload = _encode(request)
        line, rtt = self.server.client.call(payload)
        self.sent += 1
        self.rtt[kind].append(rtt)
        if line is None:
            self.failed += 1
            return None
        self.replied += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled and kind != "oversized":
            self.traced_rtt += rtt
            tracer.count("wire.request_bytes", len(payload))
            tracer.count("wire.response_bytes", len(line))
        reply = json.loads(line)
        check(reply.get("ok") is True, f"{kind} failed: {str(reply)[:300]}")
        return reply

    def feed(self, kind: str, samples: dict, feedback: dict) -> None:
        request = {"op": "feed_batch", "samples": samples}
        if feedback:
            request["feedback"] = feedback
        reply = self.send(kind, request)
        if reply is None:
            check(kind == "oversized", "a regular feed_batch got no reply")
            return
        decisions = reply["decisions"]
        check(list(decisions) == list(samples), "feed_batch reply does not match its sessions")
        for sid, decision in decisions.items():
            self.last_limit[sid] = decision["comfort_limit_c"]
            if sid in self.sampled:
                self.history[sid].append((samples[sid], feedback.get(sid, []), decision))
        self.decisions += len(decisions)
        if kind == "feed_batch":
            self.regular_decisions += len(decisions)

    def churn(self, sid: str) -> None:
        """Close one session, then warm-reopen it from the persisted state."""
        reply = self.send("close", {"op": "close", "session": sid})
        check(reply["session"] == sid, f"close {sid} got the reply {reply}")
        reply = self.send("open", {"op": "open", "session": sid, "user": f"user-{sid}"})
        check(reply["session"] == sid and reply["resumed"] is True
              and reply["limit_c"] == self.last_limit[sid],
              f"warm open of {sid} did not restore its limit: {reply}")


def _replay(spec, traffic: Traffic) -> None:
    """Sampled, never-churned sessions against stand-alone plane-off sessions."""
    from repro.api.session import open_session
    from repro.api.types import FeedbackEvent, TelemetrySample
    from repro.fleet.service import decision_to_wire

    for sid, history in traffic.history.items():
        session = open_session(spec, session_id=sid)
        replayed = []
        for sample, feedback, _ in history:
            decision = session.feed(
                TelemetrySample(
                    time_s=float(sample["time_s"]),
                    utilization=float(sample["utilization"]),
                    frequency_khz=float(sample["frequency_khz"]),
                    sensor_readings=dict(sample["sensors"]),
                ),
                feedback=[FeedbackEvent(time_s=float(e["time_s"]), kind=e["kind"],
                                        skin_temp_c=e.get("skin_temp_c")) for e in feedback],
            )
            replayed.append(json.loads(json.dumps(decision_to_wire(decision))))
        checks.check_replay(sid, [decision for _, _, decision in history], replayed)


def _check_persisted(spec, traffic: Traffic) -> None:
    """A fresh state store restores each sampled user's last served limit."""
    from repro.api.session import open_session
    from repro.fleet.state import SessionStateStore

    store = SessionStateStore(traffic.server.state_dir)
    for sid, history in traffic.history.items():
        session = open_session(spec, session_id=sid)
        check(store.restore(f"user-{sid}", session), f"no persisted state for {sid}")
        checks.check_restored_limit(sid, session.current_limit_c, history[-1][2])


def _measure(ctx: RunContext, traffic: Traffic, inputs: Inputs, churnable, rng,
             result: RunResult) -> Tuple[List[float], List[float], float]:
    """Runs the blocks; returns each measured block's wall time and its
    decisions per second of feed RTT, and the peak RSS after block 1."""
    tracer = traffic.tracer
    session_ids = inputs.session_ids
    log_path = traffic.server.log_path
    log_bytes = 0
    tick = 0
    block_times: List[float] = []
    feed_rates: List[float] = []
    ctx.speed.tick()
    for block in timed_rounds(ctx.deadline(), min_rounds(tracer)):
        begin_round(tracer, block)
        block_start = time.perf_counter()
        block_wall = 0.0
        decisions, feeds = traffic.regular_decisions, len(traffic.rtt["feed_batch"])
        for last in [False] * (ROUNDS_PER_BLOCK - 1) + [True]:
            round_start = time.perf_counter()
            samples, feedback = inputs.round(tick)
            for lo in range(0, SESSIONS, CHUNK):
                ids = session_ids[lo:lo + CHUNK]
                traffic.feed("feed_batch", {sid: samples[sid] for sid in ids},
                            {sid: feedback[sid] for sid in ids if sid in feedback})
            traffic.feed("oversized", inputs.oversized(tick), {})
            for sid in rng.sample(churnable, CHURN):
                traffic.churn(sid)
            if last:
                traffic.send("checkpoint", {"op": "checkpoint"})
            block_wall += time.perf_counter() - round_start
            ctx.speed.tick()
            tick += 1
        result.round_walls.append(time.perf_counter() - block_start)
        size = log_path.stat().st_size
        if tracer is not None and tracer.enabled:
            tracer.count("service.log_bytes", size - log_bytes)
        log_bytes = size
        end_round(tracer)
        if block == 0:
            # Block 0 warms up: until the first checkpoint the state shards
            # hold few users, so its closes are cheaper than all later ones.
            traffic.reset_timings()
        else:
            block_times.append(block_wall)
            feed_rates.append((traffic.regular_decisions - decisions)
                              / sum(traffic.rtt["feed_batch"][feeds:]))
        if block == 1:
            peak_mb = peak_rss_mb()
    if tracer is not None:
        blocks = max(1, traced_round_count(len(result.round_walls)))
        handled = tracer.total_time("service.handle.", "round")
        result.derived["wire.overhead_s"] = (traffic.traced_rtt - handled) / blocks
        stats = traffic.server.client.rpc({"op": "stats"})
        result.derived["plane.resident"] = stats["plane_resident"]
    return block_times, feed_rates, peak_mb


def run(ctx: RunContext, tracer: Tracer = None) -> RunResult:
    from repro.core.predictor import build_trained_predictor

    result = RunResult()
    spec = policy_spec()
    build_trained_predictor(**RECIPE)  # trained once, outside the timed set-up
    session_ids = [f"s{ctx.seed % 1000:03d}-{i:05d}" for i in range(SESSIONS)]
    rng = random.Random(ctx.seed)
    sampled = rng.sample(session_ids, SAMPLED)
    churnable = sorted(set(session_ids) - set(sampled))
    inputs = Inputs(ctx.seed, session_ids)

    def start_and_open() -> Server:
        server = Server(ctx, spec)
        for lo in range(0, SESSIONS, OPEN_WINDOW):
            ids = session_ids[lo:lo + OPEN_WINDOW]
            replies = server.client.pipeline(
                [{"op": "open", "session": sid, "user": f"user-{sid}"} for sid in ids])
            for sid, reply in zip(ids, replies):
                check(reply.get("ok") is True and reply.get("session") == sid,
                      f"open {sid} failed: {reply}")
        return server

    with LoopErrors() as loop_errors:
        setup_s, server = repeated_setup(ctx, tracer, start_and_open, discard=Server.stop)
        try:
            traffic = Traffic(server, sampled, tracer)
            block_times, feed_rates, peak_mb = _measure(ctx, traffic, inputs, churnable, rng, result)
        finally:
            server.stop()

    checks.check_replies(traffic.sent, traffic.replied, traffic.failed)
    _replay(spec, traffic)
    _check_persisted(spec, traffic)
    checks.check_decision_log(server.log_path, traffic.decisions)

    rtt = traffic.rtt
    result.attempted, result.failed = traffic.sent, traffic.failed
    result.add_end_to_end(setup_s, block_times, peak_mb)
    # Medians over measured blocks or requests: one block's GC pauses cannot
    # swing them.
    result.detail("serve_feeds_per_s", median(feed_rates), "1/s")
    result.detail("serve_feed_batch_p50_ms", 1e3 * median(rtt["feed_batch"]), "ms")
    p99 = percentile(rtt["feed_batch"], 99.0)
    if p99 is not None:
        result.detail("serve_feed_batch_p99_ms", 1e3 * p99, "ms")
    result.detail("serve_open_p50_ms", 1e3 * median(rtt["open"]), "ms")
    result.detail("serve_close_p50_ms", 1e3 * median(rtt["close"]), "ms")
    result.detail("serve_checkpoint_s", median(rtt["checkpoint"]), "s")
    result.notes.append(
        f"{len(result.round_walls)} block(s) of {ROUNDS_PER_BLOCK} rounds over {SESSIONS} "
        f"sessions; {traffic.failed} of {traffic.sent} requests failed, the server's loop "
        f"logged {loop_errors.count} error(s), first: {loop_errors.first}"
    )
    result.notes.append(
        f"timed after the warm-up block: {len(rtt['feed_batch'])} feed_batch, "
        f"{len(rtt['oversized'])} oversized (median {1e3 * median(rtt['oversized']):.1f} ms), "
        f"{len(rtt['open'])} warm opens, {len(rtt['close'])} closes, "
        f"{len(rtt['checkpoint'])} checkpoints"
    )
    return result
