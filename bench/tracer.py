"""Spans and counters around multcp's public entry points, kept in memory.

The tracer works from outside the package: `install()` replaces the
methods and module functions listed in `_TIMED` with wrappers that time
each call, and `uninstall()` puts the originals back.  Nothing under
`src/` knows it is being traced.

Every wrapped call adds its duration to its name's total and, by a stack
of open calls, to its caller's covered time, so a name's self time is
its duration minus the time its wrapped children cover.  Calls at layer
boundaries (runs, CSV writers, library entry points) are also kept as
spans (name, start, end, parent); hot per-packet calls are only summed,
because one 70 s dumbbell run makes about a million of them.

`Simulation.schedule` is counted rather than timed: each event is
classified by its payload type, and timer events are matched against
`TcpSender.on_timer_check`, which the engine calls once per dispatched
timer event, to find how many timer events one flow has pending.

The tracer sees only this process.  Work done in child processes, such
as a sweep spread over a process pool, is not traced.
"""

from __future__ import annotations

import time
from collections import defaultdict

from multcp import aqm, allocator, cli, engine, fairness, harness, model, \
    policing, tcp

# (owner, attribute, name, keep a span per call)
_TIMED = (
    (engine.Simulation, "run_until", "engine.run_until", True),
    (engine.FifoLink, "offer", "engine.link_offer", False),
    (engine.RedLink, "offer", "engine.link_offer", False),
    (aqm.RedQueue, "enqueue", "aqm.enqueue", False),
    (tcp.TcpSender, "on_ack", "tcp.on_ack", False),
    (tcp.TcpReceiver, "on_data", "tcp.on_data", False),
    (harness, "build_dumbbell", "harness.build_dumbbell", True),
    (harness, "run_scenario", "harness.run_scenario", True),
    (harness, "run_gain_experiment", "harness.run_gain_experiment", True),
    (harness, "summarize_gain", "harness.summarize_gain", True),
    (harness, "write_run_csv", "harness.write_run_csv", True),
    (harness, "write_gain_csv", "harness.write_gain_csv", True),
    (harness, "write_gain_summary_csv", "harness.write_gain_summary_csv", True),
    (policing, "write_trace_csv", "policing.write_trace_csv", True),
    (policing, "read_trace_csv", "policing.read_trace_csv", True),
    (policing, "split_trace", "policing.split_trace", True),
    (policing, "analyze_trace", "policing.analyze_trace", True),
    (policing, "verify_declaration", "policing.verify_declaration", True),
    (policing, "bill", "policing.bill", True),
    (model, "sawtooth_oracle", "model.sawtooth_oracle", True),
    (fairness, "maxmin_allocate", "fairness.maxmin_allocate", True),
    (fairness, "check_maxmin", "fairness.check_maxmin", True),
    (fairness, "check_weighted_pf", "fairness.check_weighted_pf", True),
    (fairness, "wpf_allocate", "fairness.wpf_allocate", True),
    (allocator, "allocate_buffers", "allocator.allocate_buffers", False),
    (cli, "main", "cli.main", True),
)

_CSV_WRITERS = ("harness.write_run_csv", "harness.write_gain_csv",
                "harness.write_gain_summary_csv")

_EVENT_KINDS = {engine.Packet: "arrival", tuple: "ack",
                engine.RedLink: "tx_done", engine.Flow: "timer"}


class Tracer:
    """Per-pass trace state; install() before the pass, uninstall() after."""

    def __init__(self) -> None:
        self.spans: list = []       # (name, start_s, end_s, parent index or -1)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._covered: list[list[float]] = []    # one cell per open call
        self._open_spans: list[int] = []
        self._pending: dict = {}    # sender -> timer events not yet dispatched
        self._saved: list = []
        self._origin = time.perf_counter()

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, keep in _TIMED:
            wrapper = self._timed(name, vars(owner)[attr], keep)
            self._patch(owner, attr, wrapper)
        self._patch(engine.Simulation, "schedule",
                    self._counted_schedule(vars(engine.Simulation)["schedule"]))
        self._patch(tcp.TcpSender, "on_timer_check",
                    self._timer_check(vars(tcp.TcpSender)["on_timer_check"]))
        self._origin = time.perf_counter()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name: str, fn, keep: bool):
        covered, open_spans, spans = self._covered, self._open_spans, self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter
        on_return = {"aqm.enqueue": self._after_enqueue,
                     "harness.run_scenario": self._after_run}.get(name)

        def wrapper(*args, **kwargs):
            cell = [0.0]
            covered.append(cell)
            if keep:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                covered.pop()
                d = t1 - t0
                if covered:
                    covered[-1][0] += d
                calls[name] += 1
                total_s[name] += d
                self_s[name] += d - cell[0]
                if keep:
                    open_spans.pop()
                    spans[index] = (name, t0 - self._origin, t1 - self._origin,
                                    parent)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted_schedule(self, fn):
        counts, pending = self.counts, self._pending

        def schedule(sim, time_ns, kind, payload):
            label = _EVENT_KINDS.get(type(payload), "other")
            counts["engine.events." + label] += 1
            if label == "timer":
                n = pending.get(payload.sender, 0) + 1
                pending[payload.sender] = n
                if n > counts["engine.timer_pending_max"]:
                    counts["engine.timer_pending_max"] = n
            return fn(sim, time_ns, kind, payload)

        return schedule

    def _timer_check(self, fn):
        pending = self._pending
        timed = self._timed("tcp.on_timer_check", fn, False)

        def on_timer_check(sender, now_ns):
            pending[sender] = pending.get(sender, 0) - 1
            return timed(sender, now_ns)

        return on_timer_check

    def _after_enqueue(self, admitted: bool) -> None:
        if not admitted:
            self.counts["aqm.drops"] += 1

    def _after_run(self, result) -> None:
        self.counts["tcp.timeouts"] += sum(f.timeouts for f in result.flows)
        self.counts["tcp.trace_records"] += len(result.trace or ())
        self._pending.clear()   # the run's senders are gone

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers for one traced pass (see bench/README.md)."""
        c, calls = self.counts, self.calls
        kinds = ("arrival", "ack", "tx_done", "timer", "other")
        events = sum(c["engine.events." + k] for k in kinds)
        checks = calls["tcp.on_timer_check"]
        enqueues = calls["aqm.enqueue"]
        out = {
            "engine.events": events,
            "engine.timer_pending_max": c["engine.timer_pending_max"],
            "engine.dispatch_self_s": self.self_s["engine.run_until"],
            "engine.link_offer_us": self._per_call_us("engine.link_offer"),
            "aqm.enqueue_us": self._per_call_us("aqm.enqueue"),
            "aqm.enqueue_calls": enqueues,
            "aqm.drop_ratio": c["aqm.drops"] / enqueues if enqueues else 0.0,
            "tcp.on_ack_us": self._per_call_us("tcp.on_ack"),
            "tcp.on_ack_calls": calls["tcp.on_ack"],
            "tcp.on_data_us": self._per_call_us("tcp.on_data"),
            "tcp.timer_checks": checks,
            "tcp.timer_fire_ratio": c["tcp.timeouts"] / checks if checks else 0.0,
            "tcp.trace_records": c["tcp.trace_records"],
            "harness.run_scenario_s": self._per_call_s("harness.run_scenario"),
            "harness.cells": calls["harness.run_scenario"],
            "harness.csv_write_s": sum(self.total_s[n] for n in _CSV_WRITERS),
            "policing.write_trace_s": self.total_s["policing.write_trace_csv"],
            "policing.read_trace_s": self.total_s["policing.read_trace_csv"],
            "policing.analyze_s": self.total_s["policing.analyze_trace"],
            "policing.verify_s": self.self_s["policing.verify_declaration"],
            "model.oracle_s": self.total_s["model.sawtooth_oracle"],
            "fairness.maxmin_check_s": self.total_s["fairness.check_maxmin"],
            "fairness.pf_check_s": self.total_s["fairness.check_weighted_pf"],
            "fairness.wpf_s": self.total_s["fairness.wpf_allocate"],
            "allocator.alloc_s": self.total_s["allocator.allocate_buffers"],
            "cli.self_s": self.self_s["cli.main"],
        }
        for k in kinds[:4]:
            out["engine.events." + k] = c["engine.events." + k]
        return out

    def _per_call_us(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.total_s[name] / n if n else 0.0

    def _per_call_s(self, name: str) -> float:
        n = self.calls[name]
        return self.total_s[name] / n if n else 0.0

    def layers(self) -> dict[str, dict]:
        """Calls, total and self time of every wrapped name."""
        return {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}
