"""Deterministic discrete-event network simulator.

Time is an integer nanosecond clock; events are dispatched from a heap
ordered by (time, insertion sequence), so equal-time events run in FIFO
order and identical scenarios replay identically.  A single seeded RNG
drives every random choice (flow start jitter, then RED decisions) in a
fixed draw order.

Links come in two forms.  A FifoLink is a drop-tail queue modelled
analytically: each admitted packet costs one arrival event, scheduled at
serialisation-end plus propagation, with the backlog tracked as a
busy-until horizon.  A RedLink owns a real RedQueue and explicit
transmit-complete events, because drop decisions must see the actual
queue occupancy at each arrival.

Same-nanosecond ties: FifoLink counts a service ending at `now` as done
and drops only when busy_until - now > limit * ser, so a backlog of
exactly `limit` service times admits.  RedLink runs them in push order:
an arrival pushed before a transmit-complete sees that packet queued.

Acks are 40 bytes, never queued and never dropped: the return path is
pure delay, the sum of the forward links' propagation delays.

Every event, whatever its kind, is pushed through Simulation.schedule,
and the per-packet handlers (the links' offer, RedQueue.enqueue,
TcpSender.on_ack and on_timer_check, TcpReceiver.on_data) are called as
methods, looked up on their classes at each call.  A wrapper installed
on a class therefore sees every event and every call.

Each flow has at most one live retransmission-timer event, the one at
`Flow._timer_event_ns`.  An earlier deadline pushes a new event and
leaves the old one in the heap; that stale event is dropped unread when
it is popped (lazy deletion), so it neither checks nor re-arms the timer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .aqm import RedParams, RedQueue
from .tcp import (VARIANTS, TcpReceiver, TcpSender, TraceRecord,
                  slow_start_crossover)

NS_PER_SEC = 1_000_000_000

# event kinds
_FLOW_START = 0
_ARRIVAL = 1
_ACK_ARRIVAL = 2
_TX_DONE = 3
_TIMER = 4
_FLOW_STOP = 5


def ns_from_s(seconds: float) -> int:
    return int(round(seconds * NS_PER_SEC))


def _check_ns(key: str, seconds: float) -> None:
    """Reject a time that ns_from_s cannot convert.

    Past about 1.8e299 s, seconds * NS_PER_SEC overflows to inf.
    """
    if not math.isfinite(seconds * NS_PER_SEC):
        raise ValueError(f"{key} does not fit the nanosecond clock, "
                         f"got {seconds!r}")


def _ser_ns(payload_bytes: int, bandwidth_bps: float) -> int:
    """Serialisation time of one payload; OverflowError past the float range."""
    return int(round(payload_bytes * 8 * NS_PER_SEC / bandwidth_bps))


def s_from_ns(t_ns: int) -> float:
    return t_ns / NS_PER_SEC


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinkSpec:
    """One unidirectional link.  queue is "fifo" (drop-tail) or "red"."""

    name: str
    bandwidth_bps: float
    delay_s: float
    queue: str = "fifo"
    limit: int | None = None    # fifo only: packets of backlog before tail drop
    red: RedParams | None = None    # red only: overrides the scenario default

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ValueError(f"link {self.name!r}: bandwidth must be finite "
                             f"and positive, got {self.bandwidth_bps!r}")
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise ValueError(f"link {self.name!r}: delay must be finite "
                             f"and non-negative, got {self.delay_s!r}")
        _check_ns(f"link {self.name!r}: delay", self.delay_s)
        if self.queue not in ("fifo", "red"):
            raise ValueError(f"link {self.name!r}: queue must be fifo or red, "
                             f"got {self.queue!r}")
        if self.queue == "red":
            if self.limit is not None:
                raise ValueError(f"link {self.name!r}: a red queue's limit is "
                                 f"red.limit, not limit, got {self.limit!r}")
        elif self.red is not None:
            raise ValueError(f"link {self.name!r}: red parameters are for red "
                             "links, not fifo ones")
        elif self.limit is None:
            object.__setattr__(self, "limit", 1000)     # the fifo default
        elif self.limit < 1:
            raise ValueError(f"link {self.name!r}: limit must be at least 1, "
                             f"got {self.limit!r}")


@dataclass(frozen=True)
class FlowSpec:
    """One sender/receiver pair and its forward route (link names)."""

    variant: str
    route: tuple[str, ...]
    n_weight: float = 1.0
    start_s: float = 0.0
    start_jitter_s: float = 0.0
    stop_s: float | None = None
    bulk_bytes: int | None = None
    ssthresh: int = 64
    advertised_bytes: int | None = None     # receive-buffer cap

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(VARIANTS)}, "
                             f"got {self.variant!r}")
        if not self.route:
            raise ValueError("route must name at least one link")
        for key, value, least in (("n", self.n_weight, 1),
                                  ("start", self.start_s, 0),
                                  ("jitter", self.start_jitter_s, 0)):
            if not (math.isfinite(value) and value >= least):
                raise ValueError(f"{key} must be finite and at least {least}, "
                                 f"got {value!r}")
        try:
            slow_start_crossover(self.n_weight)
        except ValueError:
            raise ValueError("n is too large: its slow-start crossover overflows "
                             f"a float, got {self.n_weight!r}") from None
        if self.bulk_bytes is not None and not self.bulk_bytes >= 1:
            raise ValueError(f"bulk_bytes must be at least 1, got {self.bulk_bytes!r}")
        if self.ssthresh < 2:
            raise ValueError(f"ssthresh must be at least 2, got {self.ssthresh!r}")
        if self.stop_s is not None and not (math.isfinite(self.stop_s)
                                            and self.stop_s > self.start_s):
            raise ValueError(f"stop must be finite and after start "
                             f"({self.start_s!r}), got {self.stop_s!r}")
        # the start time is drawn from [start, start + jitter]
        _check_ns("start", self.start_s)
        _check_ns("start + jitter", self.start_s + self.start_jitter_s)
        if self.stop_s is not None:
            _check_ns("stop", self.stop_s)


@dataclass(frozen=True)
class Scenario:
    links: tuple[LinkSpec, ...]
    flows: tuple[FlowSpec, ...]
    duration_s: float
    warmup_s: float = 0.0
    seed: int = 0
    payload_bytes: int = 1000
    red: RedParams = field(default_factory=RedParams)
    trace: bool = False

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {self.payload_bytes!r}")
        names = [link.name for link in self.links]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"duplicate link name {name!r}")
        for link in self.links:
            try:
                ser_ns = _ser_ns(self.payload_bytes, link.bandwidth_bps)
            except OverflowError:
                raise ValueError(f"link {link.name!r}: one payload's time on the "
                                 "wire does not fit the nanosecond clock") from None
            if ser_ns == 0:
                raise ValueError(f"link {link.name!r}: one payload's time on the "
                                 "wire rounds to 0 ns")
        for i, flow in enumerate(self.flows):
            for name in flow.route:
                if name not in names:
                    raise ValueError(f"flow {i}: route names unknown link "
                                     f"{name!r}")
            if flow.advertised_bytes is not None and \
                    not flow.advertised_bytes >= self.payload_bytes:
                raise ValueError(f"flow {i}: advertised_bytes must be at least "
                                 f"one payload ({self.payload_bytes}), "
                                 f"got {flow.advertised_bytes!r}")
        if not math.isfinite(self.duration_s):
            raise ValueError(f"duration must be finite, got {self.duration_s!r}")
        if not self.warmup_s >= 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup_s!r}")
        _check_ns("duration", self.duration_s)
        _check_ns("warmup", self.warmup_s)
        if self.duration_s <= self.warmup_s:
            raise ValueError("duration must exceed warmup")


class Packet:
    """One data segment; every packet of a run carries the same payload."""

    __slots__ = ("flow_id", "seq", "hop")

    def __init__(self, flow_id: int, seq: int) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.hop = 0    # index of the next link on the route


class _Link:
    """Name, rate, propagation delay and per-packet cost of either link kind."""

    def __init__(self, spec: LinkSpec, payload_bytes: int) -> None:
        self.name = spec.name
        self.bandwidth_bps = float(spec.bandwidth_bps)
        self.delay_ns = ns_from_s(spec.delay_s)
        self.packet_bits = payload_bytes * 8
        self.ser_ns = _ser_ns(payload_bytes, self.bandwidth_bps)


class FifoLink(_Link):
    """Drop-tail link with analytic FIFO service (one event per packet)."""

    def __init__(self, spec: LinkSpec, payload_bytes: int) -> None:
        super().__init__(spec, payload_bytes)
        self.limit = spec.limit
        self.busy_until_ns = 0
        self.bits_admitted = 0
        self.drops = 0

    def offer(self, sim: "Simulation", pkt: Packet, now_ns: int) -> bool:
        ser = self.ser_ns
        busy = self.busy_until_ns
        if busy - now_ns > self.limit * ser:
            self.drops += 1
            return False
        busy = (busy if busy > now_ns else now_ns) + ser
        self.busy_until_ns = busy
        self.bits_admitted += self.packet_bits
        sim.schedule(busy + self.delay_ns, _ARRIVAL, pkt)
        return True

    def delivered_bits(self, now_ns: int) -> float:
        """Bits fully serialised by `now`; the backlog drains at line rate."""
        backlog_ns = max(0, self.busy_until_ns - now_ns)
        return self.bits_admitted - self.bandwidth_bps * backlog_ns / NS_PER_SEC


class RedLink(_Link):
    """Link whose queue is RED-managed; service is event-driven."""

    def __init__(self, spec: LinkSpec, payload_bytes: int, params: RedParams,
                 rng: random.Random) -> None:
        super().__init__(spec, payload_bytes)
        self.queue = RedQueue(params, rng, idle_pkt_time_ns=self.ser_ns)
        self.in_service: Packet | None = None
        self.bits_forwarded = 0

    def offer(self, sim: "Simulation", pkt: Packet, now_ns: int) -> bool:
        queue = self.queue
        if not queue.enqueue(pkt, now_ns):
            return False
        if self.in_service is None:
            # the link was idle, so the queue holds just this packet
            self.in_service = queue.dequeue(now_ns)
            sim.schedule(now_ns + self.ser_ns, _TX_DONE, self)
        return True

    def on_tx_done(self, sim: "Simulation", now_ns: int) -> None:
        self.bits_forwarded += self.packet_bits
        sim.schedule(now_ns + self.delay_ns, _ARRIVAL, self.in_service)
        pkt = self.in_service = self.queue.dequeue(now_ns)
        if pkt is not None:
            sim.schedule(now_ns + self.ser_ns, _TX_DONE, self)

    def delivered_bits(self, now_ns: int) -> float:
        return float(self.bits_forwarded)


class Flow:
    """Binds a sender, a receiver, a forward route and counters."""

    def __init__(self, flow_id: int, spec: FlowSpec, route: list,
                 payload_bytes: int, trace: list[TraceRecord] | None) -> None:
        self.flow_id = flow_id
        self.spec = spec
        self.route = route
        self.hops = len(route)
        self.payload_bytes = payload_bytes
        self.reverse_delay_ns = sum(l.delay_ns for l in route)
        self.base_rtt_ns = sum(l.ser_ns + l.delay_ns for l in route) \
            + self.reverse_delay_ns
        bulk = None
        if spec.bulk_bytes is not None:
            bulk = -(-spec.bulk_bytes // payload_bytes)
        adv = None
        if spec.advertised_bytes is not None:
            adv = spec.advertised_bytes // payload_bytes
        self.sender = TcpSender(spec.variant, spec.n_weight, flow_id=flow_id,
                                initial_ssthresh=spec.ssthresh,
                                advertised=adv, bulk_segments=bulk, trace=trace)
        self.receiver = TcpReceiver(sack_enabled=(spec.variant == "sack"))
        self.drops = 0
        self._timer_event_ns: int | None = None     # the live timer event

    def delivered_bytes(self) -> int:
        return self.receiver.cum_ack * self.payload_bytes


class Simulation:
    """Event loop over a Scenario.  run_until() may be called repeatedly."""

    def __init__(self, scenario: Scenario) -> None:
        self.rng = random.Random(scenario.seed)
        self.clock_ns = 0
        self._heap: list = []
        self._eseq = 0
        self.trace: list[TraceRecord] | None = [] if scenario.trace else None

        self.links: dict[str, FifoLink | RedLink] = {}
        for spec in scenario.links:
            if spec.queue == "red":
                params = spec.red if spec.red is not None else scenario.red
                self.links[spec.name] = RedLink(spec, scenario.payload_bytes,
                                                params, self.rng)
            else:
                self.links[spec.name] = FifoLink(spec, scenario.payload_bytes)

        self.flows: list[Flow] = []
        for i, fs in enumerate(scenario.flows):
            route = [self.links[name] for name in fs.route]
            self.flows.append(Flow(i, fs, route, scenario.payload_bytes, self.trace))

        # start jitters are drawn up front, in flow order, so later RED
        # draws cannot disturb them
        for flow in self.flows:
            fs = flow.spec
            start = fs.start_s + self.rng.uniform(0.0, fs.start_jitter_s)
            self.schedule(ns_from_s(start), _FLOW_START, flow.flow_id)
            if fs.stop_s is not None:
                self.schedule(ns_from_s(fs.stop_s), _FLOW_STOP, flow.flow_id)

    # -- event plumbing ---------------------------------------------------

    def schedule(self, time_ns: int, kind: int, payload) -> None:
        if time_ns < self.clock_ns:
            raise SimulationError(
                f"event scheduled in the past ({time_ns} < {self.clock_ns})")
        eseq = self._eseq
        heappush(self._heap, (time_ns, eseq, kind, payload))
        self._eseq = eseq + 1

    def run_until(self, t_s: float) -> "Simulation":
        """Process every event with time <= t_s, then park the clock there."""
        end_ns = ns_from_s(t_s)
        heap = self._heap
        flows = self.flows
        send = self._send
        while heap and heap[0][0] <= end_ns:
            time_ns, _, kind, payload = heappop(heap)
            self.clock_ns = time_ns
            if kind == _ARRIVAL:
                # a data packet crossed a link: on to the next, or delivered
                flow = flows[payload.flow_id]
                hop = payload.hop = payload.hop + 1
                if hop < flow.hops:
                    if not flow.route[hop].offer(self, payload, time_ns):
                        flow.drops += 1
                else:
                    ack, blocks = flow.receiver.on_data(payload.seq)
                    self.schedule(time_ns + flow.reverse_delay_ns, _ACK_ARRIVAL,
                                  (payload.flow_id, ack, blocks))
            elif kind == _TX_DONE:
                payload.on_tx_done(self, time_ns)
            elif kind == _ACK_ARRIVAL:
                flow_id, ack, blocks = payload
                flow = flows[flow_id]
                send(flow, flow.sender.on_ack(ack, blocks, time_ns), time_ns)
            elif kind == _TIMER:
                self._on_timer(payload, time_ns)
            elif kind == _FLOW_START:
                flow = flows[payload]
                send(flow, flow.sender.start(time_ns), time_ns)
            elif kind == _FLOW_STOP:
                flows[payload].sender.active = False
        if end_ns > self.clock_ns:
            self.clock_ns = end_ns
        return self

    # -- handlers ---------------------------------------------------------

    def _on_timer(self, flow: Flow, now_ns: int) -> None:
        if now_ns != flow._timer_event_ns:
            return      # stale: superseded by an earlier deadline
        flow._timer_event_ns = None
        self._send(flow, flow.sender.on_timer_check(now_ns), now_ns)

    def _send(self, flow: Flow, sends: list[int], now_ns: int) -> None:
        """Offer the sender's segments to the first link, then arm its timer."""
        if sends:
            first, flow_id = flow.route[0], flow.flow_id
            for seq in sends:
                if not first.offer(self, Packet(flow_id, seq), now_ns):
                    flow.drops += 1
        deadline = flow.sender.timer_deadline_ns
        live = flow._timer_event_ns
        if deadline is not None and (live is None or deadline < live):
            self.schedule(deadline, _TIMER, flow)
            flow._timer_event_ns = deadline

    # -- inspection -------------------------------------------------------

    def in_network_counts(self) -> dict[int, int]:
        """Data packets currently queued or in flight, per flow."""
        counts = {f.flow_id: 0 for f in self.flows}
        for _, _, kind, payload in self._heap:
            if kind == _ARRIVAL:
                counts[payload.flow_id] += 1
        for link in self.links.values():
            if isinstance(link, RedLink):
                for pkt in link.queue.items:
                    counts[pkt.flow_id] += 1
                if link.in_service is not None:
                    counts[link.in_service.flow_id] += 1
        return counts

    def check_conservation(self) -> None:
        """Every sent packet is delivered, dropped, or still in the network."""
        in_net = self.in_network_counts()
        for f in self.flows:
            sent = f.sender.segments_sent
            arrived = f.receiver.segments_received + f.receiver.duplicates
            if sent != arrived + f.drops + in_net[f.flow_id]:
                raise SimulationError(
                    f"flow {f.flow_id}: sent {sent} != arrived {arrived} "
                    f"+ dropped {f.drops} + in-network {in_net[f.flow_id]}")
