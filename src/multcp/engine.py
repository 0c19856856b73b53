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

Acks are 40 bytes, never queued and never dropped: the return path is
pure delay, the sum of the forward links' propagation delays.

Each flow has at most one live retransmission-timer event, the one at
`Flow._timer_event_ns`.  An earlier deadline pushes a new event and
leaves the old one in the heap; that stale event is dropped unread when
it is popped (lazy deletion), so it neither checks nor re-arms the timer.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from .aqm import RedParams, RedQueue
from .tcp import TcpReceiver, TcpSender, TraceRecord

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
    limit: int = 1000           # packets of backlog before tail drop
    red: RedParams | None = None    # overrides the scenario default for red queues

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ValueError(f"link {self.name!r}: bandwidth must be finite "
                             f"and positive, got {self.bandwidth_bps!r}")
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise ValueError(f"link {self.name!r}: delay must be finite "
                             f"and non-negative, got {self.delay_s!r}")
        if self.limit < 1:
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
        for key, value, least in (("n", self.n_weight, 1),
                                  ("start", self.start_s, 0),
                                  ("jitter", self.start_jitter_s, 0)):
            if not (math.isfinite(value) and value >= least):
                raise ValueError(f"{key} must be finite and at least {least}, "
                                 f"got {value!r}")
        if self.bulk_bytes is not None and not self.bulk_bytes >= 1:
            raise ValueError(f"bulk_bytes must be at least 1, got {self.bulk_bytes!r}")
        if self.ssthresh < 2:
            raise ValueError(f"ssthresh must be at least 2, got {self.ssthresh!r}")
        if self.stop_s is not None and not (math.isfinite(self.stop_s)
                                            and self.stop_s > self.start_s):
            raise ValueError(f"stop must be finite and after start "
                             f"({self.start_s!r}), got {self.stop_s!r}")


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
        for i, flow in enumerate(self.flows):
            if flow.advertised_bytes is not None and \
                    not flow.advertised_bytes >= self.payload_bytes:
                raise ValueError(f"flow {i}: advertised_bytes must be at least "
                                 f"one payload ({self.payload_bytes}), "
                                 f"got {flow.advertised_bytes!r}")
        if not math.isfinite(self.duration_s):
            raise ValueError(f"duration must be finite, got {self.duration_s!r}")
        if not self.warmup_s >= 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup_s!r}")


class Packet:
    __slots__ = ("flow_id", "seq", "size", "hop")

    def __init__(self, flow_id: int, seq: int, size: int) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.hop = 0    # index of the next link on the route


class _Link:
    """Name, rate and propagation delay, common to both link kinds."""

    def __init__(self, spec: LinkSpec) -> None:
        self.name = spec.name
        self.bandwidth_bps = float(spec.bandwidth_bps)
        self.delay_ns = ns_from_s(spec.delay_s)
        self._ser_ns: dict[int, int] = {}    # packet size -> serialisation time

    def ser_ns(self, size_bytes: int) -> int:
        ser = self._ser_ns.get(size_bytes)
        if ser is None:
            ser = int(round(size_bytes * 8 * NS_PER_SEC / self.bandwidth_bps))
            self._ser_ns[size_bytes] = ser
        return ser


class FifoLink(_Link):
    """Drop-tail link with analytic FIFO service (one event per packet)."""

    def __init__(self, spec: LinkSpec) -> None:
        super().__init__(spec)
        self.limit = spec.limit
        self.busy_until_ns = 0
        self.bits_admitted = 0
        self.drops = 0

    def offer(self, sim: "Simulation", pkt: Packet, now_ns: int) -> bool:
        ser = self.ser_ns(pkt.size)
        if self.busy_until_ns - now_ns > self.limit * ser:
            self.drops += 1
            return False
        start = max(now_ns, self.busy_until_ns)
        self.busy_until_ns = start + ser
        self.bits_admitted += pkt.size * 8
        sim.schedule(self.busy_until_ns + self.delay_ns, _ARRIVAL, pkt)
        return True

    def delivered_bits(self, now_ns: int) -> float:
        """Bits fully serialised by `now`; the backlog drains at line rate."""
        backlog_ns = max(0, self.busy_until_ns - now_ns)
        return self.bits_admitted - self.bandwidth_bps * backlog_ns / NS_PER_SEC


class RedLink(_Link):
    """Link whose queue is RED-managed; service is event-driven."""

    def __init__(self, spec: LinkSpec, params: RedParams, rng: random.Random,
                 typical_packet_bytes: int) -> None:
        super().__init__(spec)
        self.queue = RedQueue(params, rng,
                              idle_pkt_time_ns=self.ser_ns(typical_packet_bytes))
        self.in_service: Packet | None = None
        self.bits_forwarded = 0
        self.drops = 0

    def offer(self, sim: "Simulation", pkt: Packet, now_ns: int) -> bool:
        if not self.queue.enqueue(pkt, now_ns):
            self.drops += 1
            return False
        if self.in_service is None:
            self._begin_service(sim, now_ns)
        return True

    def _begin_service(self, sim: "Simulation", now_ns: int) -> None:
        pkt = self.queue.dequeue(now_ns)
        if pkt is None:
            return
        self.in_service = pkt
        sim.schedule(now_ns + self.ser_ns(pkt.size), _TX_DONE, self)

    def on_tx_done(self, sim: "Simulation", now_ns: int) -> None:
        pkt = self.in_service
        self.in_service = None
        self.bits_forwarded += pkt.size * 8
        sim.schedule(now_ns + self.delay_ns, _ARRIVAL, pkt)
        self._begin_service(sim, now_ns)

    def delivered_bits(self, now_ns: int) -> float:
        return float(self.bits_forwarded)


class Flow:
    """Binds a sender, a receiver, a forward route and counters."""

    def __init__(self, flow_id: int, spec: FlowSpec, route: list,
                 payload_bytes: int, trace: list[TraceRecord] | None) -> None:
        self.flow_id = flow_id
        self.spec = spec
        self.route = route
        self.payload_bytes = payload_bytes
        self.reverse_delay_ns = sum(l.delay_ns for l in route)
        self.base_rtt_ns = sum(l.ser_ns(payload_bytes) + l.delay_ns for l in route) \
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
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.clock_ns = 0
        self._heap: list = []
        self._eseq = 0
        self.trace: list[TraceRecord] | None = [] if scenario.trace else None

        self.links: dict[str, FifoLink | RedLink] = {}
        for spec in scenario.links:
            if spec.queue == "red":
                params = spec.red if spec.red is not None else scenario.red
                self.links[spec.name] = RedLink(spec, params, self.rng,
                                                scenario.payload_bytes)
            elif spec.queue == "fifo":
                self.links[spec.name] = FifoLink(spec)
            else:
                raise SimulationError(f"unknown queue type {spec.queue!r}")

        self.flows: list[Flow] = []
        for i, fs in enumerate(scenario.flows):
            for name in fs.route:
                if name not in self.links:
                    raise SimulationError(f"flow {i} routes over unknown link {name!r}")
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
        heapq.heappush(self._heap, (time_ns, self._eseq, kind, payload))
        self._eseq += 1

    def run_until(self, t_s: float) -> "Simulation":
        """Process every event with time <= t_s, then park the clock there."""
        end_ns = ns_from_s(t_s)
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= end_ns:
            time_ns, _, kind, payload = heappop(heap)
            self.clock_ns = time_ns
            if kind == _ARRIVAL:
                self._on_arrival(payload, time_ns)
            elif kind == _ACK_ARRIVAL:
                self._on_ack_arrival(payload, time_ns)
            elif kind == _TX_DONE:
                payload.on_tx_done(self, time_ns)
            elif kind == _TIMER:
                self._on_timer(payload, time_ns)
            elif kind == _FLOW_START:
                flow = self.flows[payload]
                self._dispatch_sends(flow, flow.sender.start(time_ns), time_ns)
                self._sync_timer(flow)
            elif kind == _FLOW_STOP:
                self.flows[payload].sender.active = False
        if end_ns > self.clock_ns:
            self.clock_ns = end_ns
        return self

    # -- handlers ---------------------------------------------------------

    def _on_arrival(self, pkt: Packet, now_ns: int) -> None:
        flow = self.flows[pkt.flow_id]
        pkt.hop += 1
        if pkt.hop < len(flow.route):
            if not flow.route[pkt.hop].offer(self, pkt, now_ns):
                flow.drops += 1
            return
        ack, blocks = flow.receiver.on_data(pkt.seq)
        self.schedule(now_ns + flow.reverse_delay_ns, _ACK_ARRIVAL,
                      (pkt.flow_id, ack, tuple(blocks)))

    def _on_ack_arrival(self, payload, now_ns: int) -> None:
        flow_id, ack, blocks = payload
        flow = self.flows[flow_id]
        sends = flow.sender.on_ack(ack, blocks, now_ns)
        self._dispatch_sends(flow, sends, now_ns)
        self._sync_timer(flow)

    def _on_timer(self, flow: Flow, now_ns: int) -> None:
        if now_ns != flow._timer_event_ns:
            return      # stale: superseded by an earlier deadline
        flow._timer_event_ns = None
        sends = flow.sender.on_timer_check(now_ns)
        self._dispatch_sends(flow, sends, now_ns)
        self._sync_timer(flow)

    def _dispatch_sends(self, flow: Flow, sends: list[int], now_ns: int) -> None:
        for seq in sends:
            pkt = Packet(flow.flow_id, seq, flow.payload_bytes)
            if not flow.route[0].offer(self, pkt, now_ns):
                flow.drops += 1

    def _sync_timer(self, flow: Flow) -> None:
        deadline = flow.sender.timer_deadline_ns
        if deadline is not None and (flow._timer_event_ns is None
                                     or deadline < flow._timer_event_ns):
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
