"""MulTCP congestion control and the sender/receiver state machines.

A MulTCP connection with weight N behaves like the aggregate of N
ordinary TCP connections: slow start opens the window by two segments
per ack up to a crossover point, congestion avoidance grows it by N
per round trip, and each loss backs the window off by a factor
(N - 1/2) / N instead of 1/2.  With N = 1 every rule reduces to the
standard behaviour.

Loss recovery comes in four flavours (tahoe, reno, newreno, sack) that
share the window rules above and differ only in how they repair holes.

The transition functions at the top operate on a bare CongestionState
and are usable without any simulator; TcpSender drives them and adds
sequencing, retransmission and timer logic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields

VARIANTS = ("tahoe", "reno", "newreno", "sack")

# retransmission timer, Jacobson/Karn style
RTO_INITIAL_NS = 1_000_000_000
RTO_MIN_NS = 200_000_000
RTO_MAX_NS = 60_000_000_000
RTO_GRANULARITY_NS = 1_000_000
DUPACK_THRESHOLD = 3

# trace event names; readers map parsed names onto these shared strings
ACK_RECEIVED = "ack-received"
LOSS_DETECTED = "loss-detected"
TIMEOUT = "timeout"
TRACE_EVENTS = (ACK_RECEIVED, LOSS_DETECTED, TIMEOUT)


def slow_start_crossover(n_weight: float) -> float:
    """Window size where slow-start growth falls back from 2/ack to 1/ack.

    Opening by two segments per ack doubles the window every 2/3 of the
    acks a doubling normally takes, so the aggregate of N connections is
    emulated by keeping the fast rate until the window reaches
    3 ** (log N / (log 3 - log 2)), i.e. N windows' worth of doubling
    compressed into one connection.  Past N of about 5.86e113 the crossover
    overflows a float, and that N raises ValueError.
    """
    if not n_weight >= 1.0:
        raise ValueError("n_weight must be >= 1")
    try:
        return 3.0 ** (math.log(n_weight) / (math.log(3.0) - math.log(2.0)))
    except OverflowError:
        raise ValueError(f"n_weight {n_weight!r} is too large: its slow-start "
                         "crossover overflows a float") from None


@dataclass
class CongestionState:
    """Window state shared by all variants.

    cwnd is kept as a float accumulator; the usable window is its floor.
    ssthresh is integral (it is floored at every reduction).
    """

    n_weight: float = 1.0
    cwnd: float = 1.0
    ssthresh: int = 64
    crossover: float = field(init=False)

    def __post_init__(self) -> None:
        self.crossover = slow_start_crossover(self.n_weight)


def on_ack_slow_start(state: CongestionState) -> None:
    """Slow-start growth: +2 per ack below the crossover, +1 above."""
    if state.cwnd <= state.crossover:
        state.cwnd += 2.0
    else:
        state.cwnd += 1.0


def on_ack_congestion_avoidance(state: CongestionState) -> None:
    """Linear growth: N segments per round trip, spread over the acks."""
    state.cwnd += state.n_weight / state.cwnd


def on_congestion_signal(state: CongestionState) -> float:
    """Multiplicative decrease for one loss; returns the reduced cwnd.

    A loss taken while still in slow start halves the window (the probe
    overshot, so only one of the emulated connections' worth of caution
    is not enough); otherwise one of the N virtual connections backs
    off, scaling the window by (N - 1/2) / N.
    """
    if state.cwnd < state.ssthresh:
        reduced = state.cwnd / 2.0
    else:
        reduced = state.cwnd * (state.n_weight - 0.5) / state.n_weight
    state.ssthresh = max(2, int(reduced))
    state.cwnd = max(1.0, reduced)
    return state.cwnd


def on_timeout(state: CongestionState) -> None:
    """Retransmission timeout: back off ssthresh, restart from one segment."""
    reduced = state.cwnd * (state.n_weight - 0.5) / state.n_weight
    state.ssthresh = max(2, int(reduced))
    state.cwnd = 1.0


@dataclass(frozen=True, slots=True, init=False)
class TraceRecord:
    """One line of a connection trace, as written to trace CSV files.

    The fields are the trace CSV's columns, in order.  Every record
    carries the window before and after its event; only `ack` may be
    None.

    Slotted: a long traced run holds one record per window-growing ack,
    loss episode and timeout, so records carry no per-instance __dict__.
    For the same reason __init__ sets the slots through their own
    descriptors, about twice as fast as the frozen dataclass __init__,
    which makes one object.__setattr__ call per field.
    """

    time_ns: int
    flow_id: int
    event: str          # one of TRACE_EVENTS
    cwnd_before: float
    cwnd_after: float
    ack: int | None     # the cumulative ack, on ack-received rows only

    def __init__(self, time_ns: int, flow_id: int, event: str,
                 cwnd_before: float, cwnd_after: float,
                 ack: int | None) -> None:
        _set_time_ns(self, time_ns)
        _set_flow_id(self, flow_id)
        _set_event(self, event)
        _set_cwnd_before(self, cwnd_before)
        _set_cwnd_after(self, cwnd_after)
        _set_ack(self, ack)


(_set_time_ns, _set_flow_id, _set_event, _set_cwnd_before, _set_cwnd_after,
 _set_ack) = (getattr(TraceRecord, f.name).__set__
              for f in fields(TraceRecord))


class _IntervalSet:
    """Disjoint integer half-open intervals with O(log n) lookups.

    Used for received-but-not-yet-acked runs on the receiver and for the
    sack scoreboard on the sender; both only ever add ranges, query
    membership, and prune from the left.
    """

    __slots__ = ("starts", "ends", "total")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.total = 0

    def __contains__(self, x: int) -> bool:
        i = bisect_right(self.starts, x)
        return i > 0 and x < self.ends[i - 1]

    def add_range(self, a: int, b: int) -> None:
        """Insert [a, b), merging it with every range it overlaps or touches."""
        if a >= b:
            return
        starts, ends = self.starts, self.ends
        i = bisect_left(ends, a)            # ranges i..j-1 overlap or touch
        j = bisect_right(starts, b, i)
        if j == i:
            starts.insert(i, a)
            ends.insert(i, b)
            self.total += b - a
        elif j == i + 1:
            # most calls widen one range, so it is widened in place
            if a < starts[i]:
                self.total += starts[i] - a
                starts[i] = a
            if b > ends[i]:
                self.total += b - ends[i]
                ends[i] = b
        else:
            s, e = min(a, starts[i]), max(b, ends[j - 1])
            self.total += e - s - sum(ends[i:j]) + sum(starts[i:j])
            starts[i:j] = [s]
            ends[i:j] = [e]

    def prune_below(self, cutoff: int) -> None:
        """Remove every value < cutoff."""
        while self.starts and self.ends[0] <= cutoff:
            self.total -= self.ends[0] - self.starts[0]
            del self.starts[0]
            del self.ends[0]
        if self.starts and self.starts[0] < cutoff:
            self.total -= cutoff - self.starts[0]
            self.starts[0] = cutoff

    def count_below(self, x: int) -> int:
        """How many covered values are < x."""
        if not self.ends or self.ends[-1] <= x:
            return self.total
        i = bisect_right(self.starts, x)
        total = 0
        for k in range(i):
            total += min(self.ends[k], x) - self.starts[k]
        return total


class TcpReceiver:
    """Reassembly buffer: cumulative ack plus optional sack blocks."""

    def __init__(self, sack_enabled: bool = False) -> None:
        self.sack_enabled = sack_enabled
        self.cum_ack = 0                 # next expected segment
        self.pending = _IntervalSet()    # received above the cumulative point
        self.segments_received = 0       # unique segments (goodput)
        self.duplicates = 0

    def on_data(self, seq: int) -> tuple[int, list[tuple[int, int]]]:
        """Accept one segment, return (cumulative ack, sack blocks)."""
        pending = self.pending
        starts, ends = pending.starts, pending.ends
        cum_ack = self.cum_ack
        held = -1       # index of the pending range that holds seq
        if seq == cum_ack:
            # every pending range lies above cum_ack, so seq is new
            self.segments_received += 1
            cum_ack += 1
            if starts and starts[0] == cum_ack:
                cum_ack = ends[0]
                pending.prune_below(cum_ack)
            self.cum_ack = cum_ack
        elif seq < cum_ack:
            self.duplicates += 1
        else:
            i = bisect_right(starts, seq)
            if i and seq < ends[i - 1]:
                self.duplicates += 1
                held = i - 1
            else:
                self.segments_received += 1
                pending.add_range(seq, seq + 1)
                # seq joined the range on its left, or starts range i
                held = i - 1 if i and ends[i - 1] > seq else i

        blocks: list[tuple[int, int]] = []
        if self.sack_enabled and starts:
            # the range holding seq first, then the rest from the highest
            # down, at most four in all
            room = 4
            if held >= 0:
                blocks.append((starts[held], ends[held]))
                room = 3
            k = len(starts)
            while room and k:
                k -= 1
                if k != held:
                    blocks.append((starts[k], ends[k]))
                    room -= 1
        return cum_ack, blocks


class TcpSender:
    """Sliding-window sender: pumps segment numbers, reacts to acks and timers.

    The caller supplies clock readings in integer nanoseconds and turns
    the returned segment numbers into packets.  The retransmit
    timer is exposed as `timer_deadline_ns`; the caller must invoke
    on_timer_check() at or after that time.  pump() ends start, on_ack
    and a due on_timer_check and alone sets the timer; acked new data, a
    new recovery episode and a fired timeout restart it by clearing it.
    """

    def __init__(self, variant: str, n_weight: float = 1.0, *,
                 flow_id: int = 0,
                 initial_ssthresh: int = 64,
                 advertised: int | None = None,
                 bulk_segments: int | None = None,
                 trace: list[TraceRecord] | None = None) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self._sack = variant == "sack"
        self._renoish = variant in ("reno", "newreno")
        self.flow_id = flow_id
        self.state = CongestionState(n_weight=n_weight, ssthresh=initial_ssthresh)
        self.advertised = advertised if advertised is not None else 1 << 30
        self.bulk_segments = bulk_segments
        self.trace = trace

        self.next_seq = 0            # next new segment to send
        self.cum_ack = 0             # everything below is delivered
        self.highest_sent = -1
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0      # recovery ends when cum_ack reaches this
        # Rewinding next_seq puts already-delivered data back on the wire, and
        # its arrival produces duplicate acks at the catch-up point.  Dupack
        # triggers stay disarmed until cum_ack passes the frontier recorded at
        # the rewind, so those echoes cannot fire a bogus fast retransmit.
        self.guard_point = -1

        # sack scoreboard.  No lost segment is sacked, and cum_ack never is
        # (the receiver lacks it): in_flight() counts the two apart, on_ack
        # unmarks lost over each whole block, and recovery marks cum_ack.
        self.sacked = _IntervalSet()
        self.lost: set[int] = set()         # marked lost, not yet retransmitted
        # seq -> next_seq at retransmit time; once three segments past that
        # boundary are sacked, the retransmission itself is declared lost
        self.retx_marked: dict[int, int] = {}
        self._loss_scan_floor = 0

        # retransmission timer
        self.timer_deadline_ns: int | None = None
        self.rto_ns = RTO_INITIAL_NS
        self.srtt_ns: int | None = None
        self.rttvar_ns = 0
        self.backoff = 0
        self._timing_seq: int | None = None
        self._timing_sent_ns = 0

        self.active = False
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # -- window accounting ------------------------------------------------

    def in_flight(self) -> int:
        out = self.next_seq - self.cum_ack
        if self._sack:
            # Count only the transmission window: after a timeout rewind the
            # scoreboard may hold blocks at or above next_seq, and subtracting
            # those would underflow the estimate and mis-disarm the timer.
            if self.sacked.total:
                out -= self.sacked.count_below(self.next_seq)
            if self.lost:
                out -= len(self.lost)
        return out

    # -- sending ----------------------------------------------------------

    def start(self, now_ns: int) -> list[int]:
        self.active = True
        return self.pump(now_ns)

    def pump(self, now_ns: int) -> list[int]:
        """Emit what the windows allow; then stop the timer if nothing is
        outstanding, else start it (now + backed-off rto) if stopped."""
        sends: list[int] = []
        window = 0
        if self.active:
            window = int(self.state.cwnd)
            if self._renoish and not self.in_recovery:
                window += min(self.dupacks, 2)      # limited transmit
            if window > self.advertised:
                window = self.advertised
        # Every emitted segment raises in_flight() by one; skipping a sacked
        # segment advances next_seq and the sacked count below it together.
        in_flight = self.in_flight()
        sack, sacked, lost = self._sack, self.sacked, self.lost
        bulk = self.bulk_segments
        next_seq, highest_sent = self.next_seq, self.highest_sent
        while in_flight < window:
            if sack and lost:
                seq = min(lost)
                lost.discard(seq)
                self.retx_marked[seq] = next_seq
                self._retransmit(sends, seq)
                in_flight += 1
                continue
            if bulk is not None and next_seq >= bulk:
                break
            seq = next_seq
            next_seq += 1
            if sack and sacked.total and seq in sacked:
                continue    # receiver already holds it (post-timeout resend)
            if seq <= highest_sent:
                if sack:
                    self.retx_marked[seq] = next_seq
                self._retransmit(sends, seq)
            else:
                sends.append(seq)
                self.segments_sent += 1
                highest_sent = seq
                if self._timing_seq is None:
                    self._timing_seq = seq
                    self._timing_sent_ns = now_ns
            in_flight += 1
        self.next_seq = next_seq
        self.highest_sent = highest_sent
        if self.cum_ack >= next_seq:
            self.timer_deadline_ns = None
        elif self.timer_deadline_ns is None:
            rto = self.rto_ns << self.backoff
            self.timer_deadline_ns = now_ns + (rto if rto < RTO_MAX_NS
                                               else RTO_MAX_NS)
        return sends

    def _retransmit(self, sends: list[int], seq: int) -> None:
        sends.append(seq)
        self.segments_sent += 1
        self.retransmits += 1
        if seq == self._timing_seq:
            self._timing_seq = None     # Karn: never time a retransmission

    # -- ack processing ---------------------------------------------------

    def on_ack(self, ack: int, sack_blocks: list[tuple[int, int]],
               now_ns: int) -> list[int]:
        """Process one ack; returns segments to transmit right now."""
        sends: list[int] = []
        sack = self._sack

        if sack and sack_blocks:
            cum_ack, sacked, lost = self.cum_ack, self.sacked, self.lost
            for a, b in sack_blocks:
                if a < cum_ack:
                    a = cum_ack
                sacked.add_range(a, b)
                if lost:
                    lost.difference_update([x for x in lost if a <= x < b])

        if ack > self.cum_ack:
            self._on_advance(ack, now_ns, sends)
        elif ack == self.cum_ack and self.next_seq > self.cum_ack:
            self._on_duplicate(now_ns, sends)

        if sack:
            if self.sacked.total:
                self.update_scoreboard()
                if (not self.in_recovery and not self.lost
                        and self.cum_ack not in self.retx_marked
                        and self.in_flight() == 1):
                    # early retransmit: every outstanding segment except the
                    # head hole is sacked, so no further dupacks are coming
                    self.lost.add(self.cum_ack)
            if not self.in_recovery and self.lost:
                # scoreboard says data is missing even without three dupacks;
                # after a recovery, holes above its point open a new episode
                self._enter_recovery(now_ns, sends)

        sends.extend(self.pump(now_ns))
        return sends

    def _on_advance(self, ack: int, now_ns: int, sends: list[int]) -> None:
        st = self.state
        newly = ack - self.cum_ack
        self.cum_ack = ack
        if self.next_seq < ack:
            self.next_seq = ack     # catch up after a timeout rewind
        if self._sack:
            if self.sacked.total:
                self.sacked.prune_below(ack)
            if self.lost:
                for s in [s for s in self.lost if s < ack]:
                    self.lost.discard(s)
            if self.retx_marked:
                for s in [s for s in self.retx_marked if s < ack]:
                    del self.retx_marked[s]

        self.backoff = 0
        if self._timing_seq is not None and ack > self._timing_seq:
            self._rtt_sample(now_ns - self._timing_sent_ns)
            self._timing_seq = None

        if self.in_recovery:
            if ack >= self.recovery_point:
                self._exit_recovery()
            elif self.variant == "newreno":
                # partial ack: the next hole is known lost, repair it now
                self._retransmit(sends, self.cum_ack)
                st.cwnd = max(1.0, st.cwnd - newly + 1.0)
            elif self.variant == "reno":
                self._exit_recovery()
            # sack: stay in recovery, the scoreboard drives retransmissions
        else:
            self.dupacks = 0
            before = st.cwnd
            if st.cwnd < st.ssthresh:
                on_ack_slow_start(st)
            else:
                on_ack_congestion_avoidance(st)
            if self.trace is not None:
                self._record(now_ns, ACK_RECEIVED, before, st.cwnd, ack)
        self.timer_deadline_ns = None   # pump restarts it

    def _on_duplicate(self, now_ns: int, sends: list[int]) -> None:
        st = self.state
        if self.in_recovery:
            if self._renoish:
                st.cwnd += 1.0      # window inflation: the dupack left the network
            return
        self.dupacks += 1
        if self._sack:
            return      # sack recovery is triggered by the scoreboard
        if self.dupacks == DUPACK_THRESHOLD and self.cum_ack > self.guard_point:
            self._enter_recovery(now_ns, sends)

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.dupacks = 0
        self.retx_marked.clear()
        if self._renoish:
            self.state.cwnd = float(self.state.ssthresh)    # deflate

    def _enter_recovery(self, now_ns: int, sends: list[int]) -> None:
        st = self.state
        before = st.cwnd
        reduced = on_congestion_signal(st)
        self._record(now_ns, LOSS_DETECTED, before, reduced)
        self.fast_retransmits += 1
        # fresh timer for the repair; the stale deadline predates the episode
        self.timer_deadline_ns = None   # pump restarts it
        if self.cum_ack == self._timing_seq:
            self._timing_seq = None
        if self.variant == "tahoe":
            # slow-start resend of the whole window from the hole; wasteful
            # but repairs multi-loss windows without waiting for the timer
            st.cwnd = 1.0
            self.guard_point = max(self.guard_point, self.next_seq)
            self.next_seq = self.cum_ack
            return
        self.in_recovery = True
        self.recovery_point = self.next_seq
        if self._sack:
            if self.cum_ack not in self.retx_marked:
                self.lost.add(self.cum_ack)
        else:
            st.cwnd = float(st.ssthresh) + DUPACK_THRESHOLD  # inflate for the three dupacks
            self._retransmit(sends, self.cum_ack)

    def update_scoreboard(self) -> None:
        """Mark a hole lost once the highest sack sits three segments past it."""
        # Never mark beyond next_seq: after a timeout rewind the region above
        # it is handled by the ordinary resend path, not by hole repair.
        sacked, lost, retx_marked = self.sacked, self.lost, self.retx_marked
        floor = self._loss_scan_floor
        threshold = min(sacked.ends[-1] - 3, self.next_seq)
        for s in range(max(self.cum_ack, floor), threshold):
            if s not in sacked and s not in retx_marked:
                lost.add(s)
        if threshold > floor:
            self._loss_scan_floor = threshold
        if retx_marked:
            # A retransmission overtaken by three later sacks was lost as well.
            sacked_total = sacked.total
            for s, boundary in list(retx_marked.items()):
                if sacked_total - sacked.count_below(boundary) >= DUPACK_THRESHOLD:
                    del retx_marked[s]
                    if s not in sacked:
                        lost.add(s)

    # -- timer ------------------------------------------------------------

    def on_timer_check(self, now_ns: int) -> list[int]:
        """Fire the retransmission timeout if the deadline has passed."""
        if self.timer_deadline_ns is None or now_ns < self.timer_deadline_ns:
            return []
        st = self.state
        before = st.cwnd
        if self.backoff == 0:
            on_timeout(st)
        else:
            # repeated timeout for the same data: hold ssthresh steady
            st.cwnd = 1.0
        self.timeouts += 1
        self._record(now_ns, TIMEOUT, before, st.cwnd)
        self._timing_seq = None     # Karn
        self.dupacks = 0
        self.in_recovery = False
        self.guard_point = max(self.guard_point, self.next_seq)
        self.next_seq = self.cum_ack    # rewind; the resend path skips sacked data
        if self._sack:
            self.lost.clear()
            self.retx_marked.clear()
            self._loss_scan_floor = self.cum_ack
        self.backoff = min(self.backoff + 1, 6)
        self.timer_deadline_ns = None   # pump restarts it, backed off
        return self.pump(now_ns)

    def _rtt_sample(self, sample_ns: int) -> None:
        if self.srtt_ns is None:
            self.srtt_ns = sample_ns
            self.rttvar_ns = sample_ns // 2
        else:
            err = sample_ns - self.srtt_ns
            self.srtt_ns += err >> 3
            self.rttvar_ns += (abs(err) - self.rttvar_ns) >> 2
        rto = self.srtt_ns + 4 * self.rttvar_ns
        # round up to the timer granularity
        rto = -(-rto // RTO_GRANULARITY_NS) * RTO_GRANULARITY_NS
        self.rto_ns = max(RTO_MIN_NS, min(RTO_MAX_NS, rto))

    # -- trace ------------------------------------------------------------

    def _record(self, now_ns: int, event: str, before: float, after: float,
                ack: int | None = None) -> None:
        if self.trace is not None:
            self.trace.append(TraceRecord(now_ns, self.flow_id, event,
                                          before, after, ack))
