"""Congestion rules, the interval set, and the sender/receiver machines.

The sender tests drive TcpSender and TcpReceiver directly through a
tiny in-process loop with scripted losses; no simulator involved.
"""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from multcp.tcp import (CongestionState, TcpReceiver, TraceRecord,
                        TcpSender, VARIANTS, _IntervalSet,
                        on_ack_congestion_avoidance, on_ack_slow_start,
                        on_congestion_signal, on_timeout,
                        slow_start_crossover)


# -- window rules ----------------------------------------------------------

def test_crossover_reference_points():
    assert slow_start_crossover(1.0) == pytest.approx(1.0)
    assert slow_start_crossover(1.5) == pytest.approx(3.0)
    assert slow_start_crossover(2.0) == pytest.approx(6.54, abs=0.01)
    assert slow_start_crossover(4.0) == pytest.approx(42.75, abs=0.1)
    assert slow_start_crossover(8.0) == pytest.approx(279.6, abs=0.5)
    with pytest.raises(ValueError):
        slow_start_crossover(0.99)
    # 3 ** (log N / log 1.5) passes the float range a little above N = 5e113
    assert slow_start_crossover(5e113) < math.inf
    with pytest.raises(ValueError, match="^n_weight 6e\\+113 is too large"):
        slow_start_crossover(6e113)


def test_slow_start_opens_two_then_one():
    st_ = CongestionState(n_weight=2.0, cwnd=2.0, ssthresh=64)
    on_ack_slow_start(st_)
    assert st_.cwnd == 4.0          # below crossover 6.54: +2
    st_.cwnd = 7.0
    on_ack_slow_start(st_)
    assert st_.cwnd == 8.0          # above crossover: +1


def test_congestion_avoidance_adds_n_per_window():
    st_ = CongestionState(n_weight=4.0, cwnd=10.0, ssthresh=5)
    for _ in range(10):             # one window's worth of acks, roughly
        on_ack_congestion_avoidance(st_)
    assert st_.cwnd == pytest.approx(14.0, abs=0.8)


def test_loss_scales_by_weighted_factor():
    st_ = CongestionState(n_weight=4.0, cwnd=40.0, ssthresh=10)
    on_congestion_signal(st_)
    assert st_.cwnd == pytest.approx(35.0)
    assert st_.ssthresh == 35


def test_loss_in_slow_start_halves():
    st_ = CongestionState(n_weight=4.0, cwnd=8.0, ssthresh=20)
    on_congestion_signal(st_)
    assert st_.cwnd == pytest.approx(4.0)
    assert st_.ssthresh == 4


def test_timeout_restarts_from_one():
    st_ = CongestionState(n_weight=2.0, cwnd=20.0, ssthresh=10)
    on_timeout(st_)
    assert st_.cwnd == 1.0
    assert st_.ssthresh == 15       # int(20 * 1.5 / 2)


# -- interval set ----------------------------------------------------------

def test_interval_set_add_and_merge():
    s = _IntervalSet()
    assert s.add_range(5, 6) and s.add_range(7, 8) and s.add_range(6, 7)
    assert list(zip(s.starts, s.ends)) == [(5, 8)]
    assert not s.add_range(6, 7)     # already covered
    assert s.total == 3


def test_interval_set_add_range_reports_new():
    s = _IntervalSet()
    s.add_range(10, 15)
    new = s.add_range(12, 20)
    assert new == [(15, 20)]
    assert list(zip(s.starts, s.ends)) == [(10, 20)]
    assert s.add_range(0, 5) == [(0, 5)]
    assert s.total == 15


def test_interval_set_prune_and_count():
    s = _IntervalSet()
    s.add_range(0, 4)
    s.add_range(8, 12)
    assert s.count_below(10) == 6
    s.prune_below(9)
    assert list(zip(s.starts, s.ends)) == [(9, 12)]
    assert s.total == 3
    assert 8 not in s and 9 in s


@given(st.lists(st.integers(0, 60), min_size=1, max_size=40),
       st.integers(0, 61))
def test_interval_set_tracks_a_plain_set(points, cutoff):
    s = _IntervalSet()
    ref = set()
    for x in points:
        assert bool(s.add_range(x, x + 1)) == (x not in ref)
        ref.add(x)
    assert s.total == len(ref)
    assert s.count_below(cutoff) == sum(1 for x in ref if x < cutoff)
    s.prune_below(cutoff)
    covered = sorted(x for a, b in zip(s.starts, s.ends) for x in range(a, b))
    assert covered == sorted(x for x in ref if x >= cutoff)


def runs(values):
    """Maximal runs of consecutive integers, as half-open ranges."""
    out = []
    for x in sorted(values):
        if out and out[-1][1] == x:
            out[-1] = (out[-1][0], x + 1)
        else:
            out.append((x, x + 1))
    return out


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(-1, 9)),
                min_size=1, max_size=30))
def test_add_range_of_any_width_tracks_a_plain_set(inserts):
    # small widths over a small span: inserts overlap, touch on either
    # side, bridge several ranges or fall inside one already held
    s = _IntervalSet()
    ref = set()
    for a, width in inserts:
        b = a + width
        assert s.add_range(a, b) == runs(set(range(a, b)) - ref)
        ref.update(range(a, b))
        assert s.total == len(ref)
        assert list(zip(s.starts, s.ends)) == runs(ref)
        assert all(a < b for a, b in zip(s.starts, s.ends))
        assert all(e < s2 for e, s2 in zip(s.ends, s.starts[1:]))


# -- receiver --------------------------------------------------------------

def test_receiver_cumulative_and_gap():
    r = TcpReceiver()
    assert r.on_data(0)[0] == 1
    assert r.on_data(2)[0] == 1     # hole at 1
    assert r.on_data(1)[0] == 3     # gap closed jumps the ack
    assert r.duplicates == 0
    r.on_data(0)
    assert r.duplicates == 1


def test_receiver_sack_blocks_most_recent_first():
    r = TcpReceiver(sack_enabled=True)
    r.on_data(0)
    r.on_data(4)
    ack, blocks = r.on_data(2)
    assert ack == 1
    assert blocks[0] == (2, 3)      # block containing the new arrival
    assert (4, 5) in blocks


def test_receiver_sack_disabled_means_no_blocks():
    r = TcpReceiver(sack_enabled=False)
    r.on_data(3)
    ack, blocks = r.on_data(5)
    assert blocks == []


class ReferenceReceiver:
    """The receiver's rule on a plain set of segments held above the ack."""

    def __init__(self, sack_enabled):
        self.sack_enabled = sack_enabled
        self.cum_ack = 0
        self.held = set()
        self.segments_received = 0
        self.duplicates = 0

    def on_data(self, seq):
        if seq < self.cum_ack or seq in self.held:
            self.duplicates += 1
        else:
            self.segments_received += 1
            self.held.add(seq)
            while self.cum_ack in self.held:
                self.held.remove(self.cum_ack)
                self.cum_ack += 1
        if not self.sack_enabled:
            return self.cum_ack, []
        # the block holding seq first, then the rest from the highest down,
        # at most four in all
        blocks = runs(self.held)
        first = [r for r in blocks if r[0] <= seq < r[1]]
        rest = [r for r in reversed(blocks) if r not in first]
        return self.cum_ack, (first + rest)[:4]


@given(st.lists(st.integers(0, 30), min_size=1, max_size=60), st.booleans())
def test_receiver_matches_the_reference_rule(arrivals, sack):
    r, ref = TcpReceiver(sack_enabled=sack), ReferenceReceiver(sack)
    for seq in arrivals:
        assert r.on_data(seq) == ref.on_data(seq)
        assert (r.cum_ack, r.duplicates, r.segments_received) == \
            (ref.cum_ack, ref.duplicates, ref.segments_received)


# -- sender/receiver loop --------------------------------------------------

class Loop:
    """Feeds a sender's output straight into a receiver, one RTT per tick.

    `drop` holds (first-transmission) sequence numbers to lose.  Acks come
    back in segment order within the tick, like a FIFO path would deliver.
    """

    def __init__(self, variant, n=1.0, drop=(), **kw):
        self.tx = TcpSender(variant, n, initial_ssthresh=kw.pop("ssthresh", 64),
                            **kw)
        self.rx = TcpReceiver(sack_enabled=(variant == "sack"))
        self.drop = set(drop)
        self.seen = set()
        self.now = 0
        self.pending = self.tx.start(self.now)

    def tick(self, rtt_ns=100_000_000):
        self.now += rtt_ns
        out = []
        for seq in self.pending:
            if seq in self.drop and seq not in self.seen:
                self.seen.add(seq)
                continue
            self.seen.add(seq)
            out.append(self.rx.on_data(seq))
        self.pending = []
        for ack, blocks in out:
            self.pending.extend(self.tx.on_ack(ack, blocks, self.now))
        self.pending.extend(self.tx.on_timer_check(self.now))
        return self

    def run(self, ticks, rtt_ns=100_000_000):
        for _ in range(ticks):
            self.tick(rtt_ns)
        return self


@pytest.mark.parametrize("variant", VARIANTS)
def test_clean_path_delivers_in_order(variant):
    loop = Loop(variant, 2.0).run(12)
    assert loop.rx.cum_ack == loop.tx.cum_ack > 50
    assert loop.tx.retransmits == 0
    assert loop.tx.timeouts == 0


@pytest.mark.parametrize("variant", ["reno", "newreno", "sack"])
def test_single_loss_fast_retransmits(variant):
    loop = Loop(variant, 1.0, drop={20}).run(20)
    assert loop.tx.fast_retransmits == 1
    assert loop.tx.timeouts == 0
    assert loop.tx.cum_ack > 40


def test_tahoe_single_loss_recovers_without_timeout():
    loop = Loop("tahoe", 1.0, drop={20}).run(25)
    assert loop.tx.fast_retransmits == 1
    assert loop.tx.timeouts == 0
    assert loop.tx.cum_ack > 40


def test_tahoe_resend_echoes_do_not_refire():
    # A burst loss makes the rewind resend data the receiver already has;
    # the resulting duplicate acks must not trigger another fast
    # retransmit episode (the guard holds until new data is acked).
    loop = Loop("tahoe", 1.0, drop={20, 21, 22, 23}).run(40)
    assert loop.tx.fast_retransmits == 1
    assert loop.tx.cum_ack > 60


def test_sack_burst_loss_repairs_without_timeout():
    loop = Loop("sack", 2.0, drop={30, 32, 34, 36}).run(30)
    assert loop.tx.timeouts == 0
    assert loop.tx.cum_ack > 80


def test_newreno_multi_loss_stays_in_one_recovery():
    loop = Loop("newreno", 1.0, drop={20, 22}).run(30)
    assert loop.tx.fast_retransmits == 1    # partial ack repaired in-episode
    assert loop.tx.timeouts == 0


def test_timeout_fires_when_every_copy_dies():
    tx = TcpSender("reno", 1.0)
    sends = tx.start(0)
    assert sends == [0]
    assert tx.timer_deadline_ns is not None
    # nothing ever comes back; fire the timer twice
    t1 = tx.timer_deadline_ns
    again = tx.on_timer_check(t1)
    assert tx.timeouts == 1 and again == [0]
    assert tx.timer_deadline_ns > t1    # exponential backoff re-arms
    assert tx.rto_ns <= tx.timer_deadline_ns - t1


def test_timer_disarms_when_all_acked():
    loop = Loop("reno", 1.0, bulk_segments=5)
    loop.run(4)
    assert loop.tx.cum_ack == loop.tx.next_seq == 5
    assert loop.tx.timer_deadline_ns is None


def test_bulk_transfer_completes():
    tx = TcpSender("newreno", 1.0, bulk_segments=30)
    rx = TcpReceiver()
    pending = tx.start(0)
    now = 0
    while tx.cum_ack < tx.bulk_segments:
        now += 50_000_000
        acks = [rx.on_data(seq) for seq in pending]
        pending = []
        for ack, blocks in acks:
            pending.extend(tx.on_ack(ack, blocks, now))
        pending.extend(tx.on_timer_check(now))
        assert now < 10**11
    assert rx.cum_ack == 30
    assert tx.segments_sent == 30


def test_advertised_window_caps_in_flight():
    tx = TcpSender("reno", 1.0, advertised=4)
    tx.state.cwnd = 50.0
    sends = tx.start(0)
    assert len(sends) == 4


def test_sender_rejects_unknown_variant():
    with pytest.raises(ValueError):
        TcpSender("vegas")


def test_rtt_estimator_sets_rto_from_samples():
    loop = Loop("sack", 1.0).run(6, rtt_ns=50_000_000)
    assert loop.tx.srtt_ns == pytest.approx(50_000_000, rel=0.05)
    # the 200 ms floor dominates srtt + 4 rttvar at a steady short RTT
    assert loop.tx.rto_ns == 200_000_000


# -- trace records ----------------------------------------------------------

def test_trace_record_is_slotted_frozen_hashable_and_replaceable():
    r = TraceRecord(5, 0, "ack-received", 2.0, 4.0, 7)
    assert not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.ack = 8
    twin = TraceRecord(time_ns=5, flow_id=0, event="ack-received",
                       cwnd_before=2.0, cwnd_after=4.0, ack=7)
    assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
    lost = dataclasses.replace(r, event="loss-detected", cwnd_after=3.0,
                               ack=None)
    assert (lost.time_ns, lost.event, lost.cwnd_after, lost.ack) \
        == (5, "loss-detected", 3.0, None)
    assert r.ack == 7 and r.cwnd_after == 4.0
