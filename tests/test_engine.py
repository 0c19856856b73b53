"""Event engine: links, scheduling, determinism, conservation."""

import dataclasses
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from multcp.aqm import RedParams, RedQueue
from multcp.engine import (_TIMER, FifoLink, Flow, FlowSpec, LinkSpec, Packet,
                           RedLink, Scenario, Simulation, SimulationError,
                           ns_from_s, s_from_ns)
from multcp.harness import DumbbellParams, build_dumbbell, run_scenario
from multcp.tcp import (ACK_RECEIVED, LOSS_DETECTED, TIMEOUT, VARIANTS,
                        TcpReceiver, TcpSender)


def two_flow_scenario(seed=0, queue="red", duration=8.0, **red_kw):
    red = RedParams(**red_kw) if red_kw else RedParams()
    links = (
        LinkSpec(name="bn", bandwidth_bps=2e6, delay_s=0.010, queue=queue,
                 red=red if queue == "red" else None,
                 limit=25 if queue == "fifo" else None),
        LinkSpec(name="a0", bandwidth_bps=10e6, delay_s=0.005),
        LinkSpec(name="a1", bandwidth_bps=10e6, delay_s=0.008),
    )
    flows = (
        FlowSpec(variant="sack", route=("a0", "bn"), start_jitter_s=0.2),
        FlowSpec(variant="reno", route=("a1", "bn"), start_jitter_s=0.2),
    )
    return Scenario(links=links, flows=flows, duration_s=duration,
                    seed=seed, red=red)


def test_time_conversions_round_trip():
    assert ns_from_s(0.25) == 250_000_000
    assert s_from_ns(ns_from_s(1.5)) == 1.5


def test_fifo_link_serialises_back_to_back():
    link = FifoLink(LinkSpec(name="l", bandwidth_bps=8e6, delay_s=0.001), 1000)

    class Sink:
        def __init__(self):
            self.events = []

        def schedule(self, t, kind, payload):
            self.events.append(t)

    sink = Sink()
    link.offer(sink, Packet(0, 0), 0)
    link.offer(sink, Packet(0, 1), 0)
    # 1000 B at 8 Mb/s = 1 ms each, plus 1 ms propagation
    assert sink.events == [2_000_000, 3_000_000]


def test_fifo_link_tail_drops_past_limit():
    link = FifoLink(LinkSpec(name="l", bandwidth_bps=8e6, delay_s=0.0,
                             limit=2), 1000)

    class Sink:
        def schedule(self, *a):
            pass

    accepted = [link.offer(Sink(), Packet(0, i), 0) for i in range(5)]
    assert accepted == [True, True, True, False, False]
    assert link.drops == 2


def test_fifo_link_tie_rule():
    # a backlog of exactly `limit` service times admits, one ns more drops,
    # and a service that ends at `now` is already done
    ms = 1_000_000

    class Sink:
        def __init__(self):
            self.events = []

        def schedule(self, t, kind, payload):
            self.events.append(t)

    def busy_link():
        # three packets at t=0: 1 ms each, busy until 3 ms
        link = FifoLink(LinkSpec(name="l", bandwidth_bps=8e6, delay_s=0.0,
                                 limit=2), 1000)
        for i in range(3):
            assert link.offer(Sink(), Packet(0, i), 0)
        return link

    link = busy_link()
    assert link.offer(Sink(), Packet(0, 3), 1 * ms)          # backlog 2 ms
    link = busy_link()
    assert not link.offer(Sink(), Packet(0, 3), 1 * ms - 1)  # 2 ms + 1 ns
    assert link.drops == 1
    link, sink = busy_link(), Sink()
    assert link.offer(sink, Packet(0, 3), 3 * ms)            # backlog 0
    assert sink.events == [4 * ms]


def test_unknown_queue_type_rejected():
    # by the spec itself, before any Simulation is built
    with pytest.raises(ValueError, match="^link 'x': queue must be fifo or "
                                         "red, got 'codel'$"):
        LinkSpec(name="x", bandwidth_bps=1e6, delay_s=0.01, queue="codel")


def test_link_keys_its_queue_never_reads_rejected():
    # a red queue's hard limit is red.limit, and a fifo link reads no red
    with pytest.raises(ValueError, match="^link 'x': a red queue's limit is "
                                         "red.limit, not limit, got 1$"):
        LinkSpec(name="x", bandwidth_bps=1e6, delay_s=0.01, queue="red",
                 limit=1)
    with pytest.raises(ValueError, match="^link 'y': red parameters are for "
                                         "red links, not fifo ones$"):
        LinkSpec(name="y", bandwidth_bps=1e6, delay_s=0.01,
                 red=RedParams(thresh=1, maxthresh=2, limit=3))
    with pytest.raises(ValueError, match="^link 'z': limit must be at least 1, "
                                         "got 0$"):
        LinkSpec(name="z", bandwidth_bps=1e6, delay_s=0.01, limit=0)
    assert LinkSpec(name="z", bandwidth_bps=1e6, delay_s=0.01).limit == 1000
    assert LinkSpec(name="x", bandwidth_bps=1e6, delay_s=0.01,
                    queue="red").limit is None


def test_route_over_unknown_link_rejected():
    scn = two_flow_scenario()
    flows = (scn.flows[0], FlowSpec(variant="reno", route=("a1", "nope")))
    with pytest.raises(ValueError, match="^flow 1: route names unknown link "
                                         "'nope'$"):
        Scenario(links=scn.links, flows=flows, duration_s=1.0)


def test_empty_route_rejected():
    # run_until would fail at route[0]
    with pytest.raises(ValueError, match="route must name at least one link"):
        FlowSpec("reno", ())


def test_scheduling_into_the_past_rejected():
    sim = Simulation(two_flow_scenario())
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.schedule(ns_from_s(0.5), 99, None)


def test_base_rtt_accounts_for_both_directions():
    sim = Simulation(two_flow_scenario())
    f = sim.flows[0]
    # forward: serialisation + propagation per hop; reverse: propagation only
    expect = (f.route[0].ser_ns + f.route[0].delay_ns
              + f.route[1].ser_ns + f.route[1].delay_ns
              + f.route[0].delay_ns + f.route[1].delay_ns)
    assert f.base_rtt_ns == expect


def test_flows_make_progress_and_split_capacity():
    sim = Simulation(two_flow_scenario()).run_until(8.0)
    d = [f.delivered_bytes() for f in sim.flows]
    assert min(d) > 100_000
    total_bps = sum(d) * 8 / 8.0
    assert total_bps <= 2e6 * 1.01
    assert total_bps >= 2e6 * 0.70


def test_conservation_holds_mid_run():
    sim = Simulation(two_flow_scenario())
    for t in (0.5, 1.7, 3.0, 8.0):
        sim.run_until(t)
        sim.check_conservation()
    assert sum(f.drops for f in sim.flows) > 0    # RED actually bit


def test_conservation_check_catches_a_miscount():
    sim = Simulation(two_flow_scenario()).run_until(2.0)
    sim.check_conservation()
    sim.flows[1].sender.segments_sent += 1
    with pytest.raises(SimulationError, match=r"^flow 1: sent \d+ != arrived"):
        sim.check_conservation()


def test_identical_seeds_replay_identically():
    def digest(seed):
        sim = Simulation(two_flow_scenario(seed=seed)).run_until(6.0)
        return [(f.delivered_bytes(), f.sender.segments_sent, f.drops,
                 f.sender.timeouts, f.sender.retransmits) for f in sim.flows]

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_run_until_is_resumable():
    whole = Simulation(two_flow_scenario(seed=5)).run_until(6.0)
    parts = Simulation(two_flow_scenario(seed=5))
    for t in (1.0, 2.5, 4.0, 6.0):
        parts.run_until(t)
    assert [f.delivered_bytes() for f in whole.flows] == \
        [f.delivered_bytes() for f in parts.flows]


def test_stop_time_freezes_a_flow():
    scn = two_flow_scenario()
    flows = (scn.flows[0],
             FlowSpec(variant="reno", route=("a1", "bn"), stop_s=2.0))
    sim = Simulation(Scenario(links=scn.links, flows=flows, duration_s=8.0,
                              red=scn.red)).run_until(8.0)
    early = sim.flows[1].delivered_bytes()
    assert early > 0
    # whatever was in flight at the stop drains; nothing new afterwards
    assert sim.flows[1].sender.segments_sent * 1000 <= early + 60_000


def test_trace_records_when_enabled():
    scn = two_flow_scenario()
    sim = Simulation(Scenario(links=scn.links, flows=scn.flows,
                              duration_s=3.0, red=scn.red,
                              trace=True)).run_until(3.0)
    # only what policing reads: no row per sent segment
    assert {r.event for r in sim.trace} == {ACK_RECEIVED, LOSS_DETECTED,
                                             TIMEOUT}
    times = [r.time_ns for r in sim.trace]
    assert times == sorted(times)



def timer_times(sim, flow):
    """Times of every timer event queued for one flow, stale ones included."""
    return [t for t, _, kind, payload in sim._heap
            if kind == _TIMER and payload is flow]


def check_timers(sim):
    """One live timer event per flow, due no later than the deadline."""
    for flow in sim.flows:
        times = timer_times(sim, flow)
        live = flow._timer_event_ns
        assert times.count(live) <= 1
        deadline = flow.sender.timer_deadline_ns
        if deadline is not None:
            assert live in times and live <= deadline


def test_each_flow_keeps_one_live_timer_over_a_long_run():
    # The paper's run: 22 SACK flows over 70 s, flow 0 at N=4.  A superseded
    # timer event that re-armed the timer when popped would leave another
    # stale event behind, and the count would grow with simulated time.
    sim = Simulation(build_dumbbell(22, variant="sack",
                                    weights=[4.0] + [1.0] * 21, seed=1))
    for t in range(1, 71):
        sim.run_until(float(t))
        check_timers(sim)
        for flow in sim.flows:
            assert len(timer_times(sim, flow)) <= 3


@pytest.mark.slow
def test_memory_stays_bounded_on_a_long_run():
    # The untraced paper run, 5x longer: the sack scoreboard, the receiver's
    # out-of-order runs, the RED queue and the event heap must not grow with
    # simulated time.  A first run in the process also fills one-time caches,
    # so an unmeasured warm-up run comes first.
    def scenario(duration):
        return build_dumbbell(22, DumbbellParams(duration_s=duration),
                              variant="sack", weights=[4.0] + [1.0] * 21,
                              seed=1)

    def peak_bytes(duration):
        tracemalloc.start()
        try:
            run_scenario(scenario(duration))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_scenario(scenario(35.0))
    short, long = peak_bytes(35.0), peak_bytes(175.0)
    assert long <= 1.10 * short, (short, long)


def run_state(sim):
    return ([(f.delivered_bytes(), f.sender.segments_sent,
              f.receiver.segments_received + f.receiver.duplicates, f.drops,
              f.sender.state.cwnd, f.sender.timeouts, f.sender.retransmits,
              f.sender.fast_retransmits) for f in sim.flows],
            {name: link.delivered_bits(sim.clock_ns)
             for name, link in sim.links.items()},
            sim.trace)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.data())
def test_invariants_hold_at_random_cut_points(data):
    n = data.draw(st.integers(2, 4), label="flows")
    variants = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=n,
                                  max_size=n), label="variants")
    weights = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n),
                        label="weights")
    duration = data.draw(st.integers(2, 4), label="duration")
    bandwidth = data.draw(st.sampled_from([2e6, 10e6]), label="bottleneck")
    cuts = sorted(data.draw(st.lists(st.floats(0.0, duration), min_size=1,
                                     max_size=6), label="cuts"))
    params = DumbbellParams(duration_s=duration, warmup_s=0.0)
    scenario = build_dumbbell(n, params, variant=variants, weights=weights,
                              seed=data.draw(st.integers(0, 1000), label="seed"),
                              trace=True)
    bottleneck = dataclasses.replace(scenario.links[0], bandwidth_bps=bandwidth)
    scenario = dataclasses.replace(scenario,
                                   links=(bottleneck,) + scenario.links[1:])

    pieces = Simulation(scenario)
    for t in cuts + [duration]:
        pieces.run_until(t)
        pieces.check_conservation()
        check_timers(pieces)
        for flow in pieces.flows:
            assert flow.sender.in_flight() >= 0
            assert flow.sender.state.cwnd >= 1.0
    whole = Simulation(scenario).run_until(duration)
    assert run_state(pieces) == run_state(whole)


# Events pushed per kind, and calls of each per-packet entry point, on the
# short golden dumbbell (4 flows, 12 s, seed 7), as recorded before the
# per-packet path was trimmed.  The benchmark counts events by replacing
# Simulation.schedule and times these entry points by replacing them on
# their classes, so every event and call must still go through there.
EVENTS_AND_CALLS = {
    "sack": ({"arrival": 25050, "ack": 12388, "tx_done": 12414, "timer": 260,
              "other": 4},
             {"FifoLink.offer": 12637, "RedLink.offer": 12620,
              "RedQueue.enqueue": 12620, "TcpSender.on_ack": 12339,
              "TcpSender.on_timer_check": 247, "TcpReceiver.on_data": 12388}),
    "tahoe": ({"arrival": 18916, "ack": 9338, "tx_done": 9347, "timer": 278,
               "other": 4},
              {"FifoLink.offer": 9569, "RedLink.offer": 9550,
               "RedQueue.enqueue": 9550, "TcpSender.on_ack": 9289,
               "TcpSender.on_timer_check": 266, "TcpReceiver.on_data": 9338}),
    "reno": ({"arrival": 19021, "ack": 9432, "tx_done": 9438, "timer": 264,
              "other": 4},
             {"FifoLink.offer": 9583, "RedLink.offer": 9572,
              "RedQueue.enqueue": 9572, "TcpSender.on_ack": 9393,
              "TcpSender.on_timer_check": 244, "TcpReceiver.on_data": 9432}),
    "newreno": ({"arrival": 21898, "ack": 10812, "tx_done": 10838,
                 "timer": 232, "other": 4},
                {"FifoLink.offer": 11061, "RedLink.offer": 11043,
                 "RedQueue.enqueue": 11043, "TcpSender.on_ack": 10792,
                 "TcpSender.on_timer_check": 202,
                 "TcpReceiver.on_data": 10812}),
}


@pytest.mark.parametrize("variant", sorted(EVENTS_AND_CALLS))
def test_events_per_kind_and_calls_per_entry_point(variant, monkeypatch):
    kinds = {Packet: "arrival", tuple: "ack", RedLink: "tx_done",
             Flow: "timer"}
    events, calls = Counter(), Counter()

    def count(owner, name, counter, label):
        original = vars(owner)[name]

        def wrapper(*args):
            counter[label(args)] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    count(Simulation, "schedule", events,
          lambda args: kinds.get(type(args[3]), "other"))
    for owner, name in ((FifoLink, "offer"), (RedLink, "offer"),
                        (RedQueue, "enqueue"), (TcpSender, "on_ack"),
                        (TcpSender, "on_timer_check"),
                        (TcpReceiver, "on_data")):
        key = f"{owner.__name__}.{name}"
        count(owner, name, calls, lambda args, key=key: key)

    params = DumbbellParams(duration_s=12.0, warmup_s=2.0)
    run_scenario(build_dumbbell(4, params, variant=variant,
                                weights=[3.0, 1.0, 1.0, 1.0], seed=7,
                                trace=True))
    assert (dict(events), dict(calls)) == EVENTS_AND_CALLS[variant]
