"""FifoLink against an event-driven drop-tail link.

FifoLink models its queue analytically: it keeps only a busy-until
horizon and schedules each admitted packet's arrival at the next hop
when the packet is offered.  The reference below keeps the packets
themselves in a deque and sends them one transmit-done event at a time,
the way a real output port works.  Swapped in for every FIFO link, it
must give the same run CSV and trace CSV, byte for byte.
"""

import dataclasses
import hashlib
from collections import deque
from pathlib import Path

import pytest

from multcp import engine
from multcp.harness import (DumbbellParams, build_dumbbell, load_scenario,
                            run_scenario, write_run_csv)
from multcp.policing import write_trace_csv
from multcp.tcp import VARIANTS

DEMO = Path(__file__).resolve().parent.parent / "demos" / "two_flow.yaml"


class DropTailReference(engine._Link):
    """Drop-tail port: a deque of unsent packets, the head in service."""

    def __init__(self, spec, payload_bytes):
        super().__init__(spec, payload_bytes)
        self.limit = spec.limit
        self.queue = deque()
        self.head_done_ns = 0       # when the head's service ends
        self.bits_sent = 0
        self.drops = 0

    def offer(self, sim, pkt, now_ns):
        unsent = len(self.queue)
        if unsent and self.head_done_ns <= now_ns:
            unsent -= 1     # its transmit-done is due now but not yet run
        if unsent > self.limit:
            self.drops += 1
            return False
        self.queue.append(pkt)
        if len(self.queue) == 1:
            self._serve(sim, now_ns)
        return True

    def _serve(self, sim, now_ns):
        self.head_done_ns = now_ns + self.ser_ns
        sim.schedule(self.head_done_ns, engine._TX_DONE, self)

    def on_tx_done(self, sim, now_ns):
        self.bits_sent += self.packet_bits
        sim.schedule(now_ns + self.delay_ns, engine._ARRIVAL,
                     self.queue.popleft())
        if self.queue:
            self._serve(sim, now_ns)

    def delivered_bits(self, now_ns):
        return float(self.bits_sent)


def with_fifo_bottleneck(scenario, name, limit):
    links = tuple(dataclasses.replace(link, queue="fifo", limit=limit, red=None)
                  if link.name == name else link for link in scenario.links)
    return dataclasses.replace(scenario, links=links, trace=True)


def output_digests(scenario, tmp_path):
    result = run_scenario(scenario)
    write_run_csv(result, tmp_path / "run.csv")
    write_trace_csv(result.trace, tmp_path / "trace.csv")
    return [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("run.csv", "trace.csv")]


def assert_same_bytes(scenario, tmp_path, monkeypatch):
    # the bottleneck must overflow, or the drop rule goes unchecked
    sim = engine.Simulation(scenario).run_until(scenario.duration_s)
    assert sim.links["bottleneck"].drops > 0
    analytic = output_digests(scenario, tmp_path)
    monkeypatch.setattr(engine, "FifoLink", DropTailReference)
    sim = engine.Simulation(scenario)
    assert all(isinstance(link, DropTailReference)
               for link in sim.links.values())
    assert output_digests(scenario, tmp_path) == analytic


def test_two_flow_demo_with_a_fifo_bottleneck(tmp_path, monkeypatch):
    scenario = with_fifo_bottleneck(load_scenario(DEMO), "bottleneck", 16)
    assert_same_bytes(scenario, tmp_path, monkeypatch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dumbbell_with_a_fifo_bottleneck(variant, tmp_path, monkeypatch):
    params = DumbbellParams(duration_s=20.0, warmup_s=2.0)
    scenario = build_dumbbell(6, params, variant=variant,
                              weights=[4.0] + [1.0] * 5, seed=3)
    scenario = with_fifo_bottleneck(scenario, "bottleneck", 20)
    assert_same_bytes(scenario, tmp_path, monkeypatch)
