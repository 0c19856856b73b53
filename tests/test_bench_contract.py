"""The names the benchmark under bench/ takes from multcp still exist.

bench/ patches and calls multcp's functions by name.  A rename or a
removal there would otherwise show only as a failed benchmark run, so
these checks import bench's modules the way its worker does, with
bench/ on sys.path, and use what they use.
"""

import importlib
import io
import math
from pathlib import Path

import pytest

from multcp import engine, harness, tcp

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls(bench):
    tracer = bench("tracer")
    owners = [(owner, attr) for owner, attr, _, _ in tracer._TIMED]
    owners += [(engine.Simulation, "schedule"), (tcp.TcpSender, "on_timer_check")]
    before = {(owner, attr): vars(owner)[attr] for owner, attr in owners}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(vars(owner)[attr] is not before[owner, attr]
                   for owner, attr in owners)
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is before[owner, attr] for owner, attr in owners)


def test_gain_sample_takes_the_keywords_the_workloads_pass(bench):
    bench("workloads")      # its module-level names from multcp resolve
    samples = [harness.GainSample(variant="newreno", n_weight=n, seed=0,
                                  gain=gain, heavy_Bps=math.nan,
                                  reference_Bps=math.nan)
               for n, gain in ((1.0, 1.0), (8.0, 2.5))]
    out = io.StringIO(newline="")
    harness.write_gain_summary_csv(harness.summarize_gain(samples), out)
    assert out.getvalue() == ("variant,n,mean_gain,std_gain,seeds\r\n"
                              "newreno,1.0,1.0,0.0,1\r\n"
                              "newreno,8.0,2.5,0.0,1\r\n")
