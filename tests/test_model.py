"""Closed-form throughput model and its sawtooth cross-check."""

import math

import pytest
from hypothesis import given, strategies as st

from multcp.model import (SawtoothResult, cycle_data, gain_ratio,
                          multcp_throughput, peak_window, sawtooth_oracle)


def test_cycle_data_matches_hand_integration():
    # N=1, peak 10: window runs 9.5 -> 10 carrying ~w packets per RTT.
    # Closed form: w^2 (N - 1/4) / (2 N^3) = 100 * 0.75 / 2 = 37.5
    assert cycle_data(10.0, 1.0) == pytest.approx(37.5)
    assert cycle_data(10.0, 2.0) == pytest.approx(100 * 1.75 / 16)


@given(st.floats(1.0, 16.0), st.floats(1e-6, 1e-2))
def test_peak_window_inverts_loss_rate(n, p):
    w = peak_window(p, n)
    assert 1.0 / cycle_data(w, n) == pytest.approx(p, rel=1e-9)


def test_throughput_formula_value():
    # T = sqrt(2 N (N - 1/4)) B / (R sqrt(p))
    t = multcp_throughput(4.0, 1e-4, 1000.0, 0.1)
    assert t == pytest.approx(math.sqrt(30.0) * 1000.0 / (0.1 * 1e-2))


def test_throughput_scales_inverse_sqrt_loss():
    lo = multcp_throughput(2.0, 1e-4, 1000.0, 0.1)
    hi = multcp_throughput(2.0, 4e-4, 1000.0, 0.1)
    assert lo / hi == pytest.approx(2.0, rel=1e-12)


def test_gain_ratio_reference_points():
    assert gain_ratio(1.0) == 1.0
    assert gain_ratio(2.0) == pytest.approx(math.sqrt(14.0 / 3.0))
    assert gain_ratio(4.0) == pytest.approx(4.47, abs=0.01)
    assert gain_ratio(8.0) == pytest.approx(9.09, abs=0.01)


@given(st.floats(1.0, 10.0))
def test_gain_ratio_stays_near_n(n):
    assert abs(gain_ratio(n) - n) / n <= 0.15


def test_oracle_agrees_with_formula_spot():
    p, b, r = 1e-3, 1000.0, 0.1
    res = sawtooth_oracle(2.0, p, b, r, cycles=4000, seed=7)
    assert isinstance(res, SawtoothResult)
    expected = multcp_throughput(2.0, p, b, r)
    assert res.throughput_Bps == pytest.approx(expected, rel=0.1)
    assert res.cycles == 3600      # first tenth burned


def test_oracle_is_seed_deterministic():
    a = sawtooth_oracle(3.0, 1e-3, 1000.0, 0.1, cycles=1000, seed=5)
    b = sawtooth_oracle(3.0, 1e-3, 1000.0, 0.1, cycles=1000, seed=5)
    assert a == b


# float.hex of (throughput_Bps, mean_window, packets) per (N, p, seed,
# cycles), recorded from the numpy-scalar recurrence the Python-float one
# replaced; the 70,000-cycle case spans two conversion blocks
ORACLE_BITS = [
    ((1.0, 1e-3, 0, 1000), ("0x1.93028efe0cc58p+18", "0x1.4a255252c7b29p+5",
                            "0x1.b966600000000p+19")),
    ((2.0, 1e-2, 1, 1000), ("0x1.0b43aa433ce7bp+18", "0x1.b5e2c77ef4c91p+4",
                            "0x1.6164000000000p+16")),
    ((4.0, 1e-4, 2, 1000), ("0x1.46cc01bd825c2p+22", "0x1.0bb6470ec0ce9p+9",
                            "0x1.fcb9e00000000p+22")),
    ((7.5, 3e-2, 3, 1000), ("0x1.298d646c911bdp+19", "0x1.e7827c64df002p+5",
                            "0x1.d94c000000000p+14")),
    ((8.0, 1e-3, 4, 70_000), ("0x1.b1bb6f9a38a9ep+21", "0x1.63503aa81e08fp+8",
                              "0x1.e1a6850000000p+25")),
]


@pytest.mark.parametrize("case, bits", ORACLE_BITS)
def test_oracle_bits_are_pinned(case, bits):
    n, p, seed, cycles = case
    res = sawtooth_oracle(n, p, 1000.0, 0.1, cycles=cycles, seed=seed)
    fields = (res.throughput_Bps, res.mean_window, res.packets)
    assert all(type(f) is float for f in fields)
    assert tuple(f.hex() for f in fields) == bits


@pytest.mark.parametrize("call", [
    lambda: cycle_data(0.0, 1.0),
    lambda: cycle_data(10.0, 0.5),
    lambda: peak_window(0.0, 1.0),
    lambda: peak_window(1.5, 1.0),
    lambda: multcp_throughput(1.0, 1e-3, 0.0, 0.1),
    lambda: multcp_throughput(1.0, 1e-3, 1000.0, 0.0),
    lambda: gain_ratio(0.9),
    lambda: sawtooth_oracle(1.0, 1e-3, 1000.0, 0.1, cycles=5),
    lambda: gain_ratio(float("nan")),
    lambda: multcp_throughput(1.0, 1e-3, 1000.0, float("nan")),
    lambda: multcp_throughput(1.0, 1e-3, 1000.0, math.inf),
    lambda: multcp_throughput(1.0, 1e-3, math.inf, 0.1),
    lambda: sawtooth_oracle(1.0, 1e-3, 1000.0, 0.0),
    lambda: sawtooth_oracle(1.0, 1e-3, 1000.0, math.inf),
    lambda: sawtooth_oracle(1.0, 1e-3, float("nan"), 0.1),
    # finite inputs whose closed form is not a finite float
    lambda: multcp_throughput(1e200, 1e-3, 1000.0, 0.1),
    lambda: multcp_throughput(1.0, 1e-4, 1000.0, 1e-320),
    lambda: multcp_throughput(1.0, 1e-10, 1000.0, 1e-320),  # R sqrt(p) is 0.0
    lambda: gain_ratio(1e200),
])
def test_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
