"""Analytic steady-state throughput of a weighted AIMD connection.

A connection with weight N in congestion avoidance grows its window by N
per round trip and multiplies it by (N - 1/2) / N on each loss.  The
window then follows a sawtooth between W (N - 1/2) / N and the peak W.
Averaging over one cycle and writing the per-packet loss rate p as the
reciprocal of the data carried per cycle gives a closed form for the
long-run throughput, and the model predicts the familiar 1 / sqrt(p)
law with a weight-dependent constant.

`sawtooth_oracle` cross-checks the closed form by directly iterating
the growth and decrease rules with geometrically distributed inter-loss
packet counts; it shares no algebra with the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_BLOCK = 65_536     # gaps converted to Python ints at a time by the oracle


def cycle_data(w_peak: float, n_weight: float) -> float:
    """Packets carried during one sawtooth cycle ending at peak `w_peak`.

    The window climbs from w_peak (N - 1/2) / N back to w_peak at N per
    round trip, carrying the mean window's worth of packets per RTT.
    """
    _check_weight(n_weight)
    if w_peak <= 0:
        raise ValueError("w_peak must be positive")
    return w_peak * w_peak * (n_weight - 0.25) / (2.0 * n_weight ** 3)


def peak_window(p: float, n_weight: float) -> float:
    """Sawtooth peak (in packets) sustained by loss rate p."""
    _check_weight(n_weight)
    _check_loss(p)
    return n_weight * math.sqrt(2.0 * n_weight / (p * (n_weight - 0.25)))

def multcp_throughput(n_weight: float, p: float, packet_bytes: float,
                      rtt_s: float) -> float:
    """Long-run throughput in bytes/second at loss rate p.

    T = sqrt(2 N (N - 1/4)) * B / (R sqrt(p)).  With N = 1 this is the
    standard sqrt(3/2) * B / (R sqrt(p)) rule.  Inputs whose T is not
    a finite float raise ValueError.
    """
    _check_inputs(n_weight, p, packet_bytes, rtt_s)
    numerator = math.sqrt(2.0 * n_weight * (n_weight - 0.25)) * packet_bytes
    denominator = rtt_s * math.sqrt(p)     # 0.0 once the product underflows
    return _finite(numerator / denominator if denominator else math.inf,
                   "throughput", n_weight=n_weight, p=p,
                   packet_bytes=packet_bytes, rtt_s=rtt_s)


def gain_ratio(n_weight: float) -> float:
    """Predicted throughput relative to an unweighted connection at equal p.

    Equals sqrt((4 N^2 - N) / 3); exactly 1 at N = 1, slightly above N
    for larger weights, within 15% of N for N up to 10.  Past N of about
    6.7e153 the ratio is not a finite float, and that N raises ValueError.
    """
    _check_weight(n_weight)
    return _finite(math.sqrt((4.0 * n_weight * n_weight - n_weight) / 3.0),
                   "gain ratio", n_weight=n_weight)


@dataclass(frozen=True)
class SawtoothResult:
    throughput_Bps: float
    mean_window: float
    cycles: int
    packets: float


def sawtooth_oracle(n_weight: float, p: float, packet_bytes: float,
                    rtt_s: float, cycles: int = 10_000,
                    seed: int = 0) -> SawtoothResult:
    """Empirical sawtooth throughput, independent of the closed form.

    Starting from a cold window, each cycle draws a geometric number of
    packets until the next loss, integrates the window growth of N per
    round trip over those packets, then applies the (N - 1/2) / N
    decrease.  The first tenth of the cycles is discarded as warm-up.
    Growing at N per RTT while sending w packets per RTT means
    ds = w dw / N, so after g packets the window is sqrt(w^2 + 2 N g).
    """
    import numpy as np      # here, not at module top: only the oracle needs it

    _check_inputs(n_weight, p, packet_bytes, rtt_s)
    if cycles < 10:
        raise ValueError("need at least 10 cycles")
    rng = np.random.default_rng(seed)
    gaps = rng.geometric(p, size=cycles)
    beta = (n_weight - 0.5) / n_weight
    burn = cycles // 10
    w = 1.0
    packets = 0.0
    time_rtts = 0.0
    # sequential, so on Python ints and floats: the same bits as numpy
    # scalars, several times faster; one block at a time bounds the memory
    for start in range(0, cycles, _BLOCK):
        for i, g in enumerate(gaps[start:start + _BLOCK].tolist(), start):
            w_pk = math.sqrt(w * w + 2.0 * n_weight * g)
            if i >= burn:
                packets += g
                time_rtts += (w_pk - w) / n_weight
            w = beta * w_pk
    throughput = packets * packet_bytes / (time_rtts * rtt_s)
    return SawtoothResult(throughput_Bps=throughput,
                          mean_window=packets / time_rtts,
                          cycles=cycles - burn, packets=packets)


def _check_inputs(n_weight: float, p: float, packet_bytes: float,
                  rtt_s: float) -> None:
    _check_weight(n_weight)
    _check_loss(p)
    if not (0.0 < packet_bytes < math.inf and 0.0 < rtt_s < math.inf):
        raise ValueError("packet_bytes and rtt_s must be positive and finite")


def _finite(value: float, what: str, **inputs: float) -> float:
    """`value` if it is finite, else ValueError naming the inputs."""
    if not math.isfinite(value):
        given = ", ".join(f"{name}={v!r}" for name, v in inputs.items())
        raise ValueError(f"{what} is not a finite float at {given}")
    return value


def _check_weight(n_weight: float) -> None:
    if not n_weight >= 1.0:
        raise ValueError("n_weight must be >= 1")


def _check_loss(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError("loss rate must be in (0, 1)")
