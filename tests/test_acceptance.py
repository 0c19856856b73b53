"""Acceptance gate: nine numbered criteria, one test and one verdict each.

Every test prints a single `[criterion N] PASS ...` or `[criterion N]
FAIL ...` line (visible with `pytest -s` or in the captured output of a
failing run) and then asserts the same condition, so the log always
carries a per-criterion verdict.  Tolerance bands and runtime budgets
are pinned inside the tests.  The two simulation sweeps behind criteria
4 and 5 are expensive and shared through module-scoped fixtures; the
trailing invariant tests reuse the same data.

Expected wall time for the whole module is roughly five minutes, almost
all of it in the 22-flow sweeps.
"""

import math
import random
import statistics
import time

import pytest

from multcp.allocator import allocate_buffers
from multcp.engine import FlowSpec, LinkSpec, Scenario
from multcp.fairness import (Network, check_maxmin, check_weighted_pf,
                             maxmin_allocate, wpf_allocate)
from multcp.harness import (DumbbellParams, build_dumbbell,
                            run_fairness_experiment, run_gain_experiment,
                            run_scenario, summarize_fairness, summarize_gain,
                            write_gain_csv, write_run_csv)
from multcp.model import gain_ratio, multcp_throughput, sawtooth_oracle
from multcp.policing import Declaration, analyze_trace, bill, split_trace

SEEDS = list(range(1, 11))
ALL_VARIANTS = ("tahoe", "reno", "newreno", "sack")
GRIDS = {v: (1.0, 1.5, 2.0, 8.0) for v in ("tahoe", "reno", "newreno")}
GRIDS["sack"] = (1.0, 1.5, 2.0, 4.0, 8.0)


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# -- shared sweeps ---------------------------------------------------------

@pytest.fixture(scope="module")
def gain_matrix():
    """Gain sweep for every variant: 22 flows, ten seeds, 60 s measured."""
    t0 = time.perf_counter()
    samples = {}
    summaries = {}
    for variant in ALL_VARIANTS:
        rows = run_gain_experiment(variant, list(GRIDS[variant]), SEEDS)
        samples[variant] = rows
        for s in summarize_gain(rows):
            summaries[(variant, s.n_weight)] = s
    return {"samples": samples, "summaries": summaries,
            "elapsed_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def fairness_sweep():
    """Same-weight dispersion sweep: 22 flows, ten seeds per grid point."""
    t0 = time.perf_counter()
    rows = run_fairness_experiment([1.0, 2.0, 4.0, 8.0], SEEDS)
    return {"samples": rows, "summaries": summarize_fairness(rows),
            "elapsed_s": time.perf_counter() - t0}


# -- criteria --------------------------------------------------------------

def test_criterion_1_analytic_identity():
    t0 = time.perf_counter()
    rng = random.Random(108)
    worst = 0.0
    for _ in range(100):
        p = 10.0 ** rng.uniform(-6.0, -0.5)
        packet = rng.uniform(40.0, 9000.0)
        rtt = rng.uniform(0.001, 2.0)
        want = math.sqrt(1.5) * packet / (rtt * math.sqrt(p))
        got = multcp_throughput(1.0, p, packet, rtt)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    detail = (f"weight-1 throughput identity, worst rel err {worst:.2e} "
              f"over 100 random triples, {elapsed:.2f} s")
    line = verdict(1, ok, detail)
    assert ok, line


def test_criterion_2_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1.0, 2.0, 4.0, 8.0):
        for p in (1e-4, 1e-3):
            formula = multcp_throughput(n, p, 1000.0, 0.1)
            oracle = sawtooth_oracle(n, p, 1000.0, 0.1, cycles=10_000)
            worst = max(worst, abs(oracle.throughput_Bps - formula) / formula)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 30.0
    detail = (f"sawtooth oracle vs formula, worst rel err {worst:.3f} over "
              f"N x p grid at 10^4 cycles, {elapsed:.1f} s")
    line = verdict(2, ok, detail)
    assert ok, line


def test_criterion_3_gain_ratio_bounds():
    t0 = time.perf_counter()
    exact_at_one = gain_ratio(1.0) == 1.0
    rng = random.Random(3)
    points = [1.0 + 9.0 * i / 1800 for i in range(1801)]
    points += [rng.uniform(1.0, 10.0) for _ in range(200)]
    worst = max(abs(gain_ratio(n) - n) / n for n in points)
    elapsed = time.perf_counter() - t0
    ok = exact_at_one and worst <= 0.15 and elapsed < 1.0
    detail = (f"gain_ratio(1)={gain_ratio(1.0)!r}, worst |ratio-N|/N "
              f"{worst:.3f} over [1,10], {elapsed:.2f} s")
    line = verdict(3, ok, detail)
    assert ok, line


@pytest.mark.slow
def test_criterion_4_gain_curves(gain_matrix):
    g = gain_matrix["summaries"]
    checks = []
    for variant in ALL_VARIANTS:          # (a) low-N proportionality
        for n in (1.0, 1.5, 2.0):
            mean = g[(variant, n)].mean
            checks.append((f"{variant}@{n:g}={mean:.2f}",
                           abs(mean - n) / n <= 0.35))
    for variant in ("tahoe", "reno", "newreno"):   # (b) plateau
        mean = g[(variant, 8.0)].mean
        checks.append((f"{variant}@8={mean:.2f}<=3", mean <= 3.0))
    for n in (4.0, 8.0):                  # (c) sack keeps scaling
        mean = g[("sack", n)].mean
        checks.append((f"sack@{n:g}={mean:.2f}", abs(mean - n) / n <= 0.30))
    elapsed = gain_matrix["elapsed_s"]
    ok = all(passed for _, passed in checks) and elapsed < 600.0
    bad = [label for label, passed in checks if not passed]
    detail = (f"{'; '.join(label for label, _ in checks)}; sweep "
              f"{elapsed:.0f} s" + (f"; OUT OF BAND: {bad}" if bad else ""))
    line = verdict(4, ok, detail)
    assert ok, line


@pytest.mark.slow
def test_criterion_5_fairness_dispersion(fairness_sweep):
    means = {s.n_weight: s.mean for s in fairness_sweep["summaries"]}
    seq = [means[n] for n in (1.0, 2.0, 4.0, 8.0)]
    in_band = 0.03 <= seq[0] <= 0.15
    monotone = all(a <= b for a, b in zip(seq, seq[1:]))
    elapsed = fairness_sweep["elapsed_s"]
    ok = in_band and monotone and elapsed < 600.0
    detail = (f"std/mean by N: "
              + ", ".join(f"{n:g}:{m:.3f}" for n, m in sorted(means.items()))
              + f"; N=1 in [0.03,0.15]: {in_band}; non-decreasing: "
              f"{monotone}; sweep {elapsed:.0f} s")
    line = verdict(5, ok, detail)
    assert ok, line


def _small_maxmin_instances():
    nets = [Network(capacities={"a": 12.0},
                    routes=tuple(("a",) for _ in range(k)))
            for k in (2, 3, 4)]
    nets.append(Network(capacities={"a": 10.0, "b": 6.0},
                        routes=(("a", "b"), ("a",), ("b",))))
    nets.append(Network(capacities={"a": 8.0, "b": 5.0, "c": 9.0},
                        routes=(("a", "b", "c"), ("a",), ("b",), ("c",))))
    nets.append(Network(capacities={"a": 4.0, "b": 16.0},
                        routes=(("a",), ("a", "b"), ("b",), ("b",))))
    nets.append(Network(capacities={"a": 6.0, "b": 7.0, "c": 8.0},
                        routes=(("a", "b"), ("b", "c"), ("a", "c"))))
    return nets


def test_criterion_6_fairness_library():
    t0 = time.perf_counter()
    rng = random.Random(61)
    worst_gap = 0.0
    pf_failures = 0
    for _ in range(50):
        k = rng.randint(2, 6)
        cap = rng.uniform(1.0, 100.0)
        weights = [rng.uniform(0.1, 10.0) for _ in range(k)]
        net = Network(capacities={"l": cap},
                      routes=tuple(("l",) for _ in range(k)))
        alloc = wpf_allocate(net, weights)
        total = sum(weights)
        for i, w in enumerate(weights):
            want = cap * w / total
            worst_gap = max(worst_gap,
                            abs(alloc.rates[i] - want) / max(1.0, want))
        if not check_weighted_pf(net, alloc.rates, weights).passed:
            pf_failures += 1
    mm_bad = []
    for idx, net in enumerate(_small_maxmin_instances()):
        v = check_maxmin(net, maxmin_allocate(net))
        if not (v.passed and v.method == "brute-force"):
            mm_bad.append(idx)
    elapsed = time.perf_counter() - t0
    ok = (worst_gap <= 1e-9 and pf_failures == 0 and not mm_bad
          and elapsed < 60.0)
    detail = (f"single-link wpf worst gap {worst_gap:.2e} over 50 instances, "
              f"{pf_failures} pf-check failures, brute-force maxmin bad "
              f"instances {mm_bad or 'none'}, {elapsed:.1f} s")
    line = verdict(6, ok, detail)
    assert ok, line


def _buffer_capped_throughput(advertised_bytes: int):
    links = (LinkSpec(name="bn", bandwidth_bps=10e6, delay_s=0.020),
             LinkSpec(name="acc", bandwidth_bps=100e6, delay_s=0.001))
    flows = (FlowSpec(variant="sack", n_weight=1.0, route=("acc", "bn"),
                      advertised_bytes=advertised_bytes),)
    scenario = Scenario(links=links, flows=flows, duration_s=20.0,
                        warmup_s=5.0, seed=0, payload_bytes=1000)
    result = run_scenario(scenario)
    return result.flows[0].throughput_Bps, result.flows[0].base_rtt_s


def test_criterion_7_buffer_allocator():
    t0 = time.perf_counter()
    rng = random.Random(71)
    exact_bad = conserve_bad = floor_bad = over_bad = 0
    for _ in range(1000):
        k = rng.randint(2, 8)
        ints = [rng.randint(1, 20) for _ in range(k)]
        seg = rng.choice((500, 1000, 2000))
        prices = {i: float(v) for i, v in enumerate(ints)}
        total = sum(ints)
        # representable budget: shares are whole segments, so exact
        mult = rng.randint(1, 5)
        budget = seg * mult * total
        alloc = allocate_buffers(prices, budget, seg)
        if sum(alloc.values()) != budget or any(
                alloc[i] != seg * mult * v for i, v in enumerate(ints)):
            exact_bad += 1
        # irregular budget: conserved, nobody below their floored share,
        # only the top payer above its ideal share
        budget2 = budget + rng.randint(1, seg - 1) + seg * rng.randint(0, k)
        alloc2 = allocate_buffers(prices, budget2, seg)
        ideal = {i: budget2 * v / total for i, v in enumerate(ints)}
        if sum(alloc2.values()) != budget2:
            conserve_bad += 1
        if any(alloc2[i] < ideal[i] - seg for i in alloc2):
            floor_bad += 1
        if sum(1 for i in alloc2 if alloc2[i] > ideal[i] + 1e-9) > 1:
            over_bad += 1

    # two buffer-capped flows sharing one bottleneck split 3:1 by price
    buffers = allocate_buffers({0: 3.0, 1: 1.0}, 60_000, 1000)
    params = DumbbellParams(duration_s=30.0, warmup_s=5.0)
    scenario = build_dumbbell(2, params,
                              advertised_bytes=[buffers[0], buffers[1]])
    result = run_scenario(scenario)
    ratio = result.flows[0].throughput_Bps / result.flows[1].throughput_Bps
    ratio_ok = abs(ratio - 3.0) / 3.0 <= 0.10

    # throughput grows linearly with the buffer until the path ceiling
    linear_ok = True
    for adv in (10_000, 20_000, 40_000):
        bps, base_rtt = _buffer_capped_throughput(adv)
        bound = adv / base_rtt
        linear_ok = linear_ok and abs(bps - bound) / bound <= 0.15
    flat_lo, _ = _buffer_capped_throughput(300_000)
    flat_hi, _ = _buffer_capped_throughput(600_000)
    capacity_Bps = 10e6 / 8
    flat_ok = (abs(flat_hi - flat_lo) <= 0.02 * flat_lo
               and flat_lo >= 0.90 * capacity_Bps)

    elapsed = time.perf_counter() - t0
    ok = (exact_bad == conserve_bad == floor_bad == over_bad == 0
          and ratio_ok and linear_ok and flat_ok and elapsed < 120.0)
    detail = (f"1000 price vectors: exact_bad={exact_bad} "
              f"conserve_bad={conserve_bad} floor_bad={floor_bad} "
              f"over_bad={over_bad}; two-flow ratio {ratio:.2f} vs 3.0; "
              f"linear ok {linear_ok}, flat ok {flat_ok} "
              f"({flat_lo:.0f} B/s at ceiling); {elapsed:.1f} s")
    line = verdict(7, ok, detail)
    assert ok, line


def test_criterion_8_policing_round_trip():
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    enough_losses = True
    for n in (1.0, 2.0, 4.0, 8.0):
        weights = [n] + [1.0] * 21
        scenario = build_dumbbell(22, variant="sack", weights=weights,
                                  seed=1, trace=True)
        records = split_trace(run_scenario(scenario).trace)[0]
        losses = sum(1 for r in records if r.event == "loss-detected")
        enough_losses = enough_losses and losses >= 20
        analysis = analyze_trace(records)
        rel = abs(analysis.headline_n - n) / n
        worst = max(worst, rel)
        rows.append(f"N={n:g}: est {analysis.headline_n:.2f} "
                    f"({losses} losses)")
    declarations = [Declaration(0, 2.0, 0, 3_000_000_000),
                    Declaration(0, 4.0, 3_000_000_000, 5_000_000_000),
                    Declaration(1, 1.5, 0, 2_000_000_000)]
    charge = bill(declarations, (1_000_000_000, 4_000_000_000))
    bill_ok = charge == 2.0 * 2.0 + 4.0 * 1.0 + 1.5 * 1.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and enough_losses and bill_ok and elapsed < 180.0
    detail = (f"{'; '.join(rows)}; worst rel err {worst:.3f}; bill "
              f"{charge} ({'exact' if bill_ok else 'WRONG'}); {elapsed:.0f} s")
    line = verdict(8, ok, detail)
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    params = DumbbellParams(duration_s=12.0, warmup_s=2.0)
    scenario = build_dumbbell(6, params, seed=7)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_run_csv(run_scenario(scenario), first)
    write_run_csv(run_scenario(scenario), second)
    run_same = first.read_bytes() == second.read_bytes()
    ga, gb = tmp_path / "ga.csv", tmp_path / "gb.csv"
    write_gain_csv(run_gain_experiment("sack", [2.0], [0, 1], n_flows=4,
                                       params=params), ga)
    write_gain_csv(run_gain_experiment("sack", [2.0], [0, 1], n_flows=4,
                                       params=params), gb)
    sweep_same = ga.read_bytes() == gb.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = run_same and sweep_same and elapsed < 60.0
    detail = (f"same-seed scenario CSV identical: {run_same}; same-seed "
              f"sweep CSV identical: {sweep_same}; {elapsed:.1f} s")
    line = verdict(9, ok, detail)
    assert ok, line


# -- invariants riding on the same sweeps ----------------------------------

@pytest.mark.slow
def test_invariant_weight_one_is_symmetric(gain_matrix):
    for variant in ALL_VARIANTS:
        gains = [s.gain for s in gain_matrix["samples"][variant]
                 if s.n_weight == 1.0]
        median = statistics.median(gains)
        assert 0.8 <= median <= 1.25, f"{variant}: N=1 median {median:.3f}"


@pytest.mark.slow
def test_invariant_loss_repair_limits_the_plateau(gain_matrix):
    g = gain_matrix["summaries"]
    sack8 = g[("sack", 8.0)].mean
    for variant in ("tahoe", "reno", "newreno"):
        assert g[(variant, 8.0)].mean < sack8
