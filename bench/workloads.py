"""The benchmark's four workloads.

A workload turns (seed, index) into the input of one pass, runs the pass
through multcp's public functions (`run`, the timed part), then checks
every output the pass produced (`check`, untimed).  Module functions are
called through their modules (`harness.run_scenario`, not a name bound
at import) so that the tracer's patches see them.

A check counts operations: one simulated run, one sweep cell, one
analysed flow or one library instance.  An operation fails when any
check on it fails; a raised exception fails every operation of the pass.

Each pass also returns the SHA-256 of every output file it wrote and the
simulated statistics behind it, keyed by a name for its input: equal
keys must give equal outputs on the same source tree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from multcp import allocator, cli, fairness, harness, model, policing
from multcp.fairness import Network

NS_PER_SEC = 1_000_000_000
BOTTLENECK = "bottleneck"
HEAVY_WEIGHT = 4.0      # flow 0's N in the dumbbell runs, as in the paper
TOLERANCE = 0.1         # verify_declaration's tolerance in police-trace
N_GRID = (1, 8)         # sweep-newreno's cells, one seed each
ORACLE_CYCLES = 10_000  # sawtooth_oracle cycles per criterion-2 grid point


@dataclass
class Checked:
    """What `check` found in one pass."""

    attempted: int
    failures: list[str]             # one line per failed operation
    digests: dict[str, str]         # output name -> sha256
    stats: dict                     # simulated statistics behind the digests
    info: dict = field(default_factory=dict)    # measured sizes, not outputs


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- shared run checks -------------------------------------------------------

def run_problems(result) -> list[str]:
    """Positive throughput on every flow; bottleneck utilisation in (0, 1]."""
    problems = [f"flow {f.flow_id}: throughput {f.throughput_Bps!r}"
                for f in result.flows if not f.throughput_Bps > 0]
    util = result.link_utilization.get(BOTTLENECK)
    if util is None or not 0.0 < util <= 1.0:
        problems.append(f"bottleneck utilisation {util!r} outside (0, 1]")
    return problems


def run_csv_problems(result, path: Path) -> list[str]:
    """The run CSV parses back to exactly the results that were written."""
    want = [(result.seed, f.flow_id, f.variant, f.n_weight, f.throughput_Bps,
             f.base_rtt_s, f.delivered_bytes, f.drops, f.retransmits,
             f.timeouts, f.fast_retransmits) for f in result.flows]
    types = (int, int, str, float, float, float, int, int, int, int, int)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) - 1 != len(want):
        return [f"{path.name}: {max(len(rows) - 1, 0)} rows for "
                f"{len(want)} flows"]
    try:
        got = [tuple(t(v) for t, v in zip(types, row, strict=True))
               for row in rows[1:]]
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    return [f"{path.name}: row for flow {w[1]} reads back as {g}"
            for g, w in zip(got, want) if g != w]


def run_stats(result) -> dict:
    return {"flows": [{"flow": f.flow_id, "drops": f.drops,
                       "retransmits": f.retransmits, "timeouts": f.timeouts,
                       "delivered_bytes": f.delivered_bytes}
                      for f in result.flows]}


def _dumbbell(n_flows: int, params, seed: int, trace: bool):
    weights = [HEAVY_WEIGHT] + [1.0] * (n_flows - 1)
    return harness.build_dumbbell(n_flows, params, variant="sack",
                                  weights=weights, seed=seed, trace=trace)


# -- dumbbell-sack -----------------------------------------------------------

class DumbbellSack:
    """The paper's headline run: 22 SACK flows, flow 0 at N=4, 70 s."""

    name = "dumbbell-sack"

    def __init__(self, n_flows: int = 22,
                 params: harness.DumbbellParams | None = None) -> None:
        self.n_flows, self.params = n_flows, params

    def make_input(self, seed: int, index: int):
        sim_seed = seed + index
        key = f"sack-{self.n_flows}f-n{HEAVY_WEIGHT:g}-seed{sim_seed}"
        return key, _dumbbell(self.n_flows, self.params, sim_seed, trace=False)

    def run(self, scenario, workdir: Path):
        result = harness.run_scenario(scenario)
        harness.write_run_csv(result, workdir / "run.csv")
        return result

    def check(self, scenario, result, workdir: Path) -> Checked:
        path = workdir / "run.csv"
        problems = run_problems(result) + run_csv_problems(result, path)
        failures = ["; ".join(problems)] if problems else []
        return Checked(1, failures, {"run.csv": sha256_file(path)},
                       run_stats(result))


# -- sweep-newreno -----------------------------------------------------------

class SweepNewreno:
    """`multcp sweep gain` in process: N=1 and N=8 cells, NewReno.

    The sweep command always simulates seeds 0..k-1, so the benchmark
    seed cannot reach this workload: every pass runs the same cells.
    """

    name = "sweep-newreno"

    def __init__(self, n_flows: int = 22) -> None:
        self.n_flows = n_flows

    def make_input(self, seed: int, index: int):
        grid = ",".join(f"{n:g}" for n in N_GRID)
        key = f"newreno-{self.n_flows}f-n{grid}-k1"
        argv = ["sweep", "gain", "--variant", "newreno", "--n-grid", grid,
                "--seeds", "1", "--flows", str(self.n_flows)]
        return key, argv

    def run(self, argv, workdir: Path) -> int:
        return cli.main(argv + ["-o", str(workdir)])

    def check(self, argv, exit_code: int, workdir: Path) -> Checked:
        cells = [(float(n), 0) for n in N_GRID]
        gain_path = workdir / "gain.csv"
        summary_path = workdir / "gain_summary.csv"
        whole = []      # problems that fail every cell
        failures = []
        samples = []
        if exit_code != 0:
            whole.append(f"multcp sweep exited with {exit_code}")
        else:
            rows = _read_csv(gain_path)
            if rows[:1] != [["variant", "n", "seed", "gain"]] \
                    or len(rows) - 1 != len(cells):
                whole.append(f"gain.csv: header or row count wrong ({len(rows)})")
            else:
                for (n, s), row in zip(cells, rows[1:]):
                    try:
                        gain = float(row[3])
                        ok = (row[0] == "newreno" and float(row[1]) == n
                              and int(row[2]) == s and math.isfinite(gain)
                              and gain > 0)
                    except (ValueError, IndexError):
                        ok = False
                    if not ok:
                        failures.append(f"cell n={n:g} seed={s}: row {row}")
                        continue
                    samples.append(harness.GainSample(
                        variant=row[0], n_weight=n, seed=s, gain=gain,
                        heavy_Bps=math.nan, reference_Bps=math.nan))
                if not failures:
                    whole += _rewrite_problems(samples, workdir)
        if whole:
            failures = [f"cell n={n:g} seed={s}: {'; '.join(whole)}"
                        for n, s in cells]
        digests = {p.name: sha256_file(p) for p in (gain_path, summary_path)
                   if p.exists()}
        stats = {"gains": [[s.n_weight, s.seed, s.gain] for s in samples]}
        return Checked(len(cells), failures, digests, stats)


def _read_csv(path: Path) -> list[list[str]]:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rewrite_problems(samples, workdir: Path) -> list[str]:
    """Both sweep CSVs parse back to rows that rewrite to the same bytes."""
    problems = []
    again = workdir / "reread"
    again.mkdir(exist_ok=True)
    harness.write_gain_csv(samples, again / "gain.csv")
    harness.write_gain_summary_csv(harness.summarize_gain(samples),
                                   again / "gain_summary.csv")
    for name in ("gain.csv", "gain_summary.csv"):
        if not (workdir / name).exists() or \
                (workdir / name).read_bytes() != (again / name).read_bytes():
            problems.append(f"{name} does not read back to the same rows")
    return problems


# -- police-trace ------------------------------------------------------------

@dataclass
class PoliceOutput:
    result: object
    records: list
    analyses: dict
    reports: dict
    charge: float


class PoliceTrace:
    """Traced N=4 run, trace CSV round trip, per-flow policing, billing."""

    name = "police-trace"
    statuses = ("compliant", "violation", "unverifiable")

    def __init__(self, n_flows: int = 22,
                 params: harness.DumbbellParams | None = None) -> None:
        self.n_flows, self.params = n_flows, params

    def make_input(self, seed: int, index: int):
        sim_seed = seed + index
        key = f"sack-{self.n_flows}f-n{HEAVY_WEIGHT:g}-seed{sim_seed}-trace"
        return key, _dumbbell(self.n_flows, self.params, sim_seed, trace=True)

    def run(self, scenario, workdir: Path) -> PoliceOutput:
        result = harness.run_scenario(scenario)
        path = workdir / "trace.csv"
        policing.write_trace_csv(result.trace, path)
        records = policing.read_trace_csv(path)
        by_flow = policing.split_trace(records)
        end_ns = round(scenario.duration_s * NS_PER_SEC)
        analyses, reports, declarations = {}, {}, []
        for i, spec in enumerate(scenario.flows):
            flow_records = by_flow.get(i, [])
            analyses[i] = policing.analyze_trace(flow_records)
            decl = policing.Declaration(i, spec.n_weight, 0, end_ns)
            reports[i] = policing.verify_declaration(
                flow_records, decl, tolerance=TOLERANCE)
            declarations.append(decl)
        charge = policing.bill(declarations, (0, end_ns))
        return PoliceOutput(result, records, analyses, reports, charge)

    def check(self, scenario, out: PoliceOutput, workdir: Path) -> Checked:
        path = workdir / "trace.csv"
        whole = run_problems(out.result)
        if out.records != list(out.result.trace):
            whole.append("trace.csv does not read back to the same records")
        want = sum(f.n_weight for f in scenario.flows) * scenario.duration_s
        if not math.isclose(out.charge, want, rel_tol=1e-12):
            whole.append(f"bill {out.charge!r} != {want!r} weight-seconds")
        failures = []
        for i in range(len(scenario.flows)):
            if whole:
                failures.append(f"flow {i}: {'; '.join(whole)}")
            elif out.reports[i].status not in self.statuses:
                failures.append(f"flow {i}: status {out.reports[i].status!r}")
            elif i == 0 and not (out.analyses[0].headline_n or 0) > 0:
                failures.append("flow 0: analyze_trace found no weight")
        stats = run_stats(out.result)
        stats["policing"] = [
            {"flow": i, "headline_n": a.headline_n, "method": a.method,
             "status": out.reports[i].status}
            for i, a in sorted(out.analyses.items())]
        stats["bill"] = out.charge
        info = {"policing.trace_mb": path.stat().st_size / 1e6}
        return Checked(len(scenario.flows), failures,
                       {"trace.csv": sha256_file(path)}, stats, info)


# -- analysis-libs -----------------------------------------------------------

def _maxmin_instances() -> list[Network]:
    """The small max-min instances that criterion 6 brute-forces."""
    nets = [Network(capacities={"a": 12.0}, routes=tuple(("a",) for _ in range(k)))
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


@dataclass
class LibsInput:
    oracle_seed: int
    single: list        # (Network, weights): one shared link
    multi: list         # (Network, weights): three links, four connections
    prices: list        # (prices, segment, multiplier, irregular budget)


class AnalysisLibs:
    """model, fairness and allocator on seeded inputs; no event loop.

    The verdicts are those of acceptance criteria 2 (oracle within 10%
    of the formula), 6 (single-link weighted PF exact and passing the PF
    check; max-min passing the brute-force check) and 7 (buffer splits
    exact, conserved, floored and with one top payer).  Multi-link
    weighted PF is held to its own KKT residual; the PF checker's
    verdict on it is recorded, not asserted (see bench/README.md).
    """

    name = "analysis-libs"
    oracle_grid = [(n, p) for n in (1.0, 2.0, 4.0, 8.0) for p in (1e-4, 1e-3)]

    def __init__(self, single: int = 20, multi: int = 10,
                 price_vectors: int = 1000, pf_samples: int = 10_000) -> None:
        self.n_single, self.n_multi = single, multi
        self.n_prices, self.pf_samples = price_vectors, pf_samples

    def make_input(self, seed: int, index: int):
        rng = random.Random(f"analysis-libs:{seed}:{index}")
        single = []
        for _ in range(self.n_single):
            k = rng.randint(2, 6)
            net = Network(capacities={"l": rng.uniform(1.0, 100.0)},
                          routes=tuple(("l",) for _ in range(k)))
            single.append((net, [rng.uniform(0.1, 10.0) for _ in range(k)]))
        multi = []
        links = ["l0", "l1", "l2"]
        for _ in range(self.n_multi):
            caps = {name: rng.uniform(1.0, 100.0) for name in links}
            routes = tuple(tuple(sorted(rng.sample(links, rng.randint(1, 3))))
                           for _ in range(4))
            multi.append((Network(capacities=caps, routes=routes),
                          [rng.uniform(0.1, 10.0) for _ in routes]))
        prices = []
        for _ in range(self.n_prices):
            ints = [rng.randint(1, 20) for _ in range(rng.randint(2, 8))]
            seg = rng.choice((500, 1000, 2000))
            mult = rng.randint(1, 5)
            extra = rng.randint(1, seg - 1) + seg * rng.randint(0, len(ints))
            prices.append((ints, seg, mult, seg * mult * sum(ints) + extra))
        inp = LibsInput(rng.randrange(2 ** 32), single, multi, prices)
        return f"libs-seed{seed}-pass{index}", inp

    def run(self, inp: LibsInput, workdir: Path) -> dict:
        oracle = [(n, p, model.multcp_throughput(n, p, 1000.0, 0.1),
                   model.sawtooth_oracle(n, p, 1000.0, 0.1, cycles=ORACLE_CYCLES,
                                         seed=inp.oracle_seed).throughput_Bps)
                  for n, p in self.oracle_grid]
        maxmin = []
        for net in _maxmin_instances():
            verdict = fairness.check_maxmin(net, fairness.maxmin_allocate(net))
            maxmin.append((verdict.passed, verdict.method))
        single, multi = [], []
        for group, out in ((inp.single, single), (inp.multi, multi)):
            for net, weights in group:
                alloc = fairness.wpf_allocate(net, weights)
                pf = fairness.check_weighted_pf(net, alloc.rates, weights,
                                                samples=self.pf_samples)
                out.append((alloc, pf.passed))
        buffers = []
        for ints, seg, mult, budget2 in inp.prices:
            prices = {i: float(v) for i, v in enumerate(ints)}
            buffers.append((allocator.allocate_buffers(prices, seg * mult * sum(ints), seg),
                            allocator.allocate_buffers(prices, budget2, seg)))
        return {"oracle": oracle, "maxmin": maxmin, "single": single,
                "multi": multi, "buffers": buffers}

    def check(self, inp: LibsInput, out: dict, workdir: Path) -> Checked:
        failures = []
        for n, p, formula, oracle in out["oracle"]:
            if not abs(oracle - formula) / formula <= 0.10:
                failures.append(f"oracle N={n:g} p={p:g}: {oracle} vs {formula}")
        for i, (passed, method) in enumerate(out["maxmin"]):
            if not (passed and method == "brute-force"):
                failures.append(f"maxmin instance {i}: {passed} by {method}")
        for i, ((net, weights), (alloc, pf_passed)) in enumerate(
                zip(inp.single, out["single"])):
            cap = net.capacities["l"]
            gap = max(abs(r - cap * w / sum(weights)) / max(1.0, cap * w / sum(weights))
                      for r, w in zip(alloc.rates, weights))
            if not (gap <= 1e-9 and pf_passed):
                failures.append(f"single-link wpf {i}: gap {gap}, pf {pf_passed}")
        for i, (alloc, _) in enumerate(out["multi"]):
            if not alloc.kkt_residual <= 1e-6:
                failures.append(f"multi-link wpf {i}: residual {alloc.kkt_residual}")
        for i, ((ints, seg, mult, budget2), (exact, irregular)) in enumerate(
                zip(inp.prices, out["buffers"])):
            total = sum(ints)
            ideal = {j: budget2 * v / total for j, v in enumerate(ints)}
            ok = (all(exact[j] == seg * mult * v for j, v in enumerate(ints))
                  and sum(irregular.values()) == budget2
                  and all(irregular[j] >= ideal[j] - seg for j in irregular)
                  and sum(1 for j in irregular
                          if irregular[j] > ideal[j] + 1e-9) <= 1)
            if not ok:
                failures.append(f"buffer split {i}: {exact} / {irregular}")
        stats = {
            "oracle_Bps": [o[3] for o in out["oracle"]],
            "maxmin": out["maxmin"],
            "wpf_rates": [a.rates for a, _ in out["single"] + out["multi"]],
            "wpf_converged": [a.converged for a, _ in out["multi"]],
            "pf_passed": [p for _, p in out["single"] + out["multi"]],
            "buffers": [[sorted(e.items()), sorted(r.items())]
                        for e, r in out["buffers"]],
        }
        attempted = (len(out["oracle"]) + len(out["maxmin"]) + len(out["single"])
                     + len(out["multi"]) + len(out["buffers"]))
        return Checked(attempted, failures, {"results.json": sha256_json(stats)},
                       {"pf_passed_multi": sum(p for _, p in out["multi"]),
                        "multi": len(out["multi"])})


WORKLOADS = {w.name: w for w in (DumbbellSack(), SweepNewreno(), PoliceTrace(),
                                 AnalysisLibs())}

# The same workloads at sizes that take about a second, for smoke tests.
_SHORT = harness.DumbbellParams(duration_s=12.0, warmup_s=2.0)
TINY = {w.name: w for w in (
    DumbbellSack(n_flows=6, params=_SHORT),
    SweepNewreno(n_flows=4),
    PoliceTrace(n_flows=6, params=_SHORT),
    AnalysisLibs(single=3, multi=2, price_vectors=20, pf_samples=1000))}
