"""Scenario construction, the two headline experiments, and result output.

The reference topology is a dumbbell: every flow enters through its own
drop-tail access link and shares one RED-managed bottleneck.  The
numbers the experiments rely on are fixed (10 Mb/s / 20 ms bottleneck,
100 Mb/s access links with one-way delays spread over 2..40 ms by flow
index, starts jittered over 1 s, 1000-byte payloads, RED at 5/15/20);
they put the RED average near its thresholds with 22 bulk flows.  Flows
0 and 1 share the mid-range access delay so the measured pair sees
identical base RTTs; the background flows cover the full delay range.

Two experiments mirror the headline figures:

* gain: flow 0 carries weight N, flow 1 is an unweighted reference of
  the same variant, the rest are unweighted background; the gain is the
  ratio of flow 0's to flow 1's measured throughput.
* fairness: all flows carry the same weight; the dispersion of
  RTT-normalized throughput (std/mean of throughput * base RTT)
  measures how evenly the bottleneck is shared.

Scenario files are YAML with sections for links, flows, red, duration,
warmup, seed and payload; every field is optional except the topology
and the duration.
All CSV output uses shortest-round-trip float formatting, so a repeated
run with the same seed emits identical bytes.
"""

from __future__ import annotations

import csv
import statistics
from contextlib import contextmanager
from dataclasses import MISSING, astuple, dataclass, fields
from functools import partial

from .aqm import RedParams
from .engine import (FlowSpec, LinkSpec, Scenario, Simulation, SimulationError,
                     s_from_ns)
from .tcp import TraceRecord

# the reference dumbbell's fixed numbers
_BOTTLENECK_BPS = 10e6
_BOTTLENECK_DELAY_S = 0.020
_ACCESS_BPS = 100e6
_ACCESS_DELAY_MIN_S = 0.002
_ACCESS_DELAY_MAX_S = 0.040
_START_JITTER_S = 1.0


@dataclass(frozen=True)
class DumbbellParams:
    """Simulated length and measurement warmup of a reference-dumbbell run."""

    duration_s: float = 70.0
    warmup_s: float = 10.0


BOTTLENECK = "bottleneck"


def build_dumbbell(n_flows: int, params: DumbbellParams | None = None, *,
                   variant="sack", weights=None, seed: int = 0,
                   trace: bool = False, advertised_bytes=None) -> Scenario:
    """Dumbbell scenario: n access links feeding one RED bottleneck.

    `params` sets only the run length and warmup; payload, RED and
    ssthresh are the spec defaults.  Flows 0 and 1 share the mid-range
    access delay: they are the measured pair in the gain experiment, and
    equal base RTTs make their throughput ratio reflect the weights
    rather than an RTT mismatch.  The remaining flows spread
    deterministically over the access delay range by flow index.
    `variant`, `weights` and `advertised_bytes` may be scalars or
    per-flow lists.
    """
    if n_flows < 2:
        raise ValueError("a dumbbell needs at least two flows")
    p = params if params is not None else DumbbellParams()
    weights = _per_flow(weights if weights is not None else 1.0, n_flows, "weights")
    variants = _per_flow(variant, n_flows, "variant")
    advertised = _per_flow(advertised_bytes, n_flows, "advertised_bytes")

    links = [LinkSpec(name=BOTTLENECK, bandwidth_bps=_BOTTLENECK_BPS,
                      delay_s=_BOTTLENECK_DELAY_S, queue="red")]
    flows = []
    span = _ACCESS_DELAY_MAX_S - _ACCESS_DELAY_MIN_S
    for i in range(n_flows):
        if i < 2:
            delay = _ACCESS_DELAY_MIN_S + span / 2
        else:
            delay = _ACCESS_DELAY_MIN_S + span * (i - 2) / max(n_flows - 3, 1)
        links.append(LinkSpec(name=f"access{i}", bandwidth_bps=_ACCESS_BPS,
                              delay_s=delay))
        flows.append(FlowSpec(variant=variants[i], n_weight=weights[i],
                              route=(f"access{i}", BOTTLENECK),
                              start_jitter_s=_START_JITTER_S,
                              advertised_bytes=advertised[i]))
    return Scenario(links=tuple(links), flows=tuple(flows),
                    duration_s=p.duration_s, warmup_s=p.warmup_s, seed=seed,
                    trace=trace)


def _per_flow(value, n: int, what: str) -> list:
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"{what}: expected {n} entries, got {len(value)}")
        return list(value)
    return [value] * n


# -- running ---------------------------------------------------------------

@dataclass(frozen=True)
class FlowResult:
    flow_id: int
    variant: str
    n_weight: float
    throughput_Bps: float       # measured-window goodput, bytes/second
    base_rtt_s: float
    delivered_bytes: int
    drops: int
    retransmits: int
    timeouts: int
    fast_retransmits: int


@dataclass(frozen=True)
class RunResult:
    seed: int
    duration_s: float
    warmup_s: float
    flows: tuple[FlowResult, ...]
    link_utilization: dict[str, float]
    trace: tuple[TraceRecord, ...] | None


def run_scenario(scenario: Scenario) -> RunResult:
    """Simulate to completion, measuring after the warmup."""
    sim = Simulation(scenario)
    sim.run_until(scenario.warmup_s)
    delivered0 = [f.delivered_bytes() for f in sim.flows]
    bits0 = {name: link.delivered_bits(sim.clock_ns)
             for name, link in sim.links.items()}
    sim.run_until(scenario.duration_s)
    window = scenario.duration_s - scenario.warmup_s

    flows = []
    for f, d0 in zip(sim.flows, delivered0):
        measured = f.delivered_bytes() - d0
        flows.append(FlowResult(
            flow_id=f.flow_id, variant=f.spec.variant, n_weight=f.spec.n_weight,
            throughput_Bps=measured / window, base_rtt_s=s_from_ns(f.base_rtt_ns),
            delivered_bytes=measured, drops=f.drops,
            retransmits=f.sender.retransmits, timeouts=f.sender.timeouts,
            fast_retransmits=f.sender.fast_retransmits))
    utilization = {
        name: (link.delivered_bits(sim.clock_ns) - bits0[name])
        / (link.bandwidth_bps * window)
        for name, link in sim.links.items()}
    trace = tuple(sim.trace) if sim.trace is not None else None
    return RunResult(seed=scenario.seed, duration_s=scenario.duration_s,
                     warmup_s=scenario.warmup_s, flows=tuple(flows),
                     link_utilization=utilization, trace=trace)


# -- gain experiment -------------------------------------------------------

@dataclass(frozen=True)
class GainSample:
    variant: str
    n_weight: float
    seed: int
    gain: float
    heavy_Bps: float
    reference_Bps: float


def run_gain_experiment(variant: str, n_grid, seeds, *, n_flows: int = 22,
                        params: DumbbellParams | None = None) -> list[GainSample]:
    """Weighted flow 0 against unweighted flow 1 over background traffic."""
    def measure(n, seed, result: RunResult) -> GainSample:
        heavy = result.flows[0].throughput_Bps
        ref = result.flows[1].throughput_Bps
        if ref <= 0:
            raise SimulationError(
                f"reference flow starved (variant={variant}, n={n}, seed={seed})")
        return GainSample(variant=variant, n_weight=float(n), seed=seed,
                          gain=heavy / ref, heavy_Bps=heavy, reference_Bps=ref)

    return _sweep(variant, n_grid, seeds, n_flows, params,
                  lambda n: [float(n)] + [1.0] * (n_flows - 1), measure)


# -- fairness experiment ---------------------------------------------------

@dataclass(frozen=True)
class FairnessSample:
    variant: str
    n_weight: float
    seed: int
    std_over_mean: float


def run_fairness_experiment(n_grid, seeds, *, variant: str = "sack",
                            n_flows: int = 22,
                            params: DumbbellParams | None = None
                            ) -> list[FairnessSample]:
    """All flows share one weight; dispersion of RTT-normalized throughput."""
    return _sweep(variant, n_grid, seeds, n_flows, params, float,
                  lambda n, seed, result: FairnessSample(
                      variant=variant, n_weight=float(n), seed=seed,
                      std_over_mean=dispersion(result.flows)))


def dispersion(flows) -> float:
    """std/mean of throughput * base RTT; zero for a single flow."""
    normalized = [f.throughput_Bps * f.base_rtt_s for f in flows]
    if len(normalized) < 2:
        return 0.0
    mean = statistics.fmean(normalized)
    if mean <= 0:
        raise SimulationError("dispersion undefined: zero mean throughput")
    return statistics.stdev(normalized) / mean


# -- sweeps ----------------------------------------------------------------

def _sweep(variant: str, n_grid, seeds, n_flows: int,
           params: DumbbellParams | None, weights, measure) -> list:
    """One dumbbell run per (n, seed) cell, in grid order, each measured.

    `weights(n)` gives build_dumbbell's weights for grid point n, and
    `measure(n, seed, result)` turns the cell's RunResult into a sample.
    """
    if not n_grid or not seeds:
        raise ValueError("n_grid and seeds must be non-empty")
    return [measure(n, seed, run_scenario(build_dumbbell(
                n_flows, params, variant=variant, weights=weights(n), seed=seed)))
            for n in n_grid for seed in seeds]


@dataclass(frozen=True)
class Summary:
    variant: str
    n_weight: float
    mean: float
    std: float          # sample standard deviation over seeds, 0 for one
    seeds: int


def summarize_gain(samples) -> list[Summary]:
    return _summarize(samples, "gain")


def summarize_fairness(samples) -> list[Summary]:
    return _summarize(samples, "std_over_mean")


def _summarize(samples, attr: str) -> list[Summary]:
    """One Summary of the samples' `attr` per (variant, n_weight), sorted."""
    groups: dict = {}
    for s in samples:
        groups.setdefault((s.variant, s.n_weight), []).append(getattr(s, attr))
    return [Summary(variant, n, statistics.fmean(vals),
                    statistics.stdev(vals) if len(vals) > 1 else 0.0, len(vals))
            for (variant, n), vals in sorted(groups.items())]


# -- CSV output ------------------------------------------------------------
#
# Every writer takes a target that is either a path or an open text
# stream such as sys.stdout; both receive the same bytes.

def write_run_csv(result: RunResult, target) -> None:
    """One row per flow: the seed, then FlowResult's fields in order."""
    write_csv(target, ("seed", *(f.name for f in fields(FlowResult))),
              [(result.seed, *astuple(f)) for f in result.flows])


def write_gain_csv(samples, target) -> None:
    write_csv(target, ("variant", "n", "seed", "gain"),
              [(s.variant, s.n_weight, s.seed, s.gain) for s in samples])


def write_gain_summary_csv(summaries, target) -> None:
    write_csv(target, ("variant", "n", "mean_gain", "std_gain", "seeds"),
              [(s.variant, s.n_weight, s.mean, s.std, s.seeds)
               for s in summaries])


def write_fairness_csv(samples, target) -> None:
    write_csv(target, ("n", "seed", "std_over_mean"),
              [(s.n_weight, s.seed, s.std_over_mean) for s in samples])


def write_fairness_summary_csv(summaries, target) -> None:
    write_csv(target, ("n", "mean_std_over_mean", "std", "seeds"),
              [(s.n_weight, s.mean, s.std, s.seeds) for s in summaries])


@contextmanager
def _output(target):
    """Yield `target` if it is an open text stream, else the path opened."""
    if hasattr(target, "write"):
        yield target
        return
    try:
        with open(target, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write results to {target}: {exc}") from exc


def write_csv(target, header, rows) -> None:
    """Write a header line and rows to a path or an open text stream."""
    with _output(target) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header, what: str, parse) -> list:
    """Read a CSV file that starts with exactly `header`; parse(row) per row.

    A row with the wrong field count, or one that parse or csv rejects
    with a ValueError or csv.Error, raises one ValueError naming the
    file, the line and the problem.
    """
    width = len(header)
    out = []
    append = out.append
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise ValueError(f"{path}: expected {what} header {header}")
        try:
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                append(parse(row))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return out


# -- scenario files --------------------------------------------------------
#
# One table per level: (YAML key, spec field, converter).  Defaults are
# the spec class's own, and a field without one is a required key.

def load_scenario(path) -> Scenario:
    """Read a YAML scenario file (see scenario_from_dict for the schema)."""
    try:
        data = _read_yaml(path)
    except OSError as exc:
        raise ValueError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data)


def _read_yaml(path):
    """Parse a YAML file; invalid YAML raises ValueError naming the file."""
    import yaml     # on first use, so that importing multcp does not load it

    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            # the parser's text puts the position on a line of its own;
            # fold it in, so that the error stays one line
            mark = getattr(exc, "problem_mark", None)
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            if mark is not None:
                problem += f" (line {mark.line + 1}, column {mark.column + 1})"
            raise ValueError(f"{path} is not valid YAML: {problem}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from plain mappings.

    Required keys: links (list of {name, bandwidth, delay, queue?,
    limit? on fifo, red? on red}), flows (list of {route, variant?, n?,
    start?, jitter?, stop?, bulk_bytes?, ssthresh?, advertised_bytes?})
    and duration.  Optional top-level keys: warmup, seed, payload, red.
    An absent or null key takes the spec class's default; a flow's
    variant defaults to sack.  Bandwidths are bits/second, delays and
    times are seconds.  A file cannot ask for a trace: the library sets
    `Scenario.trace`, and `multcp simulate` traces only for --trace-out.
    """
    return _build(Scenario, _TOP, data, "")


def _build(cls, rows, entry, where: str, **kwargs):
    """cls(**kwargs) filled from the mapping `entry` as `rows` say."""
    at = where or "scenario"
    if not isinstance(entry, dict):
        raise ValueError(f"{at} must be a mapping")
    unknown = set(entry) - {key for key, _, _ in rows}
    if unknown:
        raise ValueError(f"{at}: unknown keys {sorted(unknown, key=str)}")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for key, name, convert in rows:
        if entry.get(key) is not None:
            kwargs[name] = convert(entry[key], f"{where}.{key}" if where else key)
        elif name in required and name not in kwargs:
            raise ValueError(f"{at} is missing required key {key!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}" if where else str(exc)) from exc


def _only(kind: type, what: str):
    """A converter that passes values of `kind` alone; bool is no int."""
    def convert(value, path: str):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{path}: expected {what}, got {value!r}")
        return value
    return convert


_int, _str = _only(int, "an integer"), _only(str, "a string")


def _float(value, path: str) -> float:
    # PyYAML reads 5.0e6 as a string: YAML 1.1 wants a sign on the exponent
    try:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            return float(value)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{path}: expected a number, got {value!r}")


def _each(convert):
    """A converter from a non-empty list to a tuple, item by item."""
    def each(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ValueError(f"{path} must be a non-empty list")
        return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(value))
    return each


_RED = (("thresh", "thresh", _float), ("maxthresh", "maxthresh", _float),
        ("limit", "limit", _int), ("ewma_weight", "ewma_weight", _float),
        ("max_drop_prob", "max_drop_prob", _float))
_LINK = (("name", "name", _str), ("bandwidth", "bandwidth_bps", _float),
         ("delay", "delay_s", _float), ("queue", "queue", _str),
         ("limit", "limit", _int), ("red", "red", partial(_build, RedParams, _RED)))
_FLOW = (("variant", "variant", _str), ("route", "route", _each(_str)),
         ("n", "n_weight", _float), ("start", "start_s", _float),
         ("jitter", "start_jitter_s", _float), ("stop", "stop_s", _float),
         ("bulk_bytes", "bulk_bytes", _int), ("ssthresh", "ssthresh", _int),
         ("advertised_bytes", "advertised_bytes", _int))
_TOP = (("links", "links", _each(partial(_build, LinkSpec, _LINK))),
        ("flows", "flows", _each(partial(_build, FlowSpec, _FLOW, variant="sack"))),
        ("duration", "duration_s", _float), ("warmup", "warmup_s", _float),
        ("seed", "seed", _int), ("payload", "payload_bytes", _int),
        ("red", "red", partial(_build, RedParams, _RED)))
