"""Command-line front end.

Subcommands: simulate (run a scenario file), sweep gain / sweep
fairness (the two figure experiments), model (analytic table),
fairness-check (verdicts on a rate vector), alloc (buffer split),
police (trace verdicts and billing).  Outputs are plot-ready CSV,
written to stdout unless -o is given.  Exit code 0 on success, 1 on
any error, with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import harness, model
from .engine import SimulationError
from .fairness import (Network, check_maxmin, check_weighted_pf,
                       maxmin_allocate, wpf_allocate)
from .allocator import allocate_buffers
from .harness import ScenarioError
from .policing import (bill, read_declarations_csv, read_trace_csv,
                       verify_declaration, write_trace_csv)
from .tcp import VARIANTS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()      # a closed pipe must raise here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone, as with `| head`: as the signal module's
        # "Note on SIGPIPE" shows, stdout goes to devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ScenarioError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multcp",
        description="MulTCP simulator, experiments and trace analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a YAML scenario file")
    p.add_argument("scenario", help="scenario file (YAML)")
    p.add_argument("-o", "--output", help="per-flow results CSV (default stdout)")
    p.add_argument("--trace-out", help="also write the connection trace CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a figure experiment sweep")
    sweep = p.add_subparsers(dest="experiment", required=True)

    g = sweep.add_parser("gain", help="weighted-flow gain versus N")
    g.add_argument("--variant", required=True, choices=VARIANTS)
    g.add_argument("--n-grid", default="1,2,4", help="comma-separated weights")
    g.add_argument("--seeds", type=int, default=10, help="number of seeds")
    g.add_argument("--flows", type=int, default=22)
    g.add_argument("-o", "--output-dir", help="write gain.csv and "
                   "gain_summary.csv here (default: summary to stdout)")
    g.set_defaults(func=_cmd_sweep)

    f = sweep.add_parser("fairness", help="same-N dispersion versus N")
    f.add_argument("--variant", default="sack", choices=VARIANTS)
    f.add_argument("--n-grid", default="1,2,4,8")
    f.add_argument("--seeds", type=int, default=10)
    f.add_argument("--flows", type=int, default=22)
    f.add_argument("-o", "--output-dir", help="write fairness.csv and "
                   "fairness_summary.csv here (default: summary to stdout)")
    f.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("model", help="analytic throughput table")
    p.add_argument("--n-grid", default="1,2,4,8")
    p.add_argument("--p-grid", default="1e-4,1e-3", help="loss rates")
    p.add_argument("--packet", type=float, default=1000.0, help="bytes")
    p.add_argument("--rtt", type=float, default=0.1, help="seconds")
    p.add_argument("--oracle", action="store_true",
                   help="add sawtooth-oracle columns")
    p.add_argument("--cycles", type=int, default=10_000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("fairness-check",
                       help="max-min and proportional-fairness verdicts")
    p.add_argument("network", help="YAML file: capacities mapping + routes list")
    p.add_argument("--rates", help="comma-separated rate vector to check")
    p.add_argument("--weights", help="comma-separated weights (default all 1)")
    p.add_argument("--allocate", choices=("maxmin", "wpf"),
                   help="print this allocation instead of checking --rates")
    p.set_defaults(func=_cmd_fairness_check)

    p = sub.add_parser("alloc", help="price-proportional buffer allocation")
    p.add_argument("--prices", required=True, help="comma-separated prices")
    p.add_argument("--budget", type=int, required=True, help="bytes")
    p.add_argument("--segment", type=int, default=1000, help="bytes")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_alloc)

    p = sub.add_parser("police", help="verify declarations against a trace")
    p.add_argument("--trace", required=True, help="trace CSV")
    p.add_argument("--declarations", required=True, help="declarations CSV")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--period", help="billing period as start_ns:end_ns "
                   "(default: span of the declarations)")
    p.set_defaults(func=_cmd_police)

    return parser


def _floats(text: str, what: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    if not values:
        raise ValueError(f"{what}: empty list")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what}: every value must be finite")
    return values


# -- simulate --------------------------------------------------------------

def _cmd_simulate(args) -> int:
    scenario = harness.load_scenario(args.scenario)
    if not args.trace_out:  # a trace is recorded only to be written
        result = harness.run_scenario(dataclasses.replace(scenario, trace=False))
    else:
        # open the trace file first, so a bad path fails before any output
        try:
            trace_file = open(args.trace_out, "w", newline="")
        except OSError as exc:
            raise OSError(f"cannot write trace to {args.trace_out}: {exc}") from exc
        with trace_file:
            result = harness.run_scenario(dataclasses.replace(scenario, trace=True))
            write_trace_csv(result.trace, trace_file)
    harness.write_run_csv(result, args.output or sys.stdout)
    return 0


# -- sweeps ----------------------------------------------------------------

def _cmd_sweep(args) -> int:
    n_grid = _floats(args.n_grid, "--n-grid")
    seeds = list(range(args.seeds))
    if args.experiment == "gain":
        samples = harness.run_gain_experiment(args.variant, n_grid, seeds,
                                              n_flows=args.flows)
        summaries = harness.summarize_gain(samples)
        write, write_summary = (harness.write_gain_csv,
                                harness.write_gain_summary_csv)
    else:
        samples = harness.run_fairness_experiment(n_grid, seeds,
                                                  variant=args.variant,
                                                  n_flows=args.flows)
        summaries = harness.summarize_fairness(samples)
        write, write_summary = (harness.write_fairness_csv,
                                harness.write_fairness_summary_csv)
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write(samples, out / f"{args.experiment}.csv")
        write_summary(summaries, out / f"{args.experiment}_summary.csv")
    else:
        write_summary(summaries, sys.stdout)
    return 0


# -- model -----------------------------------------------------------------

def _cmd_model(args) -> int:
    n_grid = _floats(args.n_grid, "--n-grid")
    p_grid = _floats(args.p_grid, "--p-grid")
    header = ["n", "p", "throughput_Bps", "gain_ratio"]
    if args.oracle:
        header += ["oracle_Bps", "rel_err"]
    rows = []
    for n in n_grid:
        for p in p_grid:
            t = model.multcp_throughput(n, p, args.packet, args.rtt)
            row = [n, p, t, model.gain_ratio(n)]
            if args.oracle:
                oracle = model.sawtooth_oracle(n, p, args.packet, args.rtt,
                                               cycles=args.cycles)
                row += [oracle.throughput_Bps,
                        abs(oracle.throughput_Bps - t) / t]
            rows.append(tuple(row))
    harness.write_csv(args.output or sys.stdout, header, rows)
    return 0


# -- fairness --------------------------------------------------------------

def _load_network(path) -> Network:
    data = harness._read_yaml(path, ValueError)
    if not (isinstance(data, dict) and isinstance(data.get("capacities"), dict)
            and isinstance(data.get("routes"), list)
            and all(isinstance(route, list) for route in data["routes"])):
        raise ValueError(f"{path}: need 'capacities' mapping and 'routes' "
                         "list of lists")
    # the scenario loader's rules: link names are strings, a bool is no number
    try:
        capacities = {harness._str(k, "capacities: link name"):
                      harness._float(v, f"capacities: {k}")
                      for k, v in data["capacities"].items()}
        routes = tuple(tuple(harness._str(x, f"routes[{i}][{j}]")
                             for j, x in enumerate(route))
                       for i, route in enumerate(data["routes"]))
        return Network(capacities=capacities, routes=routes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_fairness_check(args) -> int:
    network = _load_network(args.network)
    n = network.n_connections
    weights = _floats(args.weights, "--weights") if args.weights else [1.0] * n
    if len(weights) != n:
        raise ValueError(f"--weights: expected {n} entries")

    if args.allocate:
        if args.allocate == "maxmin":
            rates = maxmin_allocate(network)
        else:
            alloc = wpf_allocate(network, weights)
            if not alloc.converged:
                print(f"warning: solver not converged "
                      f"(kkt residual {alloc.kkt_residual:.2e})", file=sys.stderr)
            rates = alloc.rates
        harness.write_csv(sys.stdout, ("connection", "rate"),
                          [(i, rates[i]) for i in range(n)])
        return 0

    if not args.rates:
        raise ValueError("give --rates to check, or --allocate")
    rates = _floats(args.rates, "--rates")
    if len(rates) != n:
        raise ValueError(f"--rates: expected {n} entries")
    mm = check_maxmin(network, rates)
    pf = check_weighted_pf(network, rates, weights)
    print(f"maxmin: {'PASS' if mm.passed else 'FAIL'} "
          f"(method={mm.method}, strict="
          f"{'n/a' if mm.passed_strict is None else mm.passed_strict})")
    if mm.detail:
        print(f"  {mm.detail}")
    print(f"weighted-pf: {'PASS' if pf.passed else 'FAIL'} "
          f"(gain bound {pf.worst_sum:.3e} from link prices)")
    if pf.detail:
        print(f"  {pf.detail}")
    return 0


# -- alloc -----------------------------------------------------------------

def _cmd_alloc(args) -> int:
    prices = _floats(args.prices, "--prices")
    allocation = allocate_buffers(dict(enumerate(prices)), args.budget,
                                  args.segment)
    harness.write_csv(args.output or sys.stdout,
                      ("connection", "price", "buffer_bytes"),
                      [(i, prices[i], allocation[i]) for i in sorted(allocation)])
    return 0


# -- police ----------------------------------------------------------------

def _cmd_police(args) -> int:
    records = read_trace_csv(args.trace)
    declarations = read_declarations_csv(args.declarations)
    if not declarations:
        raise ValueError("no declarations to verify")
    for decl in declarations:
        report = verify_declaration(records, decl, tolerance=args.tolerance)
        observed = ("" if report.observed_n is None
                    else f" observed_n={report.observed_n:.3f}")
        print(f"flow {decl.flow_id} declared_n={decl.declared_n:g} "
              f"[{decl.start_ns},{decl.end_ns}): {report.status}"
              f"{observed} (method={report.method})")
    if args.period:
        try:
            start_ns, end_ns = (int(x) for x in args.period.split(":"))
        except ValueError as exc:
            raise ValueError("--period: expected start_ns:end_ns") from exc
    else:
        start_ns = min(d.start_ns for d in declarations)
        end_ns = max(d.end_ns for d in declarations)
    charge = bill(declarations, (start_ns, end_ns))
    print(f"bill over [{start_ns},{end_ns}) ns: {charge:.6f} weight-seconds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
