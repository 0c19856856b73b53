"""One benchmark process: import multcp, build the inputs, run the passes.

run.py starts this file as a fresh child process for every set-up probe
(`--probe`) and once for the measured passes, so that each set-up pays
the full import and the measured process's peak memory is its own.
Set-up time runs from the first line of this file to the first input
being built.

Passes repeat until the next one would end after `--seconds`; there is
always at least one.  With `--trace 1` every pass runs twice on the same
input, untraced and then traced, so the difference is the tracing
overhead.  The result goes to the JSON file named by `--result`.
"""

import time

T0 = time.perf_counter()

import argparse     # noqa: E402  (set-up time includes every import)
import json         # noqa: E402
import os           # noqa: E402
import resource     # noqa: E402
import shutil       # noqa: E402
import statistics   # noqa: E402
import sys          # noqa: E402
from pathlib import Path    # noqa: E402

import multcp       # noqa: E402
import workloads    # noqa: E402
from tracer import Tracer   # noqa: E402

MAX_FAILURE_LINES = 50


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, type=Path,
                        help="the source tree multcp must be imported from")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true",
                        help="print the set-up time and exit")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outputs", type=Path,
                        help="directory of output digests to write or match")
    parser.add_argument("--work", type=Path, help="scratch directory")
    parser.add_argument("--result", type=Path, help="result JSON file")
    args = parser.parse_args(argv)

    package = Path(multcp.__file__).resolve().parent
    if package.parent != args.src.resolve():
        print(f"error: multcp was imported from {package}, not from {args.src}",
              file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
    workload = sizes[args.workload]
    first = workload.make_input(args.seed, 0)
    setup_s = time.perf_counter() - T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     args.outputs, args.work, first)
    result["setup_s"] = setup_s
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    args.result.write_text(json.dumps(result, indent=1))
    return 0


def measure(workload, seed: int, seconds: float, trace: bool, outputs: Path,
            work: Path, first=None) -> dict:
    """Run passes for `seconds`; return per-pass records and the metrics."""
    outputs.mkdir(parents=True, exist_ok=True)
    passes, failures, layer_rows, spans = [], [], [], []
    start = time.perf_counter()
    index = 0
    try:
        while True:
            key, inp = first if index == 0 and first else \
                workload.make_input(seed, index)
            passes.append(one_pass(workload, key, inp, work, outputs, None,
                                   failures))
            if trace:
                tracer = Tracer()
                traced = one_pass(workload, key, inp, work, outputs, tracer,
                                  failures)
                passes.append(traced)
                layer_rows.append(traced.pop("layers"))
                spans.append({"key": key, "spans": tracer.spans,
                              "layers": tracer.layers()})
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed * (index + 1) / index > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    self_use = resource.getrusage(resource.RUSAGE_SELF)
    child_use = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "passes": passes, "attempted": attempted, "failed": failed,
        "failures": failures[:MAX_FAILURE_LINES],
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        # ru_maxrss is in KiB on Linux: this process plus its largest child
        "peak_rss_mb": (self_use.ru_maxrss + child_use.ru_maxrss) / 1024,
    }
    if trace:
        result["layer_metrics"] = summarize_layers(passes, layer_rows,
                                                failed / attempted)
        result["trace"] = spans
        result["trace_scope"] = ("this process only; work in child processes "
                                 "is not traced")
    return result


def one_pass(workload, key: str, inp, work: Path, outputs: Path, tracer,
             failures: list) -> dict:
    """Time one run of the workload, then check and record its outputs."""
    workdir = work / "pass"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cpu0 = _cpu_s()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = workload.run(inp, workdir)
    except Exception as exc:    # a failed run is counted, not fatal
        raw, error = None, f"{key}: run raised {type(exc).__name__}: {exc}"
    else:
        error = None
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    cpu_s = _cpu_s() - cpu0

    record = {"key": key, "traced": tracer is not None, "wall_s": wall_s,
              "cpu_s": cpu_s, "attempted": 1, "failed": 1}
    if error is None:
        try:
            checked = workload.check(inp, raw, workdir)
        except Exception as exc:    # an output the checks cannot read
            error = f"{key}: check raised {type(exc).__name__}: {exc}"
    if error is not None:
        failures.append(error)
        if tracer is not None:
            record["layers"] = {}
        return record

    lines = [f"{key}: {line}" for line in checked.failures]
    # only the outputs of a pass whose checks all held are saved for later
    saved = {"key": key, "sha256": checked.digests, "stats": checked.stats}
    if not _matches_or_saved(outputs / f"{key}.json", saved, not lines):
        lines = [f"{key}: outputs differ from an earlier run of the same "
                 f"source, inputs and libraries"] * checked.attempted
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(checked.info)
        events = {k: v for k, v in layers.items() if k.startswith("engine.events")}
        if not _matches_or_saved(outputs / f"{key}.events.json", events,
                                 not lines):
            lines.append(f"{key}: event counts differ from an earlier run")
        record["layers"] = layers
    failures.extend(lines)
    record.update(attempted=checked.attempted,
                  failed=min(len(lines), checked.attempted),
                  sha256=checked.digests)
    return record


def _matches_or_saved(path: Path, value, save: bool) -> bool:
    """Compare `value` with the JSON at `path`, or save it there if `save`."""
    text = json.dumps(value, sort_keys=True, indent=1) + "\n"
    if path.exists():
        return path.read_text() == text
    if not save:
        return True
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return True


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


# Counts and ratios repeat exactly for one input, so they come from the
# first traced pass, whose input --seed fixes; times are medians.
EXACT = frozenset({
    "engine.events", "engine.events.arrival", "engine.events.ack",
    "engine.events.tx_done", "engine.events.timer", "engine.timer_pending_max",
    "aqm.enqueue_calls", "aqm.drop_ratio", "tcp.on_ack_calls",
    "tcp.timer_checks", "tcp.timer_fire_ratio", "tcp.trace_records",
    "harness.cells", "policing.trace_mb",
})


def summarize_layers(passes: list, layer_rows: list, fail_ratio: float) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    rows = [row for row in layer_rows if row]
    names = {**Tracer().layer_metrics(), "policing.trace_mb": 0.0}
    out = {}
    for name in sorted(names):
        values = [row.get(name, 0.0) for row in rows] or [0.0]
        out[name] = values[0] if name in EXACT else statistics.median(values)
    out["engine.events_per_s"] = statistics.median(
        [row.get("engine.events", 0) / p["wall_s"]
         for row, p in zip(layer_rows, untraced) if row] or [0.0])
    out["harness.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in untraced))
    out["fail_ratio"] = fail_ratio
    return out


if __name__ == "__main__":
    sys.exit(main())
