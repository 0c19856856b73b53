"""multcp benchmark: one workload, measured or traced, checked.

    python3 bench/run.py --workload dumbbell-sack --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workloads, the metrics and
their units are those named in BENCHMARK.json; bench/README.md says what
each one measures.  With `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-layer ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The full record of the run (machine facts, every pass, the SHA-256 of
every output and, when traced, the spans) is written under .bench_runs/.
Output digests are also kept in .bench_runs/outputs/, under a key for
everything they depend on (multcp's source, the benchmark's own files and
the numpy and scipy versions), and a pass whose outputs differ from an
earlier run under the same key fails.  Exit code 0 means a result was printed; 2 means it could not be.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from importlib import metadata
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 3              # extra fresh-process set-ups timed per measured run
PROBE_TIMEOUT_S = 20
WORKER_GRACE_S = 90     # the worker may finish its last pass past --seconds


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload in about a second, "
                        "for smoke tests")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        report = run(spec, args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in report["metrics"].items():
        print(f"{name:28} {m['value']:>14.6g} {m['unit']}")
    print(f"{report['failed']} of {report['attempted']} operations failed")
    for line in report["failures"][:5]:
        print(f"FAILED {line}")
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def run(spec: dict, workload: str, seed: int, seconds: float,
        trace: bool, size: str = "full") -> dict:
    """Time set-up in fresh processes, run the worker, assemble the result."""
    src = ROOT / "src"
    if not (src / "multcp" / "__init__.py").is_file():
        raise BenchError(f"no multcp package under {src}")
    source = source_digest(src)
    store = runs_store_key(source)
    runs = ROOT / ".bench_runs"
    sized = workload if size == "full" else f"{workload}-{size}"
    tag = f"{sized}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed), "--src", str(src),
              "--size", size]

    setups = []
    if not trace:
        for _ in range(PROBES):
            out = _child(common + ["--probe"], PROBE_TIMEOUT_S)
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
    result_path = runs / "work" / f"{tag}-{os.getpid()}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        _child(common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                         "--outputs", str(runs / "outputs" / store[:16] / sized),
                         "--work", str(result_path.with_suffix(".d")),
                         "--result", str(result_path)],
               seconds + WORKER_GRACE_S)
        worker = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)
    setups.append(worker["setup_s"])

    if trace:
        values = worker["layer_metrics"]
        declared = spec["per_layer"]
    else:
        values = {"wall_s": worker["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise BenchError(f"measured and declared metrics differ: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    report = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": worker["failed"] == 0,
        "attempted": worker["attempted"], "failed": worker["failed"],
        "metrics": metrics, "failures": worker["failures"],
        "facts": {"cpu_count": os.cpu_count(),
                  "python": platform.python_version(),
                  "machine": platform.machine(), **worker["versions"],
                  "git_commit": git_commit(ROOT), "source_sha256": source,
                  "outputs_key": store, "seed": seed},
        "setup_samples_s": setups, "peak_rss_mb": worker["peak_rss_mb"],
        "passes": worker["passes"],
    }
    for key in ("trace_scope", "trace"):
        if key in worker:
            report[key] = worker[key]
    results = runs / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1))
    return report


def _child(args: list[str], timeout: float) -> str:
    """Run worker.py with multcp importable from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def source_digest(src: Path) -> str:
    """SHA-256 over the package's file names and contents."""
    return _py_digest(src / "multcp", src)


def runs_store_key(source: str) -> str:
    """Key of the output digest store: what seeded outputs depend on.

    That is multcp's source, the benchmark's files (they make the inputs)
    and the numpy and scipy versions (analysis-libs calls into both).
    """
    h = hashlib.sha256(source.encode())
    h.update(_py_digest(BENCH, BENCH).encode())
    for dist in ("numpy", "scipy"):
        h.update(f"\0{dist}={metadata.version(dist)}".encode())
    return h.hexdigest()


def _py_digest(directory: Path, relative_to: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(relative_to)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
