"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/collect.py --seeds 1-10 --trace-seed 1 --out summary.json
    python3 bench/collect.py --seeds 1-10 --against summary.json

For each workload (all of BENCHMARK.json's, or those given with
--workloads) this runs `bench/run.py` once per seed with tracing off,
then once with tracing on at --trace-seed, one run at a time.  For every
end-to-end metric it reports the median, the quartiles and the spread,
the interquartile distance as a share of the median, against the
metric's bound in BENCHMARK.json.  With --against it also reports how
far each median moved from the same workload's median in an earlier
summary, as a share of the earlier one, again against the bound.

It exits with 1 if a spread other than that of setup_s, or a move of any
median in its worse direction, exceeds the bound.  Failed operations,
output digests that did not repeat included, are counted by the runs
themselves.  The summary keeps the machine facts of the first run and
the output digests of every input key, to diff against another commit's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}:\n"
                         f"{done.stderr}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((ROOT / ".bench_runs" / "results" / f"{tag}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seed", type=int,
                        help="also make one traced run at this seed")
    parser.add_argument("--out", type=Path, help="write the summary here")
    parser.add_argument("--against", type=Path,
                        help="an earlier summary to compare the medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.against.read_text())["workloads"] \
        if args.against else {}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "facts": None, "workloads": {}}
    within = True
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in seed_list(args.seeds)]
        summary["facts"] = summary["facts"] or runs[0]["facts"]
        entry = {"seeds": [r["seed"] for r in runs],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {},
                 "digests": {p["key"]: p["sha256"] for r in runs
                             for p in r["passes"] if "sha256" in p}}
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            note = ""
            if m["name"] != "setup_s" and not s["spread"] <= m["bound"]:
                within, note = False, "  SPREAD OVER BOUND"
            before = earlier.get(name, {}).get("end_to_end", {}).get(m["name"])
            if before:
                s["moved"] = (s["median"] - before["median"]) / before["median"]
                worse = s["moved"] if m["better"] == "lower" else -s["moved"]
                note = f"  moved {s['moved']:+.4f}" + note
                if worse > m["bound"]:
                    within, note = False, note + "  MOVE OVER BOUND"
            entry["end_to_end"][m["name"]] = s
            print(f"{name:14} {m['name']:12} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){note}",
                  flush=True)
        if args.trace_seed is not None:
            traced = bench(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["traced_seed"] = args.trace_seed
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
        within &= entry["failed"] == 0
        print(f"{name:14} {entry['failed']} of {entry['attempted']} operations "
              f"failed", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
