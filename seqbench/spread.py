#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 seqbench/spread.py --seeds 1-10
    python3 seqbench/spread.py --workload grid-sweep --seeds 1-5 --json out.json

Runs ``seqbench/run.py --trace 0`` once per workload and seed, one run at a
time, and prints for each metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", required=True, help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--seconds", help="override run_seconds")
    parser.add_argument("--json", type=Path, help="write the values and their spreads here")
    parser.add_argument("--note", default="", help="free text stored in the JSON, such as the commit measured")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or str(spec["run_seconds"])
    report = {"note": args.note, "run_seconds": int(seconds), "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in report["seeds"]:
            done = subprocess.run(
                [sys.executable, str(ROOT / "seqbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
                  f"correct {result['correct']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3.0 else "  <-- above a third of the bound"
            print(f"  {name}: median {median:.6g}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
