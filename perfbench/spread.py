#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload lr-file --runs 10 [--seconds 20] [--seed0 1]

Runs the benchmark once per seed (seed0, seed0+1, ...) and prints, per
metric, the median, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread (Q3 - Q1) / median next to a third of the
metric's bound in BENCHMARK.json. --json writes the raw values too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", help="write per-run values to this file")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = 0
    for i in range(args.runs):
        seed = args.seed0 + i
        r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}", file=sys.stderr)
            failed += 1
            continue
        res = json.loads(lines[-1])
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs - failed} runs")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"  {name:22s} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
              f"spread={spread:.4f} (bound/3={bounds[name] / 3:.4f}) {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "values": values},
                                              indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
