"""Run one workload over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload tiny_train_b4_64 --runs 10 --first-seed 100

For each end-to-end metric this prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json.
Raw results are appended to `perfbench/results/<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    rows = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=400, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr)
            return 1
        info = [ln for ln in lines if ln.startswith("iterations ")]
        result = json.loads(lines[-1])
        row = {"seed": seed, "seconds": args.seconds, "trace": args.trace,
               "info": info[0] if info else "", **result}
        rows.append(row)
        with open(out_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
        values = ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                           if not args.trace)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values} | {row['info']}", flush=True)

    if args.trace:
        return 0
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"IQR/median {(q3 - q1) / med:.4f}  (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
