"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload b_eval_512x1024 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The measured program is the `dwrseg`
package under `src/`; this launcher never imports it.  Every measurement
happens in a worker process (`perfbench/worker.py`) started with exactly
one BLAS thread set through its environment, and the worker reads the
thread count back from numpy's OpenBLAS and refuses to run with any other.

With `--trace 0` the launcher first starts the worker four times in
set-up-only mode, then once for the measured run; `setup_s` is the median
of the five cold starts.  With `--trace 1` only the measured (traced) run is
made.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

RUN_LIMIT_S = 170  # the whole run, every worker included
SETUP_SAMPLES = 5

# numpy's OpenBLAS reads the first; an OpenMP build of it reads the second
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be between 1 and 120")
    return args


def run_worker(root: Path, work: Path, deadline: float, args, extra=()) -> dict:
    """Start one worker, relay its human-readable lines, return its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=dict(os.environ, **ONE_THREAD_ENV),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: the run exceeded {RUN_LIMIT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dwrseg" / "__init__.py").is_file():
        print("error: run from the root of a dwrseg checkout (src/dwrseg is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run_worker(root, work, deadline, args, ["--prepare"])
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(root, work, deadline, args,
                                         ["--setup-only"])["setup_s"])
        result = run_worker(root, work, deadline, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    values = result.pop("values")
    if not args.trace:
        setups.append(values["setup_s"])
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        values["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: metric names {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
