"""The measured process: one workload, timed, checked, reported as JSON.

Started by `run.py` with one BLAS thread in its environment.  Modes:
    --prepare      write the workload's inputs (the B checkpoint) and exit
    --setup-only   measure set-up time only
    (default)      set up, run timed iterations for --seconds, check
The last line of standard output is a JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# images_per_s uses this percentile of the iteration times.  The reference
# host's slow phases last seconds to minutes; over six 30 s runs of
# tiny_train_b4_64 the spread (IQR/median) of the rate was 2.4% at the 2nd
# percentile, 7.9% at the 10th and 14% at the median (README, "End-to-end
# metrics").
FAST_PERCENTILE = 2

THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> tuple[int, str]:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn(), f"{Path(path).name}:{symbol}"
    raise SystemExit("error: cannot find numpy's OpenBLAS to read its thread count")


def import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import dwrseg
    from dwrseg import cli, data, network, training
    from dwrseg.engine import Tape, ops

    if not Path(dwrseg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported dwrseg from {dwrseg.__file__}, not {src}")
    return SimpleNamespace(cli=cli, data=data, network=network, training=training,
                           ops=ops, Tape=Tape)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--prepare", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    threads, source = blas_threads()
    if threads != 1:
        raise SystemExit(f"error: BLAS reports {threads} threads ({source}); need exactly 1")

    tracer = Tracer()
    t0 = time.perf_counter()
    dw = import_program(Path.cwd())
    if args.trace:
        tracer.install()
    workload = WORKLOADS[args.workload](dw, args.seed, args.work)
    if args.prepare:
        workload.prepare()
        print(json.dumps({"prepared": True}))
        return 0
    tracer.phase_setup = True
    workload.setup()
    setup_s = time.perf_counter() - t0
    tracer.phase_setup = False
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"blas_threads {threads} ({source})")
    durations = workload.run(args.seconds, tracer)
    fast, p10, median = np.percentile(durations, [FAST_PERCENTILE, 10, 50])
    images = workload.images_per_iter
    print(f"iterations {len(durations)}: p{FAST_PERCENTILE} {1e3 * fast:.2f} ms, "
          f"p10 {1e3 * p10:.2f} ms, median {1e3 * median:.2f} ms -> images_per_s "
          f"p{FAST_PERCENTILE} {images / fast:.4f}, p10 {images / p10:.4f}, "
          f"median {images / median:.4f}{' (traced)' if args.trace else ''}")

    if args.trace:
        import tracemalloc

        tracemalloc.start()
        workload.memory_pass()
        tracemalloc.stop()
        values = tracer.metrics(len(durations))
        over = tracer.bounded_by(values, 1e3 * float(np.mean(durations)))
        results = [("per-layer times within the mean iteration time", not over,
                    f"exceeding: {over}" if over else "all within")]
    else:
        values = {"images_per_s": images / fast, "setup_s": setup_s,
                  "peak_rss_mb": workload.peak_rss_mb}
        results = []
    results += workload.checks()
    for name, ok, detail in results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({"correct": all(ok for _, ok, _ in results),
                      "attempted": workload.attempted, "failed": workload.failed,
                      "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
