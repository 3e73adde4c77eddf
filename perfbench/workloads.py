"""The workloads.  Each is built from the seed alone.

A workload has
    prepare()        work done before the clock starts (writing inputs)
    setup()          everything up to the first result, including one
                     untimed iteration
    run(seconds, tracer) -> list of timed iteration durations (s)
    memory_pass()    one more iteration, run while tracemalloc is on
    checks()         list of (name, ok, detail), made outside the timing
and counts `attempted` / `failed` operations.  The modules of the program
are passed in, so nothing here imports `dwrseg` before the clock starts.
"""

from __future__ import annotations

import resource
import time
from dataclasses import replace

import numpy as np

import checks

MIN_ITERS = 3  # timed iterations every run makes, whatever --seconds says


def randomize_affine(params, seed):
    """Draw biases, BN affine parameters and running statistics from the seed.

    A fresh build has zero biases and identity BN (mean 0, var 1, gamma 1,
    beta 0), so eval BN and biases would do no visible work and a check
    could not tell a correct op from one that ignores them.
    """
    rng = np.random.default_rng([seed, 0xAFF])
    for name, arr in list(params.items()):
        if name.endswith(".gamma"):
            params.set_(name, rng.uniform(0.5, 1.5, arr.shape).astype(arr.dtype))
        elif name.endswith((".beta", ".bias")):
            params.set_(name, rng.normal(0.0, 0.1, arr.shape).astype(arr.dtype))
    for name, arr in list(params.stat_items()):
        if name.endswith(".running_mean"):
            params.set_stat_(name, rng.normal(0.0, 0.1, arr.shape).astype(arr.dtype))
        else:
            params.set_stat_(name, rng.uniform(0.5, 2.0, arr.shape).astype(arr.dtype))
    return params


class Workload:
    images_per_iter = 1

    def __init__(self, dw, seed: int, work):
        self.dw = dw          # namespace with the dwrseg modules
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None

    def note_rss(self, iterations):
        """Read the peak RSS once, after MIN_ITERS timed iterations.

        glibc's heap keeps growing slowly over many large allocations, so
        a peak read at the end of the run would grow with the number of
        iterations that fit in it, i.e. with the speed of the host.
        """
        if self.peak_rss_mb is None and iterations >= MIN_ITERS:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def prepare(self):
        pass

    def guarded(self, fn, *args):
        """Run one operation; a typed program error counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except (ArithmeticError, ValueError) as exc:
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}")
            return None


class BEval(Workload):
    """B, 19 classes, eval-mode `network.infer` on one 3x512x1024 image."""

    SHAPE = (512, 1024)

    @property
    def checkpoint(self):
        return self.work / f"b19_seed{self.seed}.dwck"

    def prepare(self):
        net = self.dw.network
        cfg = net.preset("B", num_classes=19)
        params = randomize_affine(net.build(cfg, rng_seed=self.seed), self.seed)
        net.save_checkpoint(params, cfg, self.checkpoint)

    def setup(self):
        dw = self.dw
        self.params, self.cfg = dw.network.load_checkpoint(self.checkpoint)
        spec = dw.data.ShapesSpec(canvas=self.SHAPE, num_classes=19, shapes_per_image=(3, 8),
                                  size_range=(32, 256), seed=self.seed)
        self.image = dw.data.generate(spec, 0).image
        self.first = self.guarded(self.infer)
        self.identical = []

    def infer(self):
        return self.dw.network.infer(self.params, self.cfg, self.image, mode="eval")[0]

    def run(self, seconds, tracer):
        durations, attempts = [], 0
        start = time.perf_counter()
        while attempts < MIN_ITERS or time.perf_counter() - start < seconds:
            attempts += 1
            tracer.active = True
            t0 = time.perf_counter()
            out = self.guarded(self.infer)
            dt = time.perf_counter() - t0
            tracer.active = False
            if out is not None:
                durations.append(dt)
                self.identical.append(np.array_equal(out, self.first))
            self.note_rss(len(durations))
        return durations

    def memory_pass(self):
        self.infer()

    def checks(self):
        first = self.first
        shape_ok = first is not None and first.shape == (1, 19) + self.SHAPE
        results = [
            ("logits shape 1x19x512x1024 and finite",
             shape_ok and bool(np.isfinite(first).all()), f"shape {getattr(first, 'shape', None)}"),
            ("timed logits bitwise identical to the first",
             all(self.identical), f"{sum(self.identical)} of {len(self.identical)} identical"),
        ]
        with checks.capture_first_calls(self.dw.ops) as captured:
            self.guarded(self.infer)
        return results + checks.check_op_samples(captured, self.seed)


class TinyTrain(Workload):
    """The desk recipe (`dwrseg preset desk`) through `training.train_loop`."""

    images_per_iter = 4
    ITERS = 300
    MIOU_GATE = 0.80

    def setup(self):
        dw = self.dw
        rc = dw.cli.parse_run_config(dw.cli.DESK_PRESET)
        self.train_cfg = replace(rc.train, iters=self.ITERS, log_every=1, eval_every=0,
                                 seed=self.seed)
        self.net_cfg = dw.network.preset(rc.variant, num_classes=rc.num_classes)
        spec = dw.data.ShapesSpec(canvas=rc.data.canvas, num_classes=rc.num_classes,
                                  shapes_per_image=rc.data.shapes_per_image,
                                  size_range=rc.data.size_range, noise=rc.data.noise,
                                  seed=self.seed)
        self.train_set = dw.data.make_dataset(spec, rc.data.train_count)
        self.val_set = dw.data.make_dataset(spec, rc.data.val_count, start=rc.data.train_count)
        params = dw.network.build(self.net_cfg, rng_seed=self.seed)
        self.guarded(dw.training.train_loop, params, self.net_cfg, self.train_set,
                     replace(self.train_cfg, iters=1))
        self.rounds = []

    def run(self, seconds, tracer):
        dw = self.dw
        last = self.ITERS - 1
        durations, attempts = [], 0
        start = time.perf_counter()
        while not attempts or time.perf_counter() - start < seconds:
            attempts += 1
            params = dw.network.build(self.net_cfg, rng_seed=self.seed)
            stamps = []

            def on_record(entry):
                if entry["loss"] is not None:
                    stamps.append(time.perf_counter())
                    tracer.active = entry["iter"] < last

            self.attempted += self.ITERS
            try:
                log = dw.training.train_loop(params, self.net_cfg, self.train_set,
                                             self.train_cfg, val_dataset=self.val_set,
                                             callbacks=[on_record])
            except (ArithmeticError, ValueError) as exc:
                tracer.active = False
                self.failed += self.ITERS - len(stamps)
                print(f"operation failed: {type(exc).__name__}: {exc}")
                continue
            durations.extend(np.diff(stamps).tolist())
            self.note_rss(MIN_ITERS)
            preds = [dw.network.infer(params, self.net_cfg, s.image)[0].argmax(axis=1)[0]
                     for s in self.val_set]
            own = checks.confusion_miou(preds, [s.mask for s in self.val_set],
                                        self.net_cfg.num_classes, dw.data.IGNORE_LABEL)
            losses = [e["loss"] for e in log if e["loss"] is not None]
            tenth = len(losses) // 10
            self.rounds.append((float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:])),
                                own, log[-1]["miou"]))
            self.trained = params
        return durations

    def memory_pass(self):
        params = self.dw.network.build(self.net_cfg, rng_seed=self.seed)
        self.dw.training.train_loop(params, self.net_cfg, self.train_set,
                                    replace(self.train_cfg, iters=2))

    def checks(self):
        results = []
        for i, (first, last, own, logged) in enumerate(self.rounds):
            results += [
                (f"round {i}: mean loss of the last tenth below the first tenth",
                 last < first, f"{first:.4f} -> {last:.4f}"),
                (f"round {i}: own confusion-matrix mIoU equals the logged miou",
                 abs(own - logged) <= 1e-12, f"own {own:.6f}, logged {logged:.6f}"),
                (f"round {i}: validation mIoU reaches the desk gate {self.MIOU_GATE}",
                 own >= self.MIOU_GATE, f"{own:.4f}"),
            ]
        if self.rounds:
            ok, detail = checks.gradient_check(self.dw, self.trained, self.net_cfg, self.seed)
            results.append(("parameter gradient vs central differences (1e-2)", ok, detail))
        return results


WORKLOADS = {
    "b_eval_512x1024": BEval,
    "tiny_train_b4_64": TinyTrain,
}
