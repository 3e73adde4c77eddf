"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of `dwrseg` modules with
wrappers that record, per function: time, calls, and the time of wrapped
calls nested inside it (for self time).  Times only accumulate while
`active` is set, which the worker sets around timed iterations only;
while `phase_setup` is set they accumulate into separate set-up totals.
Bytes are measured in a separate pass with `tracemalloc` running, so the
allocation hooks never slow the timed iterations.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

import numpy as np

# metric name -> the `engine.ops` functions whose times it sums
OP_TIMES = {
    "ops.conv2d_forward_ms": ["conv2d_forward"],
    "ops.conv2d_backward_ms": ["conv2d_backward"],
    "ops.batchnorm_forward_ms": ["batchnorm_forward"],
    "ops.batchnorm_backward_ms": ["batchnorm_backward"],
    "ops.upsample_bilinear_ms": ["upsample_bilinear"],
    "ops.upsample_bilinear_backward_ms": ["upsample_bilinear_backward"],
    "ops.maxpool_forward_ms": ["maxpool_forward"],
    "ops.maxpool_backward_ms": ["maxpool_backward"],
    "ops.relu_ms": ["relu_forward", "relu_backward"],
    "ops.structural_ms": ["concat_channels", "split_channels", "add"],
}
BLOCK_FORWARDS = ("stem_forward", "sir_forward", "dwr_forward", "seghead_forward")
TRAINING_FUNCS = ("augment", "ohem_ce_loss", "sgd_step")
SETUP_FUNCS = {"network.load_checkpoint_ms": "load_checkpoint",
               "network.build_ms": "build", "data.generate_ms": "generate"}


class Stat:
    __slots__ = ("total", "child", "calls")

    def __init__(self):
        self.total = 0.0
        self.child = 0.0
        self.calls = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.phase_setup = False
        self.timed = defaultdict(Stat)
        self.setup = defaultdict(Stat)
        self._stack: list[float] = []
        self.macs = {"dense": [0, 0.0], "depthwise": [0, 0.0]}
        self.kept = []
        self.nodes = []
        self.forward_peak = 0
        self.backward_peak = 0
        self._iter_base = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                table = self.timed if self.active else self.setup if self.phase_setup else None
                if table is not None:
                    s = table[key]
                    s.total += dt
                    s.child += child
                    s.calls += 1
            if after is not None and self.active:
                after(args, out, dt)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _memory_wrap(self, fn, is_forward):
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            current = tracemalloc.get_traced_memory()[0]
            if is_forward:
                self._iter_base = current
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            if is_forward:
                self.forward_peak = max(self.forward_peak, peak - current)
            else:
                self.backward_peak = max(self.backward_peak, peak - self._iter_base)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of `dwrseg` that the metrics name."""
        from dwrseg import blocks, data, network, training
        from dwrseg.engine import ops, tape

        for names in OP_TIMES.values():
            for name in names:
                after = self._conv_macs if name == "conv2d_forward" else None
                setattr(ops, name, self._wrap(f"ops:{name}", getattr(ops, name), after))

        backward = self._memory_wrap(tape.Tape.backward, is_forward=False)
        tape.Tape.backward = self._wrap("tape:backward", backward, self._count_nodes)

        fwd = self._memory_wrap(network.forward, is_forward=True)
        fwd = self._wrap("network:forward", fwd)
        network.forward = fwd
        training.forward = fwd  # training imported the name directly

        for name in BLOCK_FORWARDS:
            wrapped = self._wrap(f"blocks:{name}", getattr(blocks, name))
            setattr(blocks, name, wrapped)
            # network.forward reaches the stage blocks through this table
            for kind, fn in network._BLOCK_FORWARD.items():
                if fn is wrapped.__wrapped__:
                    network._BLOCK_FORWARD[kind] = wrapped

        for name in TRAINING_FUNCS:
            after = self._ohem_kept if name == "ohem_ce_loss" else None
            setattr(training, name, self._wrap(f"training:{name}",
                                               getattr(training, name), after))

        network.load_checkpoint = self._wrap("network:load_checkpoint",
                                             network.load_checkpoint)
        network.build = self._wrap("network:build", network.build)
        data.generate = self._wrap("data:generate", data.generate)

    # -- per-call counters ----------------------------------------------------

    def _conv_macs(self, args, out, dt):
        spec = args[3]
        macs = out.size * spec.kernel * spec.kernel * (spec.in_channels // spec.groups)
        acc = self.macs["depthwise" if spec.is_depthwise else "dense"]
        acc[0] += macs
        acc[1] += dt

    def _ohem_kept(self, args, out, dt):
        labels, cfg = args[1], args[2]
        kept = np.count_nonzero(np.any(out[1] != 0, axis=1))
        valid = np.count_nonzero(labels != cfg.ignore_label)
        self.kept.append(kept / max(valid, 1))

    def _count_nodes(self, args, out, dt):
        self.nodes.append(args[0].num_nodes)

    # -- results --------------------------------------------------------------

    def metrics(self, iterations: int) -> dict:
        """Per-layer metrics; times are ms per timed iteration."""
        def ms(keys, self_time=False):
            total = sum(self.timed[k].total - (self.timed[k].child if self_time else 0.0)
                        for k in keys)
            return 1e3 * total / iterations

        out = {name: ms([f"ops:{f}" for f in funcs]) for name, funcs in OP_TIMES.items()}
        for kind in ("dense", "depthwise"):
            macs, secs = self.macs[kind]
            out[f"ops.conv2d_{kind}_gmacs"] = macs / secs / 1e9 if secs else 0.0
        out["ops.calls"] = sum(s.calls for k, s in self.timed.items()
                               if k.startswith("ops:")) / iterations
        out["tape.backward_ms"] = ms(["tape:backward"])
        out["tape.backward_self_ms"] = ms(["tape:backward"], self_time=True)
        out["tape.nodes"] = float(np.mean(self.nodes)) if self.nodes else 0.0
        out["tape.backward_peak_mb"] = self.backward_peak / 2**20
        out["network.forward_ms"] = ms(["network:forward"])
        out["network.forward_self_ms"] = ms(["network:forward"], self_time=True)
        out["network.forward_peak_mb"] = self.forward_peak / 2**20
        for name, func in SETUP_FUNCS.items():
            out[name] = 1e3 * self.setup[f"{name.split('.')[0]}:{func}"].total
        for name in BLOCK_FORWARDS:
            out[f"blocks.{name}_ms"] = ms([f"blocks:{name}"])
        for name in TRAINING_FUNCS:
            out[f"training.{name}_ms"] = ms([f"training:{name}"])
        out["training.ohem_kept_fraction"] = float(np.mean(self.kept)) if self.kept else 0.0
        return out

    def bounded_by(self, metrics: dict, iteration_ms: float) -> list:
        """Names of per-iteration times that exceed the iteration time."""
        return [k for k, v in metrics.items() if k.endswith("_ms") and
                k not in SETUP_FUNCS and v > iteration_ms]
