"""Named, ordered storage for learnable tensors and batch-norm statistics.

Names follow "<stage>.<block_idx>.<layer>" (e.g. "s3.0.rr.conv.weight");
iteration order is construction order and is what checkpoints, SGD updates
and gradient stores key off, so it must stay deterministic.

A ParamVars pass made with an `init` rule is declaring: a forward that
asks for a conv or BN layer its store lacks creates it there and then, so
running a forward once builds every parameter it reads, in call order.
"""

from __future__ import annotations

import numpy as np

from .engine import FLOAT, ShapeError, Tape, Var


def he_normal(rng: np.random.Generator):
    """Conv-weight init rule: normal with std sqrt(2/fan_in), drawn from `rng`."""
    def init(spec) -> np.ndarray:
        fan_in = (spec.in_channels // spec.groups) * spec.kernel * spec.kernel
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.weight_shape).astype(FLOAT)
    return init


def zero_init(spec) -> np.ndarray:
    """Conv-weight init rule: all zeros (traces, checkpoint loading)."""
    return np.zeros(spec.weight_shape, FLOAT)


def _assign(table: dict, name: str, value: np.ndarray) -> None:
    """Overwrite `table[name]` in place; KeyError for a name it lacks."""
    dst = table[name]
    if dst.shape != value.shape:
        raise ShapeError(f"{name}: shape {value.shape} != stored {dst.shape}")
    dst[...] = value


class ParamStore:
    """Two ordered tables of named arrays, and the only owner of both.

    The parameters are what SGD updates: conv weights and biases and BN
    `<layer>.gamma`, `<layer>.beta`.  The statistics are the BN running
    `<layer>.running_mean`, `<layer>.running_var`, in the order the layers
    were declared.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._stats: dict[str, np.ndarray] = {}

    # -- registration -------------------------------------------------------

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.ascontiguousarray(value, dtype=FLOAT)
        self._params[name] = arr
        return arr

    def add_bn(self, prefix: str, channels: int) -> None:
        """Declare an identity BN layer: gamma 1, beta 0, running mean 0, var 1."""
        self.add(f"{prefix}.gamma", np.ones(channels, FLOAT))
        self.add(f"{prefix}.beta", np.zeros(channels, FLOAT))
        self._stats[f"{prefix}.running_mean"] = np.zeros(channels, FLOAT)
        self._stats[f"{prefix}.running_var"] = np.ones(channels, FLOAT)

    # -- access --------------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def set_(self, name: str, value: np.ndarray) -> None:
        """Overwrite a parameter in place (views and tape leaves see it)."""
        _assign(self._params, name, value)

    def items(self):
        return self._params.items()

    def stat(self, name: str) -> np.ndarray:
        """The running statistic `name`, as __getitem__ gives a parameter."""
        return self._stats[name]

    def stat_items(self):
        """(name, array) pairs for BN running statistics, in order."""
        return self._stats.items()

    def set_stat_(self, name: str, value: np.ndarray) -> None:
        """Overwrite a running statistic in place; KeyError for any other name."""
        _assign(self._stats, name, value)

    def astype(self, dtype) -> "ParamStore":
        """Copy of the store with all arrays cast (float64 for gradcheck runs)."""
        out = ParamStore()
        out._params = {n: np.array(a, dtype=dtype, order="C") for n, a in self._params.items()}
        out._stats = {n: np.array(a, dtype=dtype, order="C") for n, a in self._stats.items()}
        return out


class ParamVars:
    """One forward pass: its tape, its store, its BN mode and its capture.

    With `init` set the pass declares: a conv layer it is asked for and
    the store lacks gets `init(spec)` as weight, then a zero bias; a BN
    layer gets `add_bn` at its input's width.  With `init` None every
    requested parameter must exist.  `capture`, when given, collects the
    feature maps the blocks `keep`.
    """

    def __init__(self, tape: Tape, store: ParamStore, mode: str = "eval",
                 capture: dict | None = None, init=None):
        self.tape = tape
        self.store = store
        self.mode = mode
        self.capture = capture
        self.init = init

    def __call__(self, name: str) -> Var:
        return self.tape.leaf(self.store[name], name)

    def conv(self, name: str, x: Var, spec) -> Var:
        """Conv layer `name` applied to `x`."""
        store = self.store
        if self.init is not None and f"{name}.weight" not in store:
            store.add(f"{name}.weight", self.init(spec))
            if spec.has_bias:
                store.add(f"{name}.bias", np.zeros(spec.out_channels, FLOAT))
        weight = self(f"{name}.weight")
        bias = self(f"{name}.bias") if spec.has_bias else None
        return self.tape.conv2d(x, weight, bias, spec)

    def bn(self, prefix: str, x: Var) -> Var:
        """BN layer `prefix` applied to `x` in this pass's mode."""
        store = self.store
        if self.init is not None and f"{prefix}.gamma" not in store:
            store.add_bn(prefix, x.shape[1])
        return self.tape.batchnorm(x, self(f"{prefix}.gamma"), self(f"{prefix}.beta"),
                                   store.stat(f"{prefix}.running_mean"),
                                   store.stat(f"{prefix}.running_var"), self.mode)

    def keep(self, key: str, t: Var) -> None:
        """Store `t`'s data under `key` when the pass captures."""
        if self.capture is not None:
            self.capture[key] = t.data
