"""Named, ordered storage for learnable tensors and batch-norm statistics.

Names follow "<stage>.<block_idx>.<layer>" (e.g. "s3.0.rr.conv.weight");
iteration order is construction order and is what checkpoints, SGD updates
and gradient stores key off, so it must stay deterministic.

A store made with an `init` rule is declaring: a forward that asks for a
conv or BN layer the store lacks creates it there and then, so running a
forward once builds every parameter it reads, in call order.
"""

from __future__ import annotations

import numpy as np

from .engine import FLOAT, BatchNormState, ShapeError, Tape, Var


def he_normal(rng: np.random.Generator):
    """Conv-weight init rule: normal with std sqrt(2/fan_in), drawn from `rng`."""
    def init(spec) -> np.ndarray:
        fan_in = (spec.in_channels // spec.groups) * spec.kernel * spec.kernel
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.weight_shape).astype(FLOAT)
    return init


def zero_init(spec) -> np.ndarray:
    """Conv-weight init rule: all zeros (traces, checkpoint loading)."""
    return np.zeros(spec.weight_shape, FLOAT)


class ParamStore:
    """Ordered map of learnable arrays plus the BN states that alias them.

    With `init` set the store declares itself: a conv layer the forward
    asks for gets `init(spec)` as weight, then a zero bias; a BN layer gets
    `add_bn`.  With `init` None every requested parameter must exist.
    """

    def __init__(self, init=None):
        self._params: dict[str, np.ndarray] = {}
        self._bn: dict[str, BatchNormState] = {}
        self.init = init

    # -- registration -------------------------------------------------------

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.ascontiguousarray(value, dtype=FLOAT)
        self._params[name] = arr
        return arr

    def add_bn(self, prefix: str, channels: int, eps: float = 1e-5,
               momentum: float = 0.1) -> BatchNormState:
        state = BatchNormState.create(channels, eps=eps, momentum=momentum)
        self.add(f"{prefix}.gamma", state.gamma)
        self.add(f"{prefix}.beta", state.beta)
        # keep the registered arrays as the canonical storage
        state.gamma = self._params[f"{prefix}.gamma"]
        state.beta = self._params[f"{prefix}.beta"]
        self._bn[prefix] = state
        return state

    # -- access --------------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def bn(self, prefix: str) -> BatchNormState:
        return self._bn[prefix]

    def set_(self, name: str, value: np.ndarray) -> None:
        """Overwrite a parameter in place (preserves aliases into BN states)."""
        dst = self._params[name]
        if dst.shape != value.shape:
            raise ShapeError(f"{name}: shape {value.shape} != stored {dst.shape}")
        dst[...] = value

    def items(self):
        return self._params.items()

    def stat_items(self):
        """(name, array) pairs for BN running statistics, in order."""
        for prefix, st in self._bn.items():
            yield f"{prefix}.running_mean", st.running_mean
            yield f"{prefix}.running_var", st.running_var

    def set_stat_(self, name: str, value: np.ndarray) -> None:
        prefix, field = name.rsplit(".", 1)
        st = self._bn[prefix]
        arr = getattr(st, field)
        if arr.shape != value.shape:
            raise ShapeError(f"{name}: shape {value.shape} != stored {arr.shape}")
        arr[...] = value

    def astype(self, dtype) -> "ParamStore":
        """Copy of the store with all arrays cast (float64 for gradcheck runs)."""
        def copy(a):
            return np.array(a, dtype=dtype, order="C")

        out = ParamStore()
        bn_names = {f"{p}.{f}" for p in self._bn for f in ("gamma", "beta")}
        for name, arr in self._params.items():
            if name not in bn_names:
                out._params[name] = copy(arr)
        for prefix, st in self._bn.items():
            new = BatchNormState(gamma=copy(st.gamma), beta=copy(st.beta),
                                 running_mean=copy(st.running_mean),
                                 running_var=copy(st.running_var),
                                 eps=st.eps, momentum=st.momentum)
            out._params[f"{prefix}.gamma"] = new.gamma
            out._params[f"{prefix}.beta"] = new.beta
            out._bn[prefix] = new
        # restore original ordering
        out._params = {name: out._params[name] for name in self._params}
        return out


class ParamVars:
    """Per-forward-pass bridge from a ParamStore to tape leaf variables."""

    def __init__(self, tape: Tape, store: ParamStore):
        self.tape = tape
        self.store = store

    def __call__(self, name: str) -> Var:
        return self.tape.leaf(self.store[name], name)

    def conv(self, name: str, spec):
        """(weight var, bias var or None) of conv layer `name`."""
        store = self.store
        if store.init is not None and f"{name}.weight" not in store:
            store.add(f"{name}.weight", store.init(spec))
            if spec.has_bias:
                store.add(f"{name}.bias", np.zeros(spec.out_channels, FLOAT))
        weight = self(f"{name}.weight")
        return weight, self(f"{name}.bias") if spec.has_bias else None

    def bn(self, prefix: str, channels: int):
        """(gamma var, beta var, state) for tape.batchnorm."""
        store = self.store
        if store.init is not None and f"{prefix}.gamma" not in store:
            store.add_bn(prefix, channels)
        state = store.bn(prefix)
        return self(f"{prefix}.gamma"), self(f"{prefix}.beta"), state
