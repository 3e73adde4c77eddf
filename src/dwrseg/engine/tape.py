"""Recorded forward graph for reverse-mode differentiation.

Every op call appends one `Node` to `Tape.nodes`: the op kind, the layer
it belongs to (taken from its first named input), the var indices of all
its inputs, its output var and shape, the conv spec or pooling window, and
a closure over the values its backward needs.  `Tape.backward` walks the
nodes in reverse, accumulating gradients per var index in a fixed order,
so repeated backward passes are bitwise identical.

The tape checks each op's output for NaN and Inf once, as it takes it;
the kernels do not check.  A NumericError names the op's layer or, for an
op without parameters, the last layer before it: "s3.1.merge: conv2d
output: ..." or "add after s3.1.merge: add output: ...".

A tape created with record=False computes forward results only: no nodes
and no saved buffers, which is the eval-mode fast path.  Every kernel also
runs on a batch of zero images, so a recording tape fed a (0, c, h, w)
input is the network's trace: the same nodes, shapes with batch 0, and
every shape check of the real path, at almost no cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ops
from .tensor import ShapeError, check_finite


class Var:
    """Handle to a value living on a tape."""

    __slots__ = ("data", "idx")

    def __init__(self, data: np.ndarray, idx: int):
        self.data = data
        self.idx = idx

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(idx={self.idx}, shape={self.data.shape})"


@dataclass(frozen=True, slots=True)
class Node:
    """One recorded op."""

    kind: str                       # the Tape method: "conv2d", "maxpool", ...
    name: str | None                # layer of the first named input (weight, gamma), if any
    parents: tuple[int, ...]        # var indices of all inputs, data first, in grad order
    out: int                        # var index of the output
    shape: tuple[int, ...]          # output shape
    backward: Callable              # grad_out -> parent grads (None = skip)
    spec: ops.ConvSpec | None = None
    window: tuple[int, int, int] | None = None  # (kernel, stride, dilation)


class Tape:
    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self._num_vars = 0
        self._leaf_names: dict[str, int] = {}
        self._layer: dict[int, str] = {}  # named leaf var index -> layer name
        self._last_layer = "input"  # layer of the most recent named op

    # -- construction -------------------------------------------------------

    def leaf(self, data: np.ndarray, name: str | None = None) -> Var:
        v = Var(data, self._num_vars)
        self._num_vars += 1
        if name is not None:
            if name in self._leaf_names:
                raise ValueError(f"duplicate leaf name {name!r}")
            self._leaf_names[name] = v.idx
            self._layer[v.idx] = name.rsplit(".", 1)[0]
        return v

    def _layer_of(self, parents) -> str | None:
        return next((self._layer[p.idx] for p in parents if p.idx in self._layer), None)

    def _out(self, kind: str, data: np.ndarray, parents: tuple[Var, ...], backward,
             **fields) -> Var:
        """Take `data` as one op's output: check it is finite, give it a var, record it."""
        layer = self._layer_of(parents)
        if layer is not None:
            self._last_layer = layer
        where = layer or f"{kind} after {self._last_layer}"
        check_finite(f"{where}: {kind} output", data)
        v = Var(data, self._num_vars)
        self._num_vars += 1
        if self.record:
            self.nodes.append(Node(kind, layer, tuple(p.idx for p in parents), v.idx,
                                   data.shape, backward, **fields))
        return v

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x: Var, weight: Var, bias: Var | None, spec: ops.ConvSpec) -> Var:
        parents = (x, weight, bias) if bias is not None else (x, weight)
        b = bias.data if bias is not None else None
        out = ops.conv2d_forward(x.data, weight.data, b, spec)
        xd, wd = x.data, weight.data
        # grad_b is None without a bias, and the parents then end at the weight
        return self._out("conv2d", out, parents,
                         lambda go: ops.conv2d_backward(xd, wd, spec, go),
                         spec=spec, window=(spec.kernel, spec.stride, spec.dilation))

    def batchnorm(self, x: Var, gamma: Var, beta: Var, state: ops.BatchNormState,
                  mode: str) -> Var:
        # gamma/beta vars alias the arrays inside `state`
        if gamma.data is not state.gamma or beta.data is not state.beta:
            raise ValueError("batchnorm vars must alias the state's gamma/beta arrays")
        out = ops.batchnorm_forward(x.data, state, mode)
        xd = x.data
        return self._out("batchnorm", out, (x, gamma, beta),
                         lambda go: ops.batchnorm_backward(xd, state, go, mode))

    def relu(self, x: Var) -> Var:
        out = ops.relu_forward(x.data)
        xd = x.data
        return self._out("relu", out, (x,), lambda go: (ops.relu_backward(xd, go),))

    def add(self, x: Var, y: Var) -> Var:
        out = ops.add(x.data, y.data)
        return self._out("add", out, (x, y), lambda go: (go, go))

    def concat(self, xs: list[Var]) -> Var:
        out = ops.concat_channels([v.data for v in xs])
        widths = [v.data.shape[1] for v in xs]
        return self._out("concat", out, tuple(xs),
                         lambda go: tuple(ops.split_channels(go, widths)))

    def split(self, x: Var, widths) -> list[Var]:
        pieces = ops.split_channels(x.data, widths)
        outs = []
        offsets = np.concatenate([[0], np.cumsum(widths)])
        for i, piece in enumerate(pieces):
            lo, hi = int(offsets[i]), int(offsets[i + 1])

            def backward(go, lo=lo, hi=hi, shape=x.data.shape):
                full = np.zeros(shape, dtype=go.dtype)
                full[:, lo:hi] = go
                return (full,)

            outs.append(self._out("split", piece, (x,), backward))
        return outs

    def maxpool(self, x: Var, kernel: int, stride: int, padding: int = 0) -> Var:
        out = ops.maxpool_forward(x.data, kernel, stride, padding)
        xd = x.data
        return self._out("maxpool", out, (x,),
                         lambda go: (ops.maxpool_backward(xd, kernel, stride, padding, go),),
                         window=(kernel, stride, 1))

    def upsample(self, x: Var, out_h: int, out_w: int) -> Var:
        out = ops.upsample_bilinear(x.data, out_h, out_w)
        shape = x.data.shape
        return self._out("upsample", out, (x,),
                         lambda go: (ops.upsample_bilinear_backward(shape, out_h, out_w, go),))

    # -- reverse pass -------------------------------------------------------

    def backward(self, root: Var, seed_grad: np.ndarray) -> list:
        """Return per-var gradients (index-aligned; None where unreached)."""
        if not self.record:
            raise RuntimeError("cannot backpropagate through a non-recording tape")
        if seed_grad.shape != root.data.shape:
            raise ShapeError(
                f"seed grad shape {seed_grad.shape} != output shape {root.data.shape}")
        grads: list = [None] * self._num_vars
        grads[root.idx] = seed_grad
        for node in reversed(self.nodes):
            g = grads[node.out]
            if g is None:
                continue
            for pidx, pg in zip(node.parents, node.backward(g)):
                if pg is None:
                    continue
                if grads[pidx] is None:
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
        return grads

    def grads_by_name(self, grads: list) -> dict[str, np.ndarray]:
        """Project a backward() result onto the named leaves (None where unreached)."""
        return {name: grads[idx] for name, idx in self._leaf_names.items()}
