"""Recorded forward graph for reverse-mode differentiation.

Every op call appends one `Node` to `Tape.nodes`: the op kind, the layer
it belongs to (taken from its first named input), the var indices of all
its inputs, its output var and shape, the conv spec or pooling window, and
`saved`, the values its backward reads.  `Tape.backward` walks the nodes
in reverse through the one table `BACKWARD`, accumulating gradients per var
index in a fixed order, so repeated backward passes are bitwise identical.
It drops each op output's gradient once that node's backward has read it,
so what it returns are the leaves' gradients (the parameters' and inputs').

The tape checks for NaN and Inf once, where one can first appear: in the
output of each conv, batch norm, add and upsample, as it takes it.  ReLU,
concat, split and maxpool only select or copy values of their inputs, and
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

import numpy as np

from . import ops
from .ops import check_finite
from .tensor import ShapeError

# The ops whose output can be non-finite where their inputs are finite (a
# product, sum or blend can overflow).  The others only pass values on:
# maxpool's -inf padding never wins a window, which always holds a pixel.
_CHECKED_KINDS = frozenset({"conv2d", "batchnorm", "add", "upsample"})


def _split_backward(x_shape, lo, hi, g):
    full = np.zeros(x_shape, dtype=g.dtype)
    full[:, lo:hi] = g
    return (full,)


# kind -> backward(*node.saved, grad_out): one gradient array per parent, in
# parent order.  Each entry looks its kernel up on `ops` when called, so a
# kernel replaced there after import is the one that runs.
BACKWARD = {
    "conv2d": lambda x, w, spec, g: ops.conv2d_backward(x, w, spec, g),
    "batchnorm": lambda x, state, mode, g: ops.batchnorm_backward(x, state, g, mode),
    "relu": lambda out, g: (ops.relu_backward(out, g),),
    "add": lambda g: (g, g),
    "concat": lambda widths, g: tuple(ops.split_channels(g, widths)),
    "split": _split_backward,
    "maxpool": lambda x, k, s, p, g: (ops.maxpool_backward(x, k, s, p, g),),
    "upsample": lambda x_shape, h, w, g: (ops.upsample_bilinear_backward(x_shape, h, w, g),),
}


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
    saved: tuple                    # BACKWARD[kind]'s arguments before grad_out
    spec: ops.ConvSpec | None = None
    window: tuple[int, int, int] | None = None  # (kernel, stride, dilation)


class Tape:
    """The recorded op graph of one forward pass, and its reverse walk.

    Leaves (`leaf`) are the values gradients are asked for; every op method
    returns a new var and, when recording, appends its Node.  `backward`
    returns gradients for the leaves only.
    """

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

    def _out(self, kind: str, data: np.ndarray, parents: tuple, saved: tuple, **fields) -> Var:
        """Take `data` as one op's output: check it is finite if the op is
        one of _CHECKED_KINDS, give it a var, record it."""
        layer = self._layer_of(parents)
        if layer is not None:
            self._last_layer = layer
        if kind in _CHECKED_KINDS:
            where = layer or f"{kind} after {self._last_layer}"
            check_finite(f"{where}: {kind} output", data)
        v = Var(data, self._num_vars)
        self._num_vars += 1
        if self.record:
            self.nodes.append(Node(kind, layer, tuple(p.idx for p in parents), v.idx,
                                   data.shape, saved, **fields))
        return v

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x: Var, weight: Var, bias: Var | None, spec: ops.ConvSpec) -> Var:
        parents = (x, weight, bias) if bias is not None else (x, weight)
        b = bias.data if bias is not None else None
        out = ops.conv2d_forward(x.data, weight.data, b, spec)
        # grad_b is None without a bias, and no parent then takes it
        return self._out("conv2d", out, parents, (x.data, weight.data, spec), spec=spec,
                         window=(spec.kernel, spec.stride, spec.dilation))

    def batchnorm(self, x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
                  running_var: np.ndarray, mode: str) -> Var:
        # the kernels read exactly the gamma/beta arrays this node records;
        # train mode updates the running statistics in place
        state = ops.BatchNormState(gamma.data, beta.data, running_mean, running_var)
        out = ops.batchnorm_forward(x.data, state, mode)
        return self._out("batchnorm", out, (x, gamma, beta), (x.data, state, mode))

    def relu(self, x: Var) -> Var:
        out = ops.relu_forward(x.data)
        # the mask is read from the output, so the input need not be kept
        return self._out("relu", out, (x,), (out,))

    def add(self, x: Var, y: Var) -> Var:
        out = ops.add(x.data, y.data)
        return self._out("add", out, (x, y), ())

    def concat(self, xs: list[Var]) -> Var:
        out = ops.concat_channels([v.data for v in xs])
        return self._out("concat", out, tuple(xs), ([v.data.shape[1] for v in xs],))

    def split(self, x: Var, widths) -> list[Var]:
        bounds = np.cumsum([0, *widths]).tolist()
        return [self._out("split", piece, (x,), (x.data.shape, lo, hi))
                for piece, lo, hi in zip(ops.split_channels(x.data, widths), bounds, bounds[1:])]

    def maxpool(self, x: Var, kernel: int, stride: int, padding: int = 0) -> Var:
        out = ops.maxpool_forward(x.data, kernel, stride, padding)
        return self._out("maxpool", out, (x,), (x.data, kernel, stride, padding),
                         window=(kernel, stride, 1))

    def upsample(self, x: Var, out_h: int, out_w: int) -> Var:
        out = ops.upsample_bilinear(x.data, out_h, out_w)
        return self._out("upsample", out, (x,), (x.data.shape, out_h, out_w))

    # -- reverse pass -------------------------------------------------------

    def backward(self, root: Var, seed_grad: np.ndarray) -> list:
        """Return the leaves' gradients, index-aligned by var (None where
        unreached, and at every op output).

        Each op output's gradient is dropped as soon as its node's backward
        has read it: no later node adds to it, since nodes run in reverse
        order of creation.  The tape keeps its nodes, so it can be walked
        again with another seed.
        """
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
            grads[node.out] = None
            for pidx, pg in zip(node.parents, BACKWARD[node.kind](*node.saved, g)):
                if grads[pidx] is None:
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
        return grads

    def grads_by_name(self, grads: list) -> dict[str, np.ndarray]:
        """Project a backward() result onto the named leaves (None where unreached)."""
        return {name: grads[idx] for name, idx in self._leaf_names.items()}
