"""Recorded forward graph for reverse-mode differentiation.

Each op call appends one node holding a closure over the values needed by
that op's backward function.  `Tape.backward` walks the nodes in reverse,
accumulating gradients per node index in a fixed order, so repeated
backward passes are bitwise identical.

A tape created with record=False computes forward results only: no nodes
and no saved buffers, which is the eval-mode fast path.  A ShapeTape
computes no values at all: it records the op graph with output shapes, so
counts and receptive fields can be read off one traced forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ShapeError


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


class Tape:
    def __init__(self, record: bool = True):
        self.record = record
        self._num_vars = 0
        # parallel lists: _parents[i] are the var indices feeding node i,
        # _backwards[i] maps grad_out -> tuple of parent grads (None = skip)
        self._node_out: list[int] = []
        self._parents: list[tuple[int, ...]] = []
        self._backwards: list = []
        self._leaf_names: dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def leaf(self, data: np.ndarray, name: str | None = None) -> Var:
        v = Var(data, self._num_vars)
        self._num_vars += 1
        if name is not None:
            if name in self._leaf_names:
                raise ValueError(f"duplicate leaf name {name!r}")
            self._leaf_names[name] = v.idx
        return v

    def _out(self, data: np.ndarray, parents: tuple[Var, ...], backward) -> Var:
        v = Var(data, self._num_vars)
        self._num_vars += 1
        if self.record:
            self._node_out.append(v.idx)
            self._parents.append(tuple(p.idx for p in parents))
            self._backwards.append(backward)
        return v

    @property
    def num_nodes(self) -> int:
        return len(self._node_out)

    # -- recorded ops -------------------------------------------------------

    def conv2d(self, x: Var, weight: Var, bias: Var | None, spec: ops.ConvSpec) -> Var:
        b = bias.data if bias is not None else None
        out = ops.conv2d_forward(x.data, weight.data, b, spec)
        xd, wd = x.data, weight.data

        def backward(go):
            gx, gw, gb = ops.conv2d_backward(xd, wd, spec, go)
            return (gx, gw, gb) if bias is not None else (gx, gw)

        parents = (x, weight, bias) if bias is not None else (x, weight)
        return self._out(out, parents, backward)

    def batchnorm(self, x: Var, gamma: Var, beta: Var, state: ops.BatchNormState,
                  mode: str) -> Var:
        # gamma/beta vars alias the arrays inside `state`
        if gamma.data is not state.gamma or beta.data is not state.beta:
            raise ValueError("batchnorm vars must alias the state's gamma/beta arrays")
        out = ops.batchnorm_forward(x.data, state, mode)
        xd = x.data

        def backward(go):
            return ops.batchnorm_backward(xd, state, go, mode)

        return self._out(out, (x, gamma, beta), backward)

    def relu(self, x: Var) -> Var:
        out = ops.relu_forward(x.data)
        xd = x.data
        return self._out(out, (x,), lambda go: (ops.relu_backward(xd, go),))

    def add(self, x: Var, y: Var) -> Var:
        out = ops.add(x.data, y.data)
        return self._out(out, (x, y), lambda go: (go, go))

    def concat(self, xs: list[Var]) -> Var:
        out = ops.concat_channels([v.data for v in xs])
        widths = [v.data.shape[1] for v in xs]
        return self._out(out, tuple(xs),
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

            outs.append(self._out(piece, (x,), backward))
        return outs

    def maxpool(self, x: Var, kernel: int, stride: int, padding: int = 0) -> Var:
        out = ops.maxpool_forward(x.data, kernel, stride, padding)
        xd = x.data
        return self._out(out, (x,),
                         lambda go: (ops.maxpool_backward(xd, kernel, stride, padding, go),))

    def upsample(self, x: Var, out_h: int, out_w: int) -> Var:
        out = ops.upsample_bilinear(x.data, out_h, out_w)
        shape = x.data.shape
        return self._out(out, (x,),
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
        for node in range(len(self._node_out) - 1, -1, -1):
            g = grads[self._node_out[node]]
            if g is None:
                continue
            parent_grads = self._backwards[node](g)
            for pidx, pg in zip(self._parents[node], parent_grads):
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


# ---------------------------------------------------------------------------
# Shape-only tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    """One op recorded by a ShapeTape."""

    kind: str                       # the Tape method: "conv2d", "maxpool", ...
    name: str | None                # layer name of the weight/gamma leaf, if any
    parents: tuple[int, ...]        # var indices of the data inputs
    out: int                        # var index of the output
    shape: tuple[int, ...]          # output shape
    spec: ops.ConvSpec | None = None
    window: tuple[int, int, int] | None = None  # (kernel, stride, dilation)


class ShapeTape(Tape):
    """Tape with the same op surface that computes output shapes only.

    Every Var's data is a zero-stride view of its shape, so block code that
    reads `x.data.shape` runs unchanged.  `nodes` holds one Node per op in
    call order and `shapes[i]` the shape of var i.  No `ops` kernel runs and
    nothing can be backpropagated.
    """

    def __init__(self):
        super().__init__(record=False)
        self.nodes: list[Node] = []
        self.shapes: list[tuple[int, ...]] = []
        self._layer: dict[int, str] = {}

    def leaf(self, data: np.ndarray, name: str | None = None) -> Var:
        v = super().leaf(data, name)
        self.shapes.append(data.shape)
        if name is not None:
            self._layer[v.idx] = name.rsplit(".", 1)[0]
        return v

    def _node(self, kind: str, inputs, shape, named: Var | None = None, **fields) -> Var:
        v = Var(np.broadcast_to(np.zeros((), inputs[0].data.dtype), shape), self._num_vars)
        self._num_vars += 1
        self.shapes.append(tuple(shape))
        name = self._layer.get(named.idx) if named is not None else None
        self.nodes.append(Node(kind, name, tuple(p.idx for p in inputs), v.idx,
                               tuple(shape), **fields))
        return v

    def conv2d(self, x, weight, bias, spec):
        ops._check_conv_operands(x.data, weight.data,
                                 bias.data if bias is not None else None, spec)
        n, _, h, w = x.shape
        return self._node("conv2d", (x,), (n, spec.out_channels, *spec.out_hw(h, w)), weight,
                          spec=spec, window=(spec.kernel, spec.stride, spec.dilation))

    def batchnorm(self, x, gamma, beta, state, mode):
        return self._node("batchnorm", (x,), x.shape, gamma)

    def relu(self, x):
        return self._node("relu", (x,), x.shape)

    def add(self, x, y):
        if x.shape != y.shape:
            raise ShapeError(f"add: shapes {x.shape} != {y.shape}")
        return self._node("add", (x, y), x.shape)

    def concat(self, xs):
        n, _, h, w = xs[0].shape
        return self._node("concat", tuple(xs), (n, sum(v.shape[1] for v in xs), h, w))

    def split(self, x, widths):
        if sum(widths) != x.shape[1]:
            raise ShapeError(f"split widths {widths} do not sum to {x.shape[1]} channels")
        n, _, h, w = x.shape
        return [self._node("split", (x,), (n, c, h, w)) for c in widths]

    def maxpool(self, x, kernel, stride, padding=0):
        n, c, h, w = x.shape
        return self._node("maxpool", (x,), (n, c, *ops._pool_out_hw(h, w, kernel, stride, padding)),
                          window=(kernel, stride, 1))

    def upsample(self, x, out_h, out_w):
        return self._node("upsample", (x,), (*x.shape[:2], out_h, out_w))
