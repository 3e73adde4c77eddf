"""Forward and backward implementations of every primitive operator.

All operators are pure functions of their operands (batch norm in train
mode additionally updates its own running statistics).  Each backward is
its forward's map transposed, read off the same description:

- convolution, dense, depthwise or grouped: out[:, g] = W[g] @ cols[:, g]
  over im2col columns (n, groups, cg*k*k, oh*ow), rows ordered channel,
  kernel row, kernel column, gathered and multiplied in balanced bands of
  whole groups or, within one group, of output rows, each band's columns
  at most BAND_BYTES; W[g]^T @ grad_out[:, g] goes back onto the input as
  one strided-slice add per kernel offset (col2im);
- max pooling: a running maximum over the k*k strided window views; each
  window's gradient goes back through the view of its first argmax;
- bilinear upsampling: A_y @ x @ A_x^T with one interpolation matrix per
  axis, evaluated as a two-pass blend (along x at input height, then along
  y, in bands of channel planes or output rows) into a C-contiguous result;
  the backward is A_y^T @ grad_out @ A_x.

Every output element is produced by one reduction in a fixed order, so
repeated runs are bitwise identical at a fixed BLAS thread count (a matmul
may round differently at another), and banding leaves every result as the
unbanded computation gives it.  Convolution padding is zero padding;
pooling padding behaves as -inf.  Bilinear upsampling uses half-pixel
source coordinates clamped to the borders (src = (dst + 0.5) * in/out - 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import FLOAT, ShapeError, check_4d

# Transient workspace of one conv or upsample band (im2col columns, gathered
# rows).  Bands of this size stay far above the sizes where OpenBLAS takes
# its small-matrix path, so banding does not change any result.
BAND_BYTES = 8 << 20

# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-d convolution (square kernel)."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride,
               self.dilation, self.groups) < 1 or self.padding < 0:
            raise ShapeError(f"invalid conv spec: {self}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"channels ({self.in_channels}->{self.out_channels}) not divisible "
                f"by groups={self.groups}")

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        span = self.dilation * (self.kernel - 1) + 1
        oh = (h + 2 * self.padding - span) // self.stride + 1
        ow = (w + 2 * self.padding - span) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"non-positive conv output ({oh}x{ow}) for input {h}x{w} with {self}")
        return oh, ow


def _pad(x: np.ndarray, p: int, fill: float = 0.0) -> np.ndarray:
    """x with p rows and columns of `fill` on each spatial side.

    The same array as np.pad gives, written directly: np.pad's generic
    bookkeeping costs several times the copy on the small tensors of a
    training step.
    """
    if p == 0:
        return x
    n, c, h, w = x.shape
    out = np.empty((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    out[:, :, :p] = fill
    out[:, :, p + h:] = fill
    out[:, :, p:p + h, :p] = fill
    out[:, :, p:p + h, p + w:] = fill
    return out


def _patches(x: np.ndarray, k: int, stride: int, dilation: int,
             oh: int, ow: int) -> np.ndarray:
    """Strided view (n, c, k, k, oh, ow) over a padded input."""
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(x.shape[0], x.shape[1], k, k, oh, ow),
        strides=(sn, sc, dilation * sh, dilation * sw, stride * sh, stride * sw),
        writeable=False,
    )


def _check_conv_operands(x, weight, bias, spec: ConvSpec):
    check_4d("conv input", x)
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"conv input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(f"conv weight shape {weight.shape} != expected {spec.weight_shape}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({spec.out_channels},)")


def _bands(count: int, unit_bytes: int):
    """Balanced [i0, i1) bands of `count` units, each at most BAND_BYTES
    where a unit fits: band sizes differ by at most one unit, so no band is
    left short (OpenBLAS rounds a small enough product differently)."""
    nb = max(1, min(count, -(-count // max(1, BAND_BYTES // max(1, unit_bytes)))))
    cuts = [count * i // nb for i in range(nb + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias, spec: ConvSpec) -> np.ndarray:
    """out[:, g] = W[g] @ cols[:, g], one batched matmul per band of the output.

    The im2col columns of a band are gathered from the padded input and
    multiplied straight into that band of the output, so the workspace stays
    within BAND_BYTES.  Bands hold whole groups, and split the output rows
    only where one group's columns do not fit: a one-output-channel group
    is a matrix-vector product, whose rounding OpenBLAS chooses by its
    length.  A conv whose columns fit runs one matmul, and every output
    element is the same reduction either way.
    """
    _check_conv_operands(x, weight, bias, spec)
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    cg, og, kk = spec.in_channels // spec.groups, spec.out_channels // spec.groups, weight[0].size
    pat = _patches(_pad(x, spec.padding), spec.kernel, spec.stride, spec.dilation, oh, ow)
    wmat = weight.reshape(spec.groups, og, kk)
    out = np.empty((n, spec.groups, og, oh * ow), dtype=np.result_type(weight, x))
    row_bytes = n * kk * ow * x.itemsize  # one output row of one group's columns
    for g0, g1 in _bands(spec.groups, row_bytes * oh):
        for r0, r1 in _bands(oh, row_bytes * (g1 - g0)):
            # (n, groups, cg*k*k, pixels): reduction axis ordered channel, kernel row,
            # kernel col (named, not -1, which numpy cannot infer for zero images)
            cols = pat[:, g0 * cg:g1 * cg, ..., r0:r1, :].reshape(
                n, g1 - g0, kk, (r1 - r0) * ow)
            np.matmul(wmat[g0:g1], cols, out=out[:, g0:g1, :, r0 * ow:r1 * ow])
    out = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        out += np.asarray(bias).reshape(1, -1, 1, 1)
    return out


def conv2d_backward(x: np.ndarray, weight: np.ndarray, spec: ConvSpec,
                    grad_out: np.ndarray):
    """Exact gradients of conv2d_forward; returns (grad_x, grad_w, grad_b).

    The forward transposed, per group: grad_cols = W[g]^T @ grad_out[:, g] is
    scattered back onto the input (col2im), and grad_w[g] =
    sum_n grad_out[n, g] @ cols[n, g]^T, one matmul per image summed over
    images; grad_b likewise sums each image's pixels, then the images.
    """
    _check_conv_operands(x, weight, None, spec)
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != ({n}, {spec.out_channels}, {oh}, {ow})")

    xp = _pad(x, spec.padding)
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
    cols = _patches(xp, k, s, d, oh, ow).reshape(n, spec.groups, weight[0].size, oh * ow)
    wmat = weight.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    go = grad_out.reshape(n, spec.groups, spec.out_channels // spec.groups, oh * ow)

    # pixels, then images: sum(axis=(0, 2, 3)) fuses both for a single channel,
    # which would round a one-channel group differently from a dense conv
    grad_b = grad_out.sum(axis=(2, 3)).sum(axis=0) if spec.has_bias else None
    grad_w = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.shape)
    # one output channel per group (depthwise) makes W[g]^T @ grad_out[:, g] an
    # outer product: numpy has no BLAS call for inner dimension 1, and the
    # broadcast multiply gives the same single products
    grad_cols = (wmat.transpose(0, 2, 1) * go if wmat.shape[1] == 1
                 else np.matmul(wmat.transpose(0, 2, 1), go))
    grad_cols = grad_cols.reshape(n, x.shape[1], k, k, oh, ow)
    gx_pad = np.zeros(xp.shape, dtype=grad_cols.dtype)
    for i in range(k):
        for j in range(k):
            gx_pad[:, :, i * d:i * d + s * oh:s, j * d:j * d + s * ow:s] += grad_cols[:, :, i, j]

    grad_x = gx_pad[:, :, p:p + h, p:p + w] if p else gx_pad
    return np.ascontiguousarray(grad_x), grad_w, grad_b


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-channel affine parameters plus running statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def create(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        return cls(
            gamma=np.ones(channels, dtype=FLOAT),
            beta=np.zeros(channels, dtype=FLOAT),
            running_mean=np.zeros(channels, dtype=FLOAT),
            running_var=np.ones(channels, dtype=FLOAT),
            eps=eps,
            momentum=momentum,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _bn_check(x: np.ndarray, state: BatchNormState):
    check_4d("batchnorm input", x)
    if x.shape[1] != state.channels:
        raise ShapeError(f"batchnorm: input has {x.shape[1]} channels, state has {state.channels}")


def batchnorm_forward(x: np.ndarray, state: BatchNormState, mode: str) -> np.ndarray:
    """Normalize per channel; train mode uses (and records) batch statistics.

    Train mode normalizes with the biased batch variance and updates the
    running statistics in place: running <- (1-momentum)*running +
    momentum*batch.  Eval mode reads the running statistics only.
    """
    _bn_check(x, state)
    n, c, h, w = x.shape
    if mode == "train":
        if n * h * w < 2:
            raise ShapeError(f"batchnorm train mode needs n*h*w >= 2, got {n * h * w}")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        m = state.momentum
        state.running_mean[:] = ((1.0 - m) * state.running_mean + m * mean).astype(FLOAT)
        state.running_var[:] = ((1.0 - m) * state.running_var + m * var).astype(FLOAT)
    elif mode == "eval":
        mean, var = state.running_mean, state.running_var
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")

    inv = 1.0 / np.sqrt(var + state.eps)
    out = x - mean.reshape(1, c, 1, 1)
    out *= (state.gamma * inv).reshape(1, c, 1, 1)
    out += state.beta.reshape(1, c, 1, 1)
    return out


def batchnorm_backward(x: np.ndarray, state: BatchNormState, grad_out: np.ndarray,
                       mode: str = "train"):
    """Gradients for (x, gamma, beta); train mode includes the mean/var terms."""
    _bn_check(x, state)
    if grad_out.shape != x.shape:
        raise ShapeError(f"batchnorm grad shape {grad_out.shape} != input {x.shape}")
    n, c, h, w = x.shape
    if mode == "train":
        m = n * h * w
        mean = x.mean(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        var = x.var(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = (x - mean) * inv
        dxhat = grad_out * state.gamma.reshape(1, c, 1, 1)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (dxhat - (sum_dxhat + xhat * sum_dxhat_xhat) / m) * inv
    elif mode == "eval":
        inv = (1.0 / np.sqrt(state.running_var + state.eps)).reshape(1, c, 1, 1)
        xhat = (x - state.running_mean.reshape(1, c, 1, 1)) * inv
        grad_x = grad_out * state.gamma.reshape(1, c, 1, 1) * inv
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")

    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(grad_x), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Pointwise / structural ops
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # gradient defined as 0 at exactly x == 0
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype)


def add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes {x.shape} != {y.shape}")
    return x + y


def concat_channels(xs) -> np.ndarray:
    if not xs:
        raise ShapeError("concat of zero tensors")
    base = xs[0].shape
    for x in xs[1:]:
        if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
            raise ShapeError(f"concat: incompatible shapes {base} vs {x.shape}")
    return np.concatenate(xs, axis=1)


def split_channels(x: np.ndarray, widths) -> list[np.ndarray]:
    """Inverse of concat_channels; widths must sum to the channel count."""
    if sum(widths) != x.shape[1]:
        raise ShapeError(f"split widths {widths} do not sum to {x.shape[1]} channels")
    offsets = np.cumsum(widths)[:-1]
    return [np.ascontiguousarray(p) for p in np.split(x, offsets, axis=1)]


# ---------------------------------------------------------------------------
# Max pooling (-inf padding; gradient to the first row-major argmax)
# ---------------------------------------------------------------------------

def _pool(x: np.ndarray, kernel: int, stride: int, padding: int):
    """The k*k strided views (n, c, oh, ow) of the -inf-padded input, one
    per window offset in row-major order, and their running maximum."""
    check_4d("maxpool input", x)
    if padding >= kernel:
        raise ShapeError(f"maxpool padding {padding} must be < kernel {kernel}")
    h, w = x.shape[2:]
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"non-positive pool output for input {h}x{w}")
    pat = _patches(_pad(x, padding, -np.inf), kernel, stride, 1, oh, ow)
    views = [pat[:, :, i, j] for i in range(kernel) for j in range(kernel)]
    top = views[0].copy()
    for v in views[1:]:
        np.maximum(top, v, out=top)
    return views, top


def maxpool_forward(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    return _pool(x, kernel, stride, padding)[1]


def maxpool_backward(x: np.ndarray, kernel: int, stride: int, padding: int,
                     grad_out: np.ndarray) -> np.ndarray:
    """The forward's slices transposed: each window's gradient goes to the
    first offset holding its maximum, and the offsets are added back in
    reverse order, so every pixel sums its windows in row-major order."""
    views, top = _pool(x, kernel, stride, padding)
    n, c, oh, ow = top.shape
    h, w = x.shape[2:]
    if grad_out.shape != (n, c, oh, ow):
        raise ShapeError(f"maxpool grad shape {grad_out.shape} != ({n},{c},{oh},{ow})")
    taken = np.zeros(top.shape, dtype=bool)
    first = []
    for v in views:
        first.append((v == top) & ~taken)
        taken |= first[-1]
    gx = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad_out.dtype)
    s = stride
    for t in reversed(range(kernel * kernel)):
        i, j = divmod(t, kernel)
        gx[:, :, i:i + s * oh:s, j:j + s * ow:s] += np.where(first[t], grad_out, 0)
    return np.ascontiguousarray(gx[:, :, padding:padding + h, padding:padding + w])


# ---------------------------------------------------------------------------
# Bilinear upsampling (half-pixel, clamped) and its exact transpose
# ---------------------------------------------------------------------------

def _bilinear_axis(n_in: int, n_out: int):
    """Per-axis gather indices (lo, hi) and interpolation fraction."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, frac


def _bilinear_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """The (n_out, n_in) map of one axis: row r holds the taps of output r,
    with the weights rounded to dtype as resize_bilinear rounds them."""
    lo, hi, frac = _bilinear_axis(n_in, n_out)
    frac = frac.astype(dtype)
    rows = np.arange(n_out)
    a = np.zeros((n_out, n_in), dtype=dtype)
    a[rows, lo] = 1 - frac
    a[rows, hi] += frac  # hi == lo at the clamped border, where frac is 0
    return a


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Interpolate a 4-d array to out_h x out_w, up or down (no checks).

    A_y @ x @ A_x^T as a two-pass blend: each row is blended along x once,
    at input height, then pairs of those rows are blended along y, one band
    of whole channel planes (or, within one plane, of output rows) at a time
    into the result.  Every output element gets the same multiplies and
    adds, in the same order, as a four-tap gather, which rounds differently
    from the matrix product.  The result is C-contiguous whatever the
    input's memory order.
    """
    n, c, h, w = x.shape
    y0, y1, fy = _bilinear_axis(h, out_h)
    x0, x1, fx = _bilinear_axis(w, out_w)
    fy = fy.astype(x.dtype).reshape(out_h, 1)
    fx = fx.astype(x.dtype)
    hx = x[..., x0]
    hx *= 1 - fx
    right = x[..., x1]
    right *= fx
    hx += right
    del right
    planes = hx.reshape(n * c, h, out_w)
    out = np.empty((n * c, out_h, out_w), dtype=hx.dtype)
    row_bytes = out_w * hx.itemsize
    for p0, p1 in _bands(n * c, row_bytes * out_h):
        for r0, r1 in _bands(out_h, row_bytes * (p1 - p0)):
            band = out[p0:p1, r0:r1]  # contiguous: rows split only within one plane
            np.take(planes[p0:p1], y0[r0:r1], axis=1, out=band, mode="clip")
            band *= 1 - fy[r0:r1]
            bot = np.take(planes[p0:p1], y1[r0:r1], axis=1)
            bot *= fy[r0:r1]
            band += bot
    return out.reshape(n, c, out_h, out_w)


def upsample_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    check_4d("upsample input", x)
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"zero-size upsample target {out_h}x{out_w}")
    if out_h < h or out_w < w:
        raise ShapeError(f"upsample target {out_h}x{out_w} smaller than input {h}x{w}")
    if (out_h, out_w) == (h, w):
        return x.copy()
    return resize_bilinear(x, out_h, out_w)


def upsample_bilinear_backward(x_shape, out_h: int, out_w: int,
                               grad_out: np.ndarray) -> np.ndarray:
    """The forward map transposed: A_y^T @ grad_out @ A_x."""
    n, c, h, w = x_shape
    if grad_out.shape != (n, c, out_h, out_w):
        raise ShapeError(f"upsample grad shape {grad_out.shape} != ({n},{c},{out_h},{out_w})")
    if (out_h, out_w) == (h, w):
        return grad_out.copy()
    a_y = _bilinear_matrix(h, out_h, grad_out.dtype)
    a_x = _bilinear_matrix(w, out_w, grad_out.dtype)
    return a_y.T @ grad_out @ a_x
