"""Forward and backward implementations of every primitive operator.

All operators are pure functions of their operands (batch norm in train
mode additionally updates its own running statistics).  Each backward is
its forward's map transposed, read off the same description:

- convolution, dense, depthwise or grouped: out[:, g] = W[g] @ cols[:, g]
  over im2col columns (n, groups, cg*k*k, oh*ow), rows ordered channel,
  kernel row, kernel column, gathered and multiplied in balanced bands of
  whole groups or, within one group of several output channels, of output
  rows, each band's columns at most BAND_BYTES for one image (a
  one-output-channel group, a matrix-vector product, is never split), then
  of images; W[g]^T @ grad_out[:, g] goes back onto the input (col2im) as
  one slice add per kernel offset, at stride 1 a contiguous slice of the
  row-flattened padded plane (grad_out laid out at the padded row pitch;
  the zero tail of each row adds +-0, which changes no sum while the
  weights are finite), at a larger stride a 2-d strided slice;
- batch norm: train mode's backward reuses the batch mean and variance its
  forward saved on the per-call BatchNormState;
- split: read-only views of the input's channels, so a kernel that wrote
  into its input would fail rather than change another op's value;
- max pooling: a running maximum over the k*k strided window views; each
  window's gradient goes back through the view of its first argmax;
- bilinear upsampling: A_y @ x @ A_x^T with one interpolation matrix per
  axis, evaluated as a two-pass blend (along x at input height, then along
  y, in bands of channel planes or output rows) into a C-contiguous result;
  the backward is A_y^T @ grad_out @ A_x.

Every output element is produced by one reduction in a fixed order, so
repeated runs are bitwise identical at a fixed BLAS thread count (a matmul
may round differently at another).  Every forward op allocates one
C-contiguous output and splits it into bands, which write disjoint slices
of it and run on `workers()` threads (the caller and a pool): convolution
and upsampling as above, batch norm, ReLU, add, concat and max pooling in
bands of channels, and the tape's finiteness check (`check_finite`) in
bands of a flat view.  Each band is the same numpy call whichever thread
runs it, so results are bitwise identical at any worker count (the CLI
keeps BLAS at one thread and sets the workers with --threads); a call
whose output fits one band runs inline on the caller, as does every call in
a forked child, which has none of the pool's threads.  The backward ops run
on the calling thread.
Convolution padding is zero padding; pooling padding behaves as -inf.
Bilinear upsampling uses half-pixel source coordinates clamped to the
borders (src = (dst + 0.5) * in/out - 0.5).
"""

from __future__ import annotations

import ctypes
import itertools
import os
import threading
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .tensor import FLOAT, NumericError, ShapeError, check_4d

# Transient workspace of one band: half of a 2 MiB per-core L2, so what a
# band writes (im2col columns, a channel slice under its three BN passes) is
# still cached when it is read back.  Conv bands are cut by one image's
# bytes, so every matmul has the shape it has for that image alone and a
# batch's results are each image's alone.  Balanced bands that split a conv
# hold more than a third of it (about half where the units are small),
# which keeps the network's products far above the sizes where OpenBLAS
# takes its small-matrix path; a matrix-vector product, whose rounding
# OpenBLAS chooses by its length, is never split.  A product of some other
# shape may still round apart from the one unbanded matmul.  Bands are cut
# by BAND_BYTES alone, never by the worker count, which would change the
# matmul shapes and with them the rounding.
BAND_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# Band workers
# ---------------------------------------------------------------------------

# the cores this process may run on; sched_getaffinity is Linux-only
DEFAULT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
_workers = DEFAULT_WORKERS
_executor = None  # a ThreadPoolExecutor of workers - 1 threads, made on first use
_in_band = threading.local()  # .active: this thread is running band tasks


def workers() -> int:
    """Threads that run the bands of one forward op (the caller included)."""
    return _workers


def set_workers(n: int) -> None:
    """Run bands on n threads from now on; results do not depend on n."""
    global _workers, _executor
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"worker count must be an integer >= 1, got {n!r}")
    if n != _workers and _executor is not None:
        _executor.shutdown()
        _executor = None
    _workers = n


def _drop_pool_in_child() -> None:
    # a forked child has none of the pool's threads, so a band call there
    # would wait forever on helpers that never start: it runs inline instead
    global _workers, _executor
    _workers, _executor = 1, None


if hasattr(os, "register_at_fork"):  # POSIX only, as os.fork is
    os.register_at_fork(after_in_child=_drop_pool_in_child)


# The allocator policy, glibc only.  By default glibc serves a block of more
# than 128 KiB (a threshold that slides up to what was freed) by mmap and
# gives freed heap tops back to the kernel, so each forward's arrays come
# back as freshly zeroed pages: 5.2k-6.2k minor faults per B eval forward at
# 1x3x512x1024 on 2 workers of a 2-core host.  These settings keep what is
# freed in the process for the next call instead (2-13 faults there): mmap
# only from 32 MiB (glibc's cap, so the threshold no longer slides), trim
# only a free top of 1 GiB, and grow the heap 256 MiB at a time.  On one
# build, perfbench's B eval peak RSS read 194 MB with all three and 199-204
# MB without any one of them.
# Constants, not tuned per machine, so every process that imports the
# engine (CLI, tests, demos, benchmarks) runs under the same heap.
# MALLOPT is {setting: mallopt's return code}, 1 where it was applied, and
# empty where the C library has no mallopt.
def _keep_freed_memory():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by name
        return MappingProxyType({})
    settings = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 1 << 30),
                "M_TOP_PAD": (-2, 256 << 20)}
    return MappingProxyType({name: mallopt(param, value)
                             for name, (param, value) in settings.items()})


MALLOPT = _keep_freed_memory()


def _run_bands(task, bands) -> None:
    """task(*band) for every band, on the calling thread and the pool.

    Bands write disjoint slices of one output, so their order is free.  A
    single band, one worker, or a call from inside a band task runs inline
    (a nested call's helpers would wait in the pool's queue behind the
    tasks that wait for them).  Every band has ended before this returns or
    re-raises the first exception, so none still writes into the output
    afterwards.  A task calls numpy and private helpers only: the public
    functions here may be wrapped by code that is not thread-safe.
    """
    global _executor
    if _workers == 1 or len(bands) == 1 or getattr(_in_band, "active", False):
        for band in bands:
            task(*band)
        return
    if _executor is None:
        # imported here: a process whose bands never reach the pool (a desk
        # or tiny run) pays neither its import time nor its memory
        from concurrent.futures import ThreadPoolExecutor
        _executor = ThreadPoolExecutor(_workers - 1, thread_name_prefix="dwrseg-band")
    todo = iter(bands)
    lock = threading.Lock()

    def drain():
        _in_band.active = True
        try:
            while True:
                with lock:
                    band = next(todo, None)
                if band is None:
                    return
                task(*band)
        finally:
            _in_band.active = False

    helpers = [_executor.submit(drain) for _ in range(min(_workers, len(bands)) - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.exception()  # waits for the helper to end; raises nothing
    for helper in helpers:
        helper.result()


def _bands(count: int, unit_bytes: int):
    """Balanced [i0, i1) bands of `count` units, each at most BAND_BYTES
    where a unit fits: band sizes differ by at most one unit, so no band is
    left short (OpenBLAS rounds a small enough product differently)."""
    if count * unit_bytes <= BAND_BYTES:  # the common case, made cheap
        return [(0, count)]
    nb = max(1, min(count, -(-count // max(1, BAND_BYTES // max(1, unit_bytes)))))
    cuts = [count * i // nb for i in range(nb + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _channel_bands(x: np.ndarray):
    """Bands of the channels of x (n, c, h, w), each over all n images."""
    return _bands(x.shape[1], x.nbytes // max(1, x.shape[1]))


def check_finite(name: str, x: np.ndarray) -> np.ndarray:
    """Raise NumericError if `x` contains NaN or Inf; return `x` unchanged.

    Checked in bands of a flat view.  A call that fits one band checks a
    mask of it; on several bands, each checks its minimum and maximum,
    which are both finite exactly when all of the band's values are (NaN
    propagates through both), so bands running at once make no masks.
    Non-finite values are counted only once a check fails.
    """
    flat = np.reshape(x, -1)
    if flat.nbytes <= BAND_BYTES:  # one band
        finite = np.isfinite(flat).all()
    else:
        failed = []

        def band(i0, i1):
            part = flat[i0:i1]
            if not (np.isfinite(part.min()) and np.isfinite(part.max())):
                failed.append(i0)

        _run_bands(band, _bands(flat.size, flat.itemsize))
        finite = not failed
    if not finite:
        bad = int(flat.size - np.count_nonzero(np.isfinite(flat)))
        raise NumericError(f"{name}: {bad} non-finite value(s) in tensor of shape {x.shape}")
    return x


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


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias, spec: ConvSpec) -> np.ndarray:
    """out[:, g] = W[g] @ cols[:, g], one batched matmul per band of the output.

    The im2col columns of a band are gathered from the padded input and
    multiplied straight into that band of the output, so the workspace stays
    within BAND_BYTES.  Bands are cut by one image's columns: they hold whole
    groups, and split the output rows only where one group's columns do not
    fit and the group has several output channels (a one-output-channel
    group, depthwise, is a matrix-vector product, whose rounding OpenBLAS
    chooses by its length, so it runs whole, one group per band); then they
    hold as many images as fit.  Every matmul of a batch thus has the shape
    it has for one image, and each image's output is what it is alone.
    """
    check_4d("conv input", x)
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"conv input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(f"conv weight shape {weight.shape} != expected {spec.weight_shape}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({spec.out_channels},)")
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    cg, og, kk = spec.in_channels // spec.groups, spec.out_channels // spec.groups, weight[0].size
    pat = _patches(_pad(x, spec.padding), spec.kernel, spec.stride, spec.dilation, oh, ow)
    wmat = weight.reshape(spec.groups, og, kk)
    out = np.empty((n, spec.groups, og, oh * ow), dtype=np.result_type(weight, x))
    # one output row of one group's columns for one image (nothing without images)
    row_bytes = min(n, 1) * kk * ow * x.itemsize

    def band(i0, i1, g0, g1, r0, r1):
        # (images, groups, cg*k*k, pixels): reduction axis ordered channel, kernel
        # row, kernel col (named, not -1, which numpy cannot infer for zero images)
        cols = pat[i0:i1, g0 * cg:g1 * cg, ..., r0:r1, :].reshape(
            i1 - i0, g1 - g0, kk, (r1 - r0) * ow)
        np.matmul(wmat[g0:g1], cols, out=out[i0:i1, g0:g1, :, r0 * ow:r1 * ow])

    _run_bands(band, [(i0, i1, g0, g1, r0, r1)
                      for g0, g1 in _bands(spec.groups, row_bytes * oh)
                      for r0, r1 in (_bands(oh, row_bytes * (g1 - g0)) if og > 1
                                     else [(0, oh)])
                      for i0, i1 in _bands(n, row_bytes * (g1 - g0) * (r1 - r0))])
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

    At stride 1, col2im runs along whole rows: grad_out is copied into rows
    of the padded input's pitch wp = w + 2p, zero past column ow, so the
    grad_cols of one kernel offset are one contiguous slice of the flattened
    padded plane, added offset by offset in row-major order.  The zero tail
    of each row adds W^T @ 0 = +-0 to pixels whose sum it leaves as it is
    (the sum starts at +0, so it is never -0).  That needs finite weights,
    as every conv the tape backpropagates has (a non-finite weight makes its
    checked forward output non-finite).  A strided conv would spend more on
    the tail than it saves, so it adds each offset as one 2-d strided slice.
    """
    n, c, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != ({n}, {spec.out_channels}, {oh}, {ow})")

    xp = _pad(x, spec.padding)
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
    hp, wp = xp.shape[2:]
    og = spec.out_channels // spec.groups
    cols = _patches(xp, k, s, d, oh, ow).reshape(n, spec.groups, weight[0].size, oh * ow)
    wmat = weight.reshape(spec.groups, og, -1)
    go = grad_out.reshape(n, spec.groups, og, oh * ow)

    # pixels, then images: sum(axis=(0, 2, 3)) fuses both for a single channel,
    # which would round a one-channel group differently from a dense conv
    grad_b = grad_out.sum(axis=(2, 3)).sum(axis=0) if spec.has_bias else None
    grad_w = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.shape)
    pitch = wp if s == 1 else ow
    if pitch != ow:
        rows = np.zeros((n, spec.out_channels, oh, pitch), dtype=grad_out.dtype)
        rows[..., :ow] = grad_out
        go = rows.reshape(n, spec.groups, og, oh * pitch)
    # one output channel per group (depthwise) makes W[g]^T @ grad_out[:, g] an
    # outer product: numpy has no BLAS call for inner dimension 1, and the
    # broadcast multiply gives the same single products
    grad_cols = (wmat.transpose(0, 2, 1) * go if og == 1
                 else np.matmul(wmat.transpose(0, 2, 1), go))
    grad_cols = grad_cols.reshape(n * c, k, k, oh * pitch)
    gx_pad = np.zeros((n * c, hp, wp), dtype=grad_cols.dtype)
    flat = gx_pad.reshape(n * c, hp * wp)
    span = (oh - 1) * wp + ow  # through the last output pixel, inside the plane
    for i in range(k):
        for j in range(k):
            if s == 1:
                start = i * d * wp + j * d
                flat[:, start:start + span] += grad_cols[:, i, j, :span]
            else:
                gx_pad[:, i * d:i * d + s * oh:s, j * d:j * d + s * ow:s] += \
                    grad_cols[:, i, j].reshape(n * c, oh, ow)

    grad_x = gx_pad.reshape(n, c, hp, wp)[:, :, p:p + h, p:p + w]
    return np.ascontiguousarray(grad_x), grad_w, grad_b


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-channel affine parameters plus running statistics: a view over
    arrays its caller owns, made for one call (the tape shares one between a
    node's forward and backward).  `batch_stats` is (x, mean, var) of the
    last train-mode forward through this view, which the backward reuses
    for that same x instead of computing the statistics again."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    batch_stats: tuple | None = field(default=None, repr=False, compare=False)

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

def check_bn_count(count: int) -> None:
    """ShapeError unless train-mode batch norm has at least two values per
    channel (count = n*h*w) to take a variance over."""
    if count < 2:
        raise ShapeError(f"batchnorm train mode needs n*h*w >= 2, got {count}")


def _batch_stats(x: np.ndarray):
    """Per-channel batch mean and biased variance, as train mode normalizes."""
    return x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))


def batchnorm_forward(x: np.ndarray, state: BatchNormState, mode: str) -> np.ndarray:
    """Normalize per channel; train mode uses (and records) batch statistics.

    Train mode normalizes with the biased batch variance, saves both
    statistics on `state` for the backward, and updates the running
    statistics in place: running <- (1-momentum)*running + momentum*batch.
    Eval mode reads the running statistics only.
    """
    check_4d("batchnorm input", x)
    n, c, h, w = x.shape
    if c != state.gamma.shape[0]:
        raise ShapeError(f"batchnorm: input has {c} channels, state has {state.gamma.shape[0]}")
    if mode == "train":
        check_bn_count(n * h * w)
        mean, var = _batch_stats(x)
        state.batch_stats = (x, mean, var)
        m = state.momentum
        state.running_mean[:] = ((1.0 - m) * state.running_mean + m * mean).astype(FLOAT)
        state.running_var[:] = ((1.0 - m) * state.running_var + m * var).astype(FLOAT)
    elif mode == "eval":
        mean, var = state.running_mean, state.running_var
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")

    scale = state.gamma * (1.0 / np.sqrt(var + state.eps))
    out = np.empty(x.shape, dtype=np.result_type(x, mean))
    _run_bands(lambda c0, c1: _normalize(x[:, c0:c1], mean[c0:c1], scale[c0:c1],
                                         state.beta[c0:c1], out[:, c0:c1]),
               _channel_bands(x))
    return out


def _normalize(x, mean, scale, beta, out):
    """out = (x - mean) * scale + beta per channel, in three passes."""
    np.subtract(x, mean.reshape(1, -1, 1, 1), out=out)
    out *= scale.reshape(1, -1, 1, 1)
    out += beta.reshape(1, -1, 1, 1)


def batchnorm_backward(x: np.ndarray, state: BatchNormState, grad_out: np.ndarray,
                       mode: str = "train"):
    """Gradients for (x, gamma, beta) of the forward that normalized this x
    with (mean, var): train mode's batch statistics (those the forward saved
    on `state` for this x) with their mean/var terms, or eval mode's running
    ones."""
    if grad_out.shape != x.shape:
        raise ShapeError(f"batchnorm grad shape {grad_out.shape} != input {x.shape}")
    n, c, h, w = x.shape
    if mode == "train":
        saved = state.batch_stats
        mean, var = saved[1:] if saved is not None and saved[0] is x else _batch_stats(x)
    elif mode == "eval":
        mean, var = state.running_mean, state.running_var
    else:
        raise ValueError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(var.reshape(1, c, 1, 1) + state.eps)
    xhat = np.subtract(x, mean.reshape(1, c, 1, 1))
    xhat *= inv
    dxhat = grad_out * state.gamma.reshape(1, c, 1, 1)
    if mode == "train":
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        grad_x = dxhat * xhat
        sum_dxhat_xhat = grad_x.sum(axis=(0, 2, 3), keepdims=True)
        # dxhat - (sum_dxhat + xhat * sum_dxhat_xhat) / (n*h*w), then * inv, in place
        np.multiply(xhat, sum_dxhat_xhat, out=grad_x)
        grad_x += sum_dxhat
        grad_x /= n * h * w
        np.subtract(dxhat, grad_x, out=grad_x)
        grad_x *= inv
    else:  # the running statistics are constants
        grad_x = dxhat * inv

    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(grad_x), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Pointwise / structural ops
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape, dtype=x.dtype)
    _run_bands(lambda c0, c1: np.maximum(x[:, c0:c1], 0, out=out[:, c0:c1]),
               _channel_bands(x))
    return out


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # gradient defined as 0 at exactly x == 0; `x` may be the relu's input or
    # its output, which is > 0 at exactly the same elements (NaN in neither)
    return np.where(x > 0, grad_out, 0)  # a Python 0 keeps grad_out's dtype


def add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes {x.shape} != {y.shape}")
    out = np.empty(x.shape, dtype=np.result_type(x, y))
    _run_bands(lambda c0, c1: np.add(x[:, c0:c1], y[:, c0:c1], out=out[:, c0:c1]),
               _channel_bands(x))
    return out


def concat_channels(xs) -> np.ndarray:
    if not xs:
        raise ShapeError("concat of zero tensors")
    base = xs[0].shape
    for x in xs[1:]:
        if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
            raise ShapeError(f"concat: incompatible shapes {base} vs {x.shape}")
    starts = channel_bounds([x.shape[1] for x in xs])
    out = np.empty((base[0], starts[-1], *base[2:]), dtype=np.result_type(*xs))

    def band(c0, c1):  # copies every input's channels that fall in [c0, c1)
        for x, s in zip(xs, starts):
            lo, hi = max(c0, s), min(c1, s + x.shape[1])
            if lo < hi:
                out[:, lo:hi] = x[:, lo - s:hi - s]

    _run_bands(band, _channel_bands(out))
    return out


def channel_bounds(widths) -> list[int]:
    """[0, w0, w0 + w1, ..., sum(widths)]: where each of the pieces of
    concatenated channels starts, then where the last one ends."""
    return [0, *itertools.accumulate(widths)]


def split_channels(x: np.ndarray, widths) -> list[np.ndarray]:
    """Inverse of concat_channels; widths must sum to the channel count.

    The pieces are read-only views of x, the channels between consecutive
    `channel_bounds(widths)`: no kernel writes into its inputs, and a write
    that tried would fail instead of changing x.
    """
    bounds = channel_bounds(widths)
    if bounds[-1] != x.shape[1]:
        raise ShapeError(f"split widths {widths} do not sum to {x.shape[1]} channels")
    pieces = [x[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for piece in pieces:
        piece.flags.writeable = False
    return pieces


# ---------------------------------------------------------------------------
# Max pooling (-inf padding; gradient to the first row-major argmax)
# ---------------------------------------------------------------------------

def _pool_hw(x: np.ndarray, kernel: int, stride: int, padding: int):
    """The (oh, ow) of a max pool over x."""
    check_4d("maxpool input", x)
    if padding >= kernel:
        raise ShapeError(f"maxpool padding {padding} must be < kernel {kernel}")
    h, w = x.shape[2:]
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"non-positive pool output for input {h}x{w}")
    return oh, ow


def _pool(x: np.ndarray, kernel: int, stride: int, padding: int, top: np.ndarray):
    """The k*k strided views (n, c, oh, ow) of the -inf-padded input, one
    per window offset in row-major order; their running maximum goes into
    `top`."""
    pat = _patches(_pad(x, padding, -np.inf), kernel, stride, 1, *top.shape[2:])
    views = [pat[:, :, i, j] for i in range(kernel) for j in range(kernel)]
    top[...] = views[0]
    for v in views[1:]:
        np.maximum(top, v, out=top)
    return views


def maxpool_forward(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    """In bands of channels, each padding only its own channels."""
    oh, ow = _pool_hw(x, kernel, stride, padding)
    n, c, h, w = x.shape
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    padded_bytes = n * (h + 2 * padding) * (w + 2 * padding) * x.itemsize  # one channel
    _run_bands(lambda c0, c1: _pool(x[:, c0:c1], kernel, stride, padding, out[:, c0:c1]),
               _bands(c, padded_bytes))
    return out


def maxpool_backward(x: np.ndarray, kernel: int, stride: int, padding: int,
                     grad_out: np.ndarray) -> np.ndarray:
    """The forward's slices transposed: each window's gradient goes to the
    first offset holding its maximum, and the offsets are added back in
    reverse order, so every pixel sums its windows in row-major order."""
    oh, ow = _pool_hw(x, kernel, stride, padding)
    n, c, h, w = x.shape
    top = np.empty((n, c, oh, ow), dtype=x.dtype)
    views = _pool(x, kernel, stride, padding, top)
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

    A_y @ x @ A_x^T as a two-pass blend, one band of whole channel planes
    (or, within one plane, of output rows) at a time: the input rows the
    band reads are blended along x, then pairs of those rows along y into
    the result.  Every output element gets the same multiplies and adds, in
    the same order, as a four-tap gather, which rounds differently from the
    matrix product.  The result is C-contiguous whatever the input's memory
    order.
    """
    n, c, h, w = x.shape
    y0, y1, fy = _bilinear_axis(h, out_h)
    x0, x1, fx = _bilinear_axis(w, out_w)
    fy = fy.astype(x.dtype).reshape(out_h, 1)
    fx = fx.astype(x.dtype)
    planes = x.reshape(n * c, h, w)
    out = np.empty((n * c, out_h, out_w), dtype=x.dtype)
    row_bytes = out_w * x.itemsize

    def band(p0, p1, r0, r1):
        rows = planes[p0:p1, y0[r0]:y1[r1 - 1] + 1]  # y0 and y1 never decrease
        hx = rows[..., x0]
        hx *= 1 - fx
        right = rows[..., x1]
        right *= fx
        hx += right
        del right
        top = out[p0:p1, r0:r1]  # contiguous: rows split only within one plane
        np.take(hx, y0[r0:r1] - y0[r0], axis=1, out=top, mode="clip")
        top *= 1 - fy[r0:r1]
        bot = np.take(hx, y1[r0:r1] - y0[r0], axis=1)
        bot *= fy[r0:r1]
        top += bot

    _run_bands(band, [(p0, p1, r0, r1) for p0, p1 in _bands(n * c, row_bytes * out_h)
                      for r0, r1 in _bands(out_h, row_bytes * (p1 - p0))])
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
