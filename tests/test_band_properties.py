"""The band pool's invariants as properties over drawn shapes and budgets.

`ops.BAND_BYTES` is drawn from 1 KiB to 1 MiB, so that shapes this small
are cut into many bands, and each op runs at 1 worker and at 2 or 3.  Bands
are cut by the budget alone, never by the worker count, so at any count an
op hands `_run_bands` the same bands and its result is the same, bitwise.
A conv's bands are cut by one image's bytes, so each image of a batch also
gets what it gets alone.  The conv and maxpool backwards, at the same drawn
budgets and worker counts, equal references that add the kernel offsets one
2-d slice at a time.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dwrseg.engine import ops

budgets = st.floats(10, 20).map(lambda e: int(2 ** e))  # 1 KiB to 1 MiB, log-uniform
workers = st.integers(2, 3)
seeds = st.integers(0, 2 ** 32 - 1)


@contextlib.contextmanager
def bands_at(budget, n, cuts):
    """Run ops at a band budget on n workers, appending to `cuts` the bands
    each top-level `_run_bands` call is given."""
    old_budget, run_bands = ops.BAND_BYTES, ops._run_bands

    def recording(task, bands):
        cuts.append(list(bands))
        run_bands(task, bands)

    ops.BAND_BYTES, ops._run_bands = budget, recording
    ops.set_workers(n)
    try:
        yield
    finally:
        ops.BAND_BYTES, ops._run_bands = old_budget, run_bands
        ops.set_workers(ops.DEFAULT_WORKERS)


def run(fn, budget, n):
    """(fn()'s bytes, the bands its ops ran) at `budget` on n workers."""
    cuts = []
    with bands_at(budget, n, cuts):
        out = fn()
    return out.tobytes(), cuts


@st.composite
def convs(draw):
    """(spec, input shape): kernel 1/3/5, stride 1-2, dilation 1-3, dense,
    grouped or depthwise, batch 1-6, sizes 4-40."""
    k, stride, dilation = (draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 2)),
                           draw(st.integers(1, 3)))
    padding = draw(st.integers(0, dilation * (k - 1) // 2 + 1))
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    if kind == "dense":
        groups, cin, cout = 1, draw(st.integers(1, 8)), draw(st.integers(1, 8))
    elif kind == "grouped":
        groups = draw(st.integers(2, 4))
        cin, cout = groups * draw(st.integers(1, 3)), groups * draw(st.integers(1, 3))
    else:
        groups = cin = cout = draw(st.integers(1, 8))
    spec = ops.ConvSpec(cin, cout, k, stride, padding, dilation, groups)
    low = max(4, dilation * (k - 1) + 1 - 2 * padding)  # an output of at least 1x1
    n, h, w = draw(st.integers(1, 6)), draw(st.integers(low, 40)), draw(st.integers(low, 40))
    return spec, (n, cin, h, w)


def conv_invariance(conv, budget, n_workers, seed):
    spec, shape = conv
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    weight = rng.standard_normal(spec.weight_shape).astype(np.float32)
    one = run(lambda: ops.conv2d_forward(x, weight, None, spec), budget, 1)
    assert run(lambda: ops.conv2d_forward(x, weight, None, spec), budget, n_workers) == one
    image_bytes = len(one[0]) // shape[0]
    for i in range(shape[0]):
        alone, _ = run(lambda: ops.conv2d_forward(x[i:i + 1], weight, None, spec), budget, 1)
        assert alone == one[0][i * image_bytes:(i + 1) * image_bytes], i


@st.composite
def feature_maps(draw):
    """An input shape of batch 1-6, 1-16 channels, sizes 4-40."""
    return (draw(st.integers(1, 6)), draw(st.integers(1, 16)),
            draw(st.integers(4, 40)), draw(st.integers(4, 40)))


def banded_ops(shape, rng):
    """{name: fn} for each channel-banded forward op, plus upsample, on
    operands drawn from rng; BN gets its own running statistics per call."""
    _, c, h, w = shape
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    x, y = x.astype(np.float32), y.astype(np.float32)
    base = ops.BatchNormState(rng.standard_normal(c).astype(np.float32),
                              rng.standard_normal(c).astype(np.float32),
                              rng.standard_normal(c).astype(np.float32),
                              rng.uniform(0.5, 2.0, c).astype(np.float32))
    cut = int(rng.integers(0, c + 1))  # pieces whose boundary a band may cross
    kernel = int(rng.integers(1, 4))
    stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, kernel))
    out_h, out_w = int(rng.integers(h, 2 * h + 4)), int(rng.integers(w, 2 * w + 4))

    def bn(mode):
        state = replace(base, running_mean=base.running_mean.copy(),
                        running_var=base.running_var.copy())
        out = ops.batchnorm_forward(x, state, mode)
        return np.concatenate([out.ravel(), state.running_mean, state.running_var])

    return {
        "bn_train": lambda: bn("train"),
        "bn_eval": lambda: bn("eval"),
        "relu": lambda: ops.relu_forward(x),
        "add": lambda: ops.add(x, y),
        "concat": lambda: ops.concat_channels([x[:, :cut], y, x[:, cut:]]),
        "maxpool": lambda: ops.maxpool_forward(x, kernel, stride, padding),
        "upsample": lambda: ops.upsample_bilinear(x, out_h, out_w),
    }


def op_invariance(shape, budget, n_workers, seed):
    fns = banded_ops(shape, np.random.default_rng(seed))
    for name, fn in fns.items():
        assert run(fn, budget, n_workers) == run(fn, budget, 1), name


def conv_backward_reference(x, weight, spec, grad_out):
    """(grad_x, grad_w, grad_b) offset by offset: each offset's columns are a
    2-d strided slice of the padded input, and its grad_cols are added back
    onto that slice; images are summed in order."""
    n, c, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    slices = [(slice(i * d, i * d + s * oh, s), slice(j * d, j * d + s * ow, s))
              for i in range(k) for j in range(k)]
    cols = np.stack([xp[:, :, ys, xs] for ys, xs in slices], axis=2)  # (n, c, k*k, oh, ow)
    og = spec.out_channels // spec.groups
    cols = cols.reshape(n, spec.groups, -1, oh * ow)
    wmat = weight.reshape(spec.groups, og, -1)
    go = grad_out.reshape(n, spec.groups, og, oh * ow)
    grad_w = grad_b = None
    for i in range(n):
        gw = np.matmul(go[i], cols[i].transpose(0, 2, 1))
        gb = grad_out[i].sum(axis=(1, 2))
        grad_w, grad_b = (gw, gb) if i == 0 else (grad_w + gw, grad_b + gb)
    grad_cols = np.matmul(wmat.transpose(0, 2, 1), go).reshape(n, c, k * k, oh, ow)
    gx = np.zeros_like(xp)
    for t, (ys, xs) in enumerate(slices):
        gx[:, :, ys, xs] += grad_cols[:, :, t]
    return (gx[:, :, p:p + h, p:p + w], grad_w.reshape(weight.shape),
            grad_b if spec.has_bias else None)


def maxpool_backward_reference(x, kernel, stride, padding, grad_out):
    """Each window's gradient goes to its first argmax in row-major order;
    the offsets are added back last to first, one 2-d slice each, so every
    pixel sums its windows in row-major order."""
    n, c, h, w = x.shape
    oh, ow = grad_out.shape[2:]
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    slices = [(slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))
              for i in range(kernel) for j in range(kernel)]
    first = np.stack([xp[:, :, ys, xs] for ys, xs in slices]).argmax(axis=0)
    gx = np.zeros_like(xp)
    for t in reversed(range(len(slices))):
        ys, xs = slices[t]
        gx[:, :, ys, xs] += np.where(first == t, grad_out, 0)
    return gx[:, :, padding:padding + h, padding:padding + w]


PROPERTY = settings(max_examples=100, deadline=None)


@PROPERTY
@given(conv=convs(), budget=budgets, n_workers=workers, seed=seeds)
def test_conv_forward_is_worker_and_batch_invariant(conv, budget, n_workers, seed):
    conv_invariance(conv, budget, n_workers, seed)


@PROPERTY
@given(shape=feature_maps(), budget=budgets, n_workers=workers, seed=seeds)
def test_bn_relu_add_concat_maxpool_upsample_are_worker_invariant(shape, budget, n_workers,
                                                                    seed):
    op_invariance(shape, budget, n_workers, seed)


@PROPERTY
@given(conv=convs(), budget=budgets, n_workers=workers, seed=seeds)
def test_conv_backward_equals_its_per_offset_reference(conv, budget, n_workers, seed):
    spec, shape = conv
    spec = replace(spec, has_bias=bool(seed % 2))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    weight = rng.standard_normal(spec.weight_shape).astype(np.float32)
    grad_out = rng.standard_normal((shape[0], spec.out_channels,
                                    *spec.out_hw(*shape[2:]))).astype(np.float32)
    with bands_at(budget, n_workers, []):
        got = ops.conv2d_backward(x, weight, spec, grad_out)
    for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got,
                          conv_backward_reference(x, weight, spec, grad_out)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


@PROPERTY
@given(shape=feature_maps(), budget=budgets, n_workers=workers, seed=seeds)
def test_maxpool_backward_equals_its_per_offset_reference(shape, budget, n_workers, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, shape).astype(np.float32)  # windows with tied maxima
    kernel = int(rng.integers(1, 4))
    stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, kernel))
    oh = (shape[2] + 2 * padding - kernel) // stride + 1
    ow = (shape[3] + 2 * padding - kernel) // stride + 1
    grad_out = rng.standard_normal((*shape[:2], oh, ow)).astype(np.float32)
    with bands_at(budget, n_workers, []):
        got = ops.maxpool_backward(x, kernel, stride, padding, grad_out)
    want = maxpool_backward_reference(x, kernel, stride, padding, grad_out)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("prop, strategy", [
    (conv_invariance, {"conv": convs()}),
    (op_invariance, {"shape": feature_maps()}),
], ids=["conv", "other_ops"])
def test_a_band_cut_by_the_worker_count_fails(monkeypatch, prop, strategy):
    # a plausible slip: each worker's share of the budget, not the budget
    real = ops._bands
    monkeypatch.setattr(ops, "_bands",
                        lambda count, unit_bytes: real(count, unit_bytes * ops.workers()))
    planted = settings(max_examples=40, deadline=None, database=None,
                       phases=[Phase.generate], report_multiple_bugs=False)(
        given(budget=budgets, n_workers=workers, seed=seeds, **strategy)(prop))
    with pytest.raises(AssertionError):
        planted()


def test_an_image_band_whose_matmul_depends_on_the_batch_fails(monkeypatch):
    # a plausible slip: one product for a band's images, their pixels side by
    # side, so the matmul's width grows with the batch; OpenBLAS rounds some
    # widths apart (7.5% of 200 drawn convs with numpy 2.4's OpenBLAS), so the
    # batch-invariance half fails
    real = np.matmul

    def one_product_per_band(a, b, out=None, **kw):
        if out is None or b.ndim != 4 or b.shape[0] == 1:
            return real(a, b, out=out, **kw)
        n, g, kk, pixels = b.shape
        merged = real(a, b.transpose(1, 2, 0, 3).reshape(g, kk, n * pixels))
        out[...] = merged.reshape(g, -1, n, pixels).transpose(2, 0, 1, 3)
        return out

    monkeypatch.setattr(ops.np, "matmul", one_product_per_band)
    planted = settings(max_examples=100, deadline=None, database=None, derandomize=True,
                       phases=[Phase.generate], report_multiple_bugs=False)(
        given(conv=convs(), budget=budgets, n_workers=workers, seed=seeds)(conv_invariance))
    with pytest.raises(AssertionError, match=r"^\d+\n"):  # names an image: the batch half
        planted()
