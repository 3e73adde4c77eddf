"""The band pool's invariants as properties over drawn shapes and budgets.

`ops.BAND_BYTES` is drawn from 1 KiB to 1 MiB, so that shapes this small
are cut into many bands, and each op runs at 1 worker and at 2 or 3.  Bands
are cut by the budget alone, never by the worker count, so at any count an
op hands `_run_bands` the same bands and its result is the same, bitwise.
A conv's bands are cut by one image's bytes, so each image of a batch also
gets what it gets alone.  The conv and maxpool backwards, at the same drawn
budgets and worker counts, equal references that add the kernel offsets one
2-d slice at a time.  Every kernel, forward and backward, fed its operands
as windows of larger arrays, windows of channels-last arrays or negatively
strided views, returns the bits it returns for C-contiguous copies.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
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


LAYOUTS = ("sliced", "transposed_sliced", "reversed")


def stored(a, layout):
    """a's values as a view in another memory layout: a window of a larger
    array, a window of a channels-last array, or a negatively strided view;
    a itself if layout is None."""
    if layout is None:
        return a
    n, c, h, w = a.shape
    if layout == "sliced":
        big = np.zeros((n + 1, c + 2, h + 1, w + 3), a.dtype)
        view = big[1:, 1:c + 1, :h, 2:w + 2]
    elif layout == "transposed_sliced":
        big = np.zeros((n, h + 1, w + 2, c + 1), a.dtype)
        view = big[:, 1:, 1:w + 1, :c].transpose(0, 3, 1, 2)
    else:
        view = np.zeros(a.shape, a.dtype)[::-1, ::-1, ::-1, ::-1]
    view[...] = a
    return view


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


def banded_ops(shape, rng, layout=None):
    """{name: fn} for each channel-banded forward op, plus upsample, on
    operands drawn from rng, stored in `layout` (C order if None); BN gets
    its own running statistics per call."""
    _, c, h, w = shape
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    x, y = (stored(a.astype(np.float32), layout) for a in (x, y))
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


def backward_ops(shape, rng, layout=None):
    """{name: fn} for the backward of BN (both modes, train also without the
    forward's saved statistics), ReLU, maxpool and upsample, on operands
    drawn from rng, stored in `layout` (C order if None)."""
    n, c, h, w = shape
    kernel = int(rng.integers(1, 4))
    stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, kernel))
    pool_hw = ((h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1)
    out_h, out_w = int(rng.integers(h, 2 * h + 4)), int(rng.integers(w, 2 * w + 4))
    x, g, g_pool, g_up = (stored(rng.standard_normal(s).astype(np.float32), layout)
                          for s in (shape, shape, (n, c, *pool_hw), (n, c, out_h, out_w)))
    gamma, beta, running_mean = (rng.standard_normal(c).astype(np.float32) for _ in range(3))
    running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)

    def bn(mode, forward=True):
        state = ops.BatchNormState(gamma, beta, running_mean.copy(), running_var.copy())
        if forward:
            ops.batchnorm_forward(x, state, mode)
        return np.concatenate([a.ravel() for a in ops.batchnorm_backward(x, state, g, mode)])

    return {
        "bn_train": lambda: bn("train"),
        "bn_train_recomputed": lambda: bn("train", forward=False),
        "bn_eval": lambda: bn("eval"),
        "relu": lambda: ops.relu_backward(x, g),
        "maxpool": lambda: ops.maxpool_backward(x, kernel, stride, padding, g_pool),
        "upsample": lambda: ops.upsample_bilinear_backward(x.shape, out_h, out_w, g_up),
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
@given(shape=feature_maps(), layout=st.sampled_from((None, *LAYOUTS)), budget=budgets,
       n_workers=workers, seed=seeds)
def test_train_bn_equals_its_mean_and_var_reference(shape, layout, budget, n_workers, seed):
    """Train-mode BN, fed x in any layout, gives bitwise the output and running
    statistics built from x.mean and x.var of x in C order."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = rng.normal(1.0, 3.0, shape).astype(np.float32)
    gamma, beta, running_mean = (rng.standard_normal(c).astype(np.float32) for _ in range(3))
    running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    state = ops.BatchNormState(gamma, beta, running_mean.copy(), running_var.copy())
    with bands_at(budget, n_workers, []):
        out = ops.batchnorm_forward(stored(x, layout), state, "train")
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    want = x - mean.reshape(1, c, 1, 1)
    want *= (gamma * (1.0 / np.sqrt(var + state.eps))).reshape(1, c, 1, 1)
    want += beta.reshape(1, c, 1, 1)
    m = state.momentum
    assert out.flags.c_contiguous and out.tobytes() == want.tobytes()
    for got, old, batch in ((state.running_mean, running_mean, mean),
                            (state.running_var, running_var, var)):
        assert got.tobytes() == ((1.0 - m) * old + m * batch).astype(np.float32).tobytes()


@PROPERTY
@given(conv=convs(), layout=st.sampled_from(LAYOUTS), budget=budgets, n_workers=workers,
       seed=seeds)
def test_conv_forward_and_backward_ignore_the_operands_layout(conv, layout, budget, n_workers,
                                                              seed):
    spec, shape = conv
    spec = replace(spec, has_bias=bool(seed % 2))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    weight = rng.standard_normal(spec.weight_shape).astype(np.float32)
    bias = rng.standard_normal(spec.out_channels).astype(np.float32) if spec.has_bias else None
    grad_out = rng.standard_normal((shape[0], spec.out_channels,
                                    *spec.out_hw(*shape[2:]))).astype(np.float32)

    def both(x, weight, grad_out):
        with bands_at(budget, n_workers, []):
            return [ops.conv2d_forward(x, weight, bias, spec),
                    *ops.conv2d_backward(x, weight, spec, grad_out)]

    want = both(x, weight, grad_out)
    got = both(*(stored(a, layout) for a in (x, weight, grad_out)))
    for name, a, b in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


@PROPERTY
@given(shape=feature_maps(), layout=st.sampled_from(LAYOUTS), budget=budgets,
       n_workers=workers, seed=seeds)
def test_bn_relu_add_concat_maxpool_upsample_ignore_the_operands_layout(shape, layout, budget,
                                                                          n_workers, seed):
    want = banded_ops(shape, np.random.default_rng(seed))
    got = banded_ops(shape, np.random.default_rng(seed), layout)
    for name, fn in got.items():
        assert run(fn, budget, n_workers)[0] == run(want[name], budget, n_workers)[0], name


@PROPERTY
@given(shape=feature_maps(), layout=st.sampled_from(LAYOUTS), seed=seeds)
def test_bn_relu_maxpool_upsample_backwards_ignore_the_operands_layout(shape, layout, seed):
    want = backward_ops(shape, np.random.default_rng(seed))
    got = backward_ops(shape, np.random.default_rng(seed), layout)
    for name, fn in got.items():
        assert fn().tobytes() == want[name]().tobytes(), name


# Draws that failed before the backward gathered its columns in C order
# (grad_w, a one-pixel-wide output) and before a one-row output skipped the
# padded pitch (grad_x, a 1x1 output)
@PROPERTY
@example(conv=(ops.ConvSpec(1, 1, 5), (1, 1, 6, 5)), budget=1024, n_workers=2, seed=0)
@example(conv=(ops.ConvSpec(7, 7, 5, groups=7), (2, 7, 9, 5)), budget=3853, n_workers=3,
         seed=1302778080)
@example(conv=(ops.ConvSpec(5, 5, 5, stride=2, groups=5), (5, 5, 10, 5)), budget=157638,
         n_workers=3, seed=2848252869)
@example(conv=(ops.ConvSpec(7, 4, 3, dilation=2), (1, 7, 5, 5)), budget=82632, n_workers=2,
         seed=61554226)
@example(conv=(ops.ConvSpec(5, 4, 3, padding=1, dilation=3), (5, 5, 5, 5)), budget=535107,
         n_workers=2, seed=3865350223)
@example(conv=(ops.ConvSpec(8, 4, 5, dilation=2), (5, 8, 9, 9)), budget=1473, n_workers=2,
         seed=2759557528)
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
