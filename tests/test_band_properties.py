"""The band pool's invariants as properties over drawn shapes and budgets.

`ops.BAND_BYTES` is drawn from 1 KiB to 1 MiB, so that shapes this small
are cut into many bands, and each op runs at 1 worker and at 2 or 3.  Bands
are cut by the budget alone, never by the worker count, so at any count an
op hands `_run_bands` the same bands and its result is the same, bitwise.
A conv's bands are cut by one image's bytes, so each image of a batch also
gets what it gets alone.
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
