"""Forward-op contracts: worked examples, algebraic identities, determinism."""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwrseg import engine as E
from dwrseg import network as N
from dwrseg.engine import ops


def rnd(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConvForward:
    def test_1x1_scalar(self):
        x = E.tensor([[[[2.0]]]])
        w = E.tensor([[[[3.0]]]])
        out = E.conv2d_forward(x, w, None, E.ConvSpec(1, 1, 1))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 6.0

    def test_3x3_ones_counts_valid_taps(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = E.conv2d_forward(x, w, None, E.ConvSpec(1, 1, 3, padding=1))
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_dilated_delta_tap_pattern(self):
        x = np.zeros((1, 1, 5, 5), np.float32)
        x[0, 0, 2, 2] = 1.0
        w = np.ones((1, 1, 3, 3), np.float32)
        spec = E.ConvSpec(1, 1, 3, padding=2, dilation=2, groups=1)
        out = E.conv2d_forward(x, w, None, spec)
        expected = np.zeros((5, 5), np.float32)
        for i in (0, 2, 4):
            for j in (0, 2, 4):
                expected[i, j] = 1.0
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_identity_weight_is_bitwise_identity(self):
        c = 5
        x = rnd((2, c, 6, 7), seed=3)
        w = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
        out = E.conv2d_forward(x, w, None, E.ConvSpec(c, c, 1))
        np.testing.assert_array_equal(out, x)

    @staticmethod
    def assert_matches_per_group_convs(spec, n, h, w):
        """Forward and backward equal one dense conv per group, bitwise."""
        x = rnd((n, spec.in_channels, h, w), seed=1)
        wt = rnd(spec.weight_shape, seed=2)
        b = rnd((spec.out_channels,), seed=3)
        out = E.conv2d_forward(x, wt, b, spec)
        go = rnd(out.shape, seed=4)
        gx, gw, gb = E.conv2d_backward(x, wt, spec, go)
        cg, og = spec.in_channels // spec.groups, spec.out_channels // spec.groups
        dense = replace(spec, in_channels=cg, out_channels=og, groups=1)
        for g in range(spec.groups):
            ci, co = slice(g * cg, (g + 1) * cg), slice(g * og, (g + 1) * og)
            ref = E.conv2d_forward(x[:, ci], wt[co], b[co], dense)
            np.testing.assert_array_equal(out[:, co], ref)
            rx, rw, rb = E.conv2d_backward(x[:, ci], wt[co], dense, go[:, co])
            np.testing.assert_array_equal(gx[:, ci], rx)
            np.testing.assert_array_equal(gw[co], rw)
            np.testing.assert_array_equal(gb[co], rb)

    def test_depthwise_equals_per_channel_convs(self):
        # batch > 1: grad_w sums one matmul per image, as a dense conv does
        self.assert_matches_per_group_convs(
            E.ConvSpec(24, 24, 3, padding=1, groups=24, has_bias=True), n=4, h=4, w=4)
        self.assert_matches_per_group_convs(
            E.ConvSpec(8, 8, 3, stride=2, padding=3, dilation=3, groups=8, has_bias=True),
            n=3, h=9, w=7)

    def test_grouped_matches_blockwise_dense(self):
        self.assert_matches_per_group_convs(
            E.ConvSpec(6, 4, 3, padding=1, groups=2, has_bias=True), n=4, h=5, w=5)

    def test_bias_and_stride_shapes(self):
        x = rnd((2, 3, 9, 11), seed=6)
        w = rnd((8, 3, 3, 3), seed=7)
        b = rnd((8,), seed=8)
        out = E.conv2d_forward(x, w, b, E.ConvSpec(3, 8, 3, stride=2, padding=1, has_bias=True))
        assert out.shape == (2, 8, 5, 6)
        zero_b = E.conv2d_forward(x, w, None, E.ConvSpec(3, 8, 3, stride=2, padding=1))
        np.testing.assert_allclose(out, zero_b + b.reshape(1, 8, 1, 1), rtol=0, atol=0)

    def test_brute_force_dot_product(self):
        # every output element is the exact window dot product
        x = rnd((1, 2, 5, 6), seed=9).astype(np.float64)
        w = rnd((3, 2, 3, 3), seed=10).astype(np.float64)
        spec = E.ConvSpec(2, 3, 3, stride=2, padding=1, dilation=2)
        oh, ow = spec.out_hw(5, 6)
        out = E.conv2d_forward(x, w, None, spec)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for o in range(3):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(2):
                        for ki in range(3):
                            for kj in range(3):
                                acc += xp[0, c, i * 2 + ki * 2, j * 2 + kj * 2] * w[o, c, ki, kj]
                    assert out[0, o, i, j] == pytest.approx(acc, rel=1e-12)

    def test_errors(self):
        x = rnd((1, 3, 4, 4))
        w = rnd((2, 3, 3, 3))
        with pytest.raises(E.ShapeError):
            E.conv2d_forward(x, w, None, E.ConvSpec(4, 2, 3))  # channel mismatch
        with pytest.raises(E.ShapeError):
            E.conv2d_forward(x, w, None, E.ConvSpec(3, 2, 5))  # output would be 0x0
        with pytest.raises(E.ShapeError):
            E.ConvSpec(3, 2, 3, groups=2)  # 3 % 2 != 0

    def test_determinism_two_runs_bitwise(self):
        x = rnd((2, 16, 16, 16), seed=11)
        w = rnd((32, 16, 3, 3), seed=12)
        spec = E.ConvSpec(16, 32, 3, padding=1)
        a = E.conv2d_forward(x, w, None, spec)
        b = E.conv2d_forward(x, w, None, spec)
        np.testing.assert_array_equal(a, b)

    def test_determinism_across_worker_counts(self):
        # this conv is bitwise equal at every OpenBLAS worker count.  Each
        # count needs a fresh process: OpenBLAS reads OPENBLAS_NUM_THREADS
        # when it loads, and caps it at the cores it sees.
        script = (
            "import hashlib, numpy as np\n"
            "from dwrseg import engine as E\n"
            "from dwrseg.cli import blas_threads\n"
            "def rnd(shape, seed):\n"
            "    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)\n"
            "out = E.conv2d_forward(rnd((4, 64, 32, 32), 13), rnd((128, 64, 3, 3), 14), None,\n"
            "                       E.ConvSpec(64, 128, 3, padding=1))\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest(), blas_threads())\n"
        )
        path = [str(Path(E.__file__).resolve().parents[2]), os.environ.get("PYTHONPATH")]
        runs = {}
        for n in (1, 2, 4):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            runs[n] = tuple(done.stdout.split())
        assert len({digest for digest, _ in runs.values()}) == 1, runs
        if runs[1][1] != "None":  # the count could be read back
            assert runs[1][1] == "1", runs
            if (os.cpu_count() or 1) >= 2:
                assert runs[2][1] == "2", runs


class TestConvBackward:
    def test_scalar_product_rule(self):
        x = E.tensor([[[[2.0]]]])
        w = E.tensor([[[[3.0]]]])
        gx, gw, gb = E.conv2d_backward(x, w, E.ConvSpec(1, 1, 1), E.tensor([[[[1.0]]]]))
        assert gx[0, 0, 0, 0] == 3.0
        assert gw[0, 0, 0, 0] == 2.0
        assert gb is None

    def test_zero_grad_out(self):
        x = rnd((1, 2, 4, 4), seed=0)
        w = rnd((2, 1, 3, 3), seed=1)
        spec = E.ConvSpec(2, 2, 3, padding=2, dilation=2, groups=2, has_bias=True)
        go = np.zeros_like(E.conv2d_forward(x, w, np.zeros(2, np.float32), spec))
        gx, gw, gb = E.conv2d_backward(x, w, spec, go)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_grad_shapes_and_mismatch(self):
        x = rnd((1, 2, 4, 4))
        w = rnd((4, 2, 3, 3))
        spec = E.ConvSpec(2, 4, 3, padding=1)
        go = np.ones((1, 4, 4, 4), np.float32)
        gx, gw, _ = E.conv2d_backward(x, w, spec, go)
        assert gx.shape == x.shape and gw.shape == w.shape
        with pytest.raises(E.ShapeError):
            E.conv2d_backward(x, w, spec, np.ones((1, 4, 3, 3), np.float32))

    @staticmethod
    def matmul_grad_x(x, weight, spec, grad_out):
        """grad_x with grad_cols as one matmul per group, whatever its inner size."""
        n, c, h, w = x.shape
        oh, ow = spec.out_hw(h, w)
        k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
        og = spec.out_channels // spec.groups
        wmat = weight.reshape(spec.groups, og, -1)
        go = grad_out.reshape(n, spec.groups, og, oh * ow)
        grad_cols = np.matmul(wmat.transpose(0, 2, 1), go).reshape(n, c, k, k, oh, ow)
        gx_pad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_cols.dtype)
        for i in range(k):
            for j in range(k):
                gx_pad[:, :, i * d:i * d + s * oh:s, j * d:j * d + s * ow:s] += \
                    grad_cols[:, :, i, j]
        return gx_pad[:, :, p:p + h, p:p + w]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_depthwise_grad_x_equals_matmul_form(self, n, d):
        spec = E.ConvSpec(16, 16, 3, padding=d, dilation=d, groups=16)
        x = rnd((n, 16, 12, 20), seed=d)
        w = rnd(spec.weight_shape, seed=d + 1)
        go = rnd((n, 16, 12, 20), seed=d + 2)
        go[:, :, ::3] = 0.0  # zero products, whose sign the two forms may round apart
        gx = E.conv2d_backward(x, w, spec, go)[0]
        assert gx.tobytes() == self.matmul_grad_x(x, w, spec, go).tobytes()

    def assert_grad_x_bytes_equal_to_matmul_form(self, spec, x_shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)  # signs of both
        go = rng.standard_normal((x_shape[0], spec.out_channels,
                                  *spec.out_hw(*x_shape[2:]))).astype(np.float32)
        go[go > 0.8] = 0.0  # exact zeros, whose products are +-0
        gx = E.conv2d_backward(x, w, spec, go)[0]
        want = self.matmul_grad_x(x, w, spec, go)
        assert gx.shape == want.shape and gx.tobytes() == want.tobytes(), (spec, x_shape)

    @pytest.mark.parametrize("variant,x_shape", [
        ("tiny", (4, 3, 64, 64)), ("B", (2, 3, 256, 512)), ("L", (2, 3, 256, 512))])
    def test_every_network_conv_grad_x_equals_matmul_form(self, variant, x_shape):
        # every distinct conv of the traced network, at its training shape:
        # the row-flat col2im adds each offset as the per-offset 2-d form does
        _, tape, _ = N.trace(N.preset(variant, num_classes=4), *x_shape[2:])
        shapes = {0: x_shape}
        convs = {}
        for node in tape.nodes:
            shapes[node.out] = (x_shape[0], *node.shape[1:])
            if node.kind == "conv2d":
                convs[(node.spec, shapes[node.parents[0]])] = None
        for i, (spec, shape) in enumerate(convs):
            self.assert_grad_x_bytes_equal_to_matmul_form(spec, shape, seed=i)

    @pytest.mark.parametrize("spec", [
        E.ConvSpec(8, 16, 3, stride=2, padding=1),
        E.ConvSpec(6, 12, 3, stride=2, groups=3),
        E.ConvSpec(4, 4, 5, stride=3, padding=2),
        E.ConvSpec(8, 8, 3, padding=3, dilation=3, groups=8),
        E.ConvSpec(8, 8, 3, padding=5, dilation=5, groups=8),
        E.ConvSpec(8, 10, 3, padding=2, dilation=2),
        E.ConvSpec(8, 12, 1, has_bias=True),
        E.ConvSpec(8, 8, 1, groups=8, has_bias=True),
    ], ids=["stride2", "stride2_grouped", "k5_stride3", "depthwise_d3", "depthwise_d5",
            "dense_d2", "pointwise_bias", "depthwise_pointwise_bias"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_grad_x_equals_matmul_form(self, spec, n):
        self.assert_grad_x_bytes_equal_to_matmul_form(spec, (n, spec.in_channels, 17, 23), seed=n)


# conv shapes that run in several bands
BANDED_CONVS = [
    pytest.param((1, 320, 64, 128), E.ConvSpec(320, 128, 3, padding=1), id="head_conv"),
    pytest.param((2, 64, 128, 256), E.ConvSpec(64, 64, 3, padding=1),  # batch 2
                 id="stem_fuse_b2"),
    # depthwise, d = 3: whole-group bands keep each matrix-vector product's
    # length, which OpenBLAS rounds by (row bands of it differ by 1.9e-6)
    pytest.param((1, 64, 128, 256), E.ConvSpec(64, 64, 3, padding=3, dilation=3, groups=64),
                 id="depthwise_d3"),
    # one short row band (364 + 1 rows) differs by up to 3.3e-6
    pytest.param((1, 80, 365, 8), E.ConvSpec(80, 32, 3, padding=1), id="short_band_hazard"),
]


class TestConvBands:
    """The banded forward against the one-matmul forward it replaced, at
    shapes whose columns exceed ops.BAND_BYTES (the real budget: bands much
    smaller than it would enter OpenBLAS's small-matrix path)."""

    @staticmethod
    def one_matmul_forward(x, weight, spec):
        n, _, h, w = x.shape
        oh, ow = spec.out_hw(h, w)
        cols = ops._patches(ops._pad(x, spec.padding), spec.kernel, spec.stride,
                            spec.dilation, oh, ow).reshape(n, spec.groups, weight[0].size, oh * ow)
        wmat = weight.reshape(spec.groups, spec.out_channels // spec.groups, -1)
        return np.matmul(wmat, cols).reshape(n, spec.out_channels, oh, ow)

    @staticmethod
    def count_matmuls(monkeypatch):
        calls = []
        real = np.matmul
        monkeypatch.setattr(ops.np, "matmul", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize("shape,spec", BANDED_CONVS)
    def test_banded_equals_one_matmul(self, monkeypatch, shape, spec):
        x = rnd(shape, seed=shape[1])
        w = rnd(spec.weight_shape, seed=1)
        matmuls = self.count_matmuls(monkeypatch)
        out = E.conv2d_forward(x, w, None, spec)
        assert len(matmuls) > 1  # the shape is really banded
        assert out.tobytes() == self.one_matmul_forward(x, w, spec).tobytes()

    @staticmethod
    def network_conv_shapes(n):
        """(spec, input shape at batch n) of every conv of B, L and tiny traced
        at 256x512 and 512x1024."""
        shapes = set()
        for variant in ("B", "L", "tiny"):
            for h, w in ((256, 512), (512, 1024)):
                _, tape, _ = N.trace(N.preset(variant), h, w)
                out_shape = {node.out: node.shape for node in tape.nodes}
                for node in tape.nodes:
                    if node.kind == "conv2d":
                        _, c, ih, iw = out_shape.get(node.parents[0], (0, 3, h, w))
                        shapes.add((node.spec, (n, c, ih, iw)))
        return sorted(shapes, key=repr)

    @pytest.mark.parametrize("n", [1, 2])
    def test_network_convs_equal_one_matmul(self, monkeypatch, n):
        matmuls, banded = self.count_matmuls(monkeypatch), 0
        for i, (spec, shape) in enumerate(self.network_conv_shapes(n)):
            x = rnd(shape, seed=i)
            w = rnd(spec.weight_shape, seed=i + 1)
            del matmuls[:]
            out = E.conv2d_forward(x, w, None, spec)
            banded += len(matmuls) > 1
            assert out.tobytes() == self.one_matmul_forward(x, w, spec).tobytes(), (spec, shape)
        assert banded > 0

    def test_depthwise_group_over_budget_runs_whole(self, monkeypatch):
        # one group's columns exceed the budget: each group is still one
        # matrix-vector product over all its pixels, one matmul per group
        spec = E.ConvSpec(64, 64, 3, padding=3, dilation=3, groups=64)
        x = rnd((1, 64, 128, 256))
        assert 9 * 128 * 256 * x.itemsize > ops.BAND_BYTES
        matmuls = self.count_matmuls(monkeypatch)
        E.conv2d_forward(x, rnd(spec.weight_shape, seed=1), None, spec)
        assert len(matmuls) == spec.groups

    def test_tiny_convs_run_one_band(self, monkeypatch):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=0)
        x = rnd((4, 3, 64, 64))
        matmuls, per_conv = self.count_matmuls(monkeypatch), []
        real = ops.conv2d_forward

        def counted(*args):
            before = len(matmuls)
            out = real(*args)
            per_conv.append(len(matmuls) - before)
            return out
        monkeypatch.setattr(ops, "conv2d_forward", counted)
        N.forward(params, cfg, x, mode="train")
        assert per_conv and set(per_conv) == {1}

    def test_workspace_bounded(self):
        spec = E.ConvSpec(320, 128, 3, padding=1)  # B head.conv: 94 MB of columns
        x = rnd((1, 320, 64, 128))
        w = rnd(spec.weight_shape, seed=1)
        tracemalloc.start()
        try:
            out = E.conv2d_forward(x, w, None, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = x.nbytes * 66 * 130 // (64 * 128)
        row = 320 * 9 * 128 * x.itemsize  # one output row of columns, 1.4 MiB
        assert row > ops.BAND_BYTES  # so each band gathers one row
        # one band of columns and 2 MiB of slack beyond the arrays themselves
        assert peak <= x.nbytes + padded + out.nbytes + row + (2 << 20), peak


class TestBandWorkers:
    """Bands run on ops.workers() threads; each band is the same numpy call
    on the same operands whichever thread runs it, so the worker count
    changes no bit of any result."""

    @pytest.fixture
    def set_workers(self):
        # a switch interval this short interleaves the band threads as
        # finely as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield ops.set_workers
        finally:
            sys.setswitchinterval(interval)
            ops.set_workers(ops.DEFAULT_WORKERS)

    @staticmethod
    def at_each_count(set_workers, fn):
        results = []
        for n in (1, 2, 3):  # 3: more threads than this test needs cores for
            set_workers(n)
            results.append(fn().tobytes())
        return results

    @pytest.mark.parametrize("shape,spec", BANDED_CONVS)
    def test_conv_bitwise_at_any_worker_count(self, set_workers, shape, spec):
        x = rnd(shape, seed=shape[1])
        w = rnd(spec.weight_shape, seed=1)
        one, *others = self.at_each_count(
            set_workers, lambda: E.conv2d_forward(x, w, None, spec))
        assert all(r == one for r in others)

    def test_b_final_upsample_bitwise_at_any_worker_count(self, set_workers):
        x = rnd((1, 19, 64, 128), seed=19)
        one, *others = self.at_each_count(set_workers, lambda: E.upsample_bilinear(x, 512, 1024))
        assert all(r == one for r in others)

    def test_failing_band_raises_after_every_band_ends(self, set_workers, monkeypatch):
        spec = E.ConvSpec(320, 128, 3, padding=1)
        x, w = rnd((1, 320, 64, 128)), rnd(spec.weight_shape, seed=1)
        real = np.matmul
        started, ended = [], []

        def matmul(*a, **kw):
            started.append(1)
            if len(started) == 1:
                raise FloatingPointError("band failed")
            time.sleep(0.002)  # the other bands are still running when the first fails
            out = real(*a, **kw)
            ended.append(1)
            return out

        set_workers(2)
        monkeypatch.setattr(ops.np, "matmul", matmul)
        with pytest.raises(FloatingPointError, match="band failed"):
            E.conv2d_forward(x, w, None, spec)
        at_return = (len(started), len(ended))
        time.sleep(0.05)
        assert at_return == (len(started), len(ended))  # no band ran on after the call
        assert at_return[0] > 2 and at_return[1] == at_return[0] - 1  # every band ended

    # (2, 16, 128, 256) float32 is 4 MiB: four bands of four channels; the
    # desk shapes (4, 16, 32, 32) and (4, 48, 4, 4) fit one band
    @pytest.mark.parametrize("mode,shape,bands", [
        pytest.param("eval", (2, 16, 128, 256), 4, id="eval"),
        pytest.param("train", (2, 16, 128, 256), 4, id="train"),
        pytest.param("eval", (4, 16, 32, 32), 1, id="eval-desk-4x16x32x32"),
        pytest.param("train", (4, 16, 32, 32), 1, id="train-desk-4x16x32x32"),
        pytest.param("eval", (4, 48, 4, 4), 1, id="eval-desk-4x48x4x4"),
        pytest.param("train", (4, 48, 4, 4), 1, id="train-desk-4x48x4x4")])
    def test_batchnorm_bitwise_at_any_worker_count(self, set_workers, mode, shape, bands):
        x = rnd(shape, seed=21)
        c = x.shape[1]
        assert len(ops._channel_bands(x)) == bands
        base = E.BatchNormState(rnd((c,), 1), rnd((c,), 2), rnd((c,), 3),
                                np.abs(rnd((c,), 4)) + 0.5)

        def run():
            state = replace(base, running_mean=base.running_mean.copy(),
                            running_var=base.running_var.copy())
            out = E.batchnorm_forward(x, state, mode)
            assert out.flags.c_contiguous
            return np.concatenate([out.ravel(), state.running_mean, state.running_var])

        one, *others = self.at_each_count(set_workers, run)
        assert all(r == one for r in others)
        # the three passes the unbanded forward made, in its order, and the
        # running statistics it left
        mean, var = ((x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if mode == "train"
                     else (base.running_mean, base.running_var))
        ref = x - mean.reshape(1, c, 1, 1)
        ref *= (base.gamma * (1.0 / np.sqrt(var + base.eps))).reshape(1, c, 1, 1)
        ref += base.beta.reshape(1, c, 1, 1)
        m = base.momentum
        stats = ([((1.0 - m) * r + m * b).astype(np.float32)
                  for r, b in ((base.running_mean, mean), (base.running_var, var))]
                 if mode == "train" else [base.running_mean, base.running_var])
        assert one == np.concatenate([ref.ravel(), *stats]).tobytes()

    @pytest.mark.parametrize("shape,bands", [
        pytest.param((2, 16, 128, 256), 4, id="banded"),
        pytest.param((4, 16, 32, 32), 1, id="desk-4x16x32x32"),
        pytest.param((4, 48, 4, 4), 1, id="desk-4x48x4x4")])
    def test_relu_add_concat_bitwise_at_any_worker_count(self, set_workers, shape, bands):
        x, y = rnd(shape, seed=22), rnd(shape, seed=23)
        pieces = [x[:, :5], y, x[:, 5:]]  # bands cross the pieces' boundaries
        assert len(ops._channel_bands(x)) == bands
        for fn, ref in [(lambda: E.relu_forward(x), np.maximum(x, 0)),
                        (lambda: E.add(x, y), x + y),
                        (lambda: E.concat_channels(pieces), np.concatenate(pieces, axis=1))]:
            assert fn().flags.c_contiguous
            one, *others = self.at_each_count(set_workers, fn)
            assert all(r == one for r in others) and one == ref.tobytes()

    def test_b_stem_maxpool_bitwise_at_any_worker_count(self, set_workers):
        x = rnd((1, 32, 256, 512), seed=24)
        one, *others = self.at_each_count(set_workers, lambda: E.maxpool_forward(x, 3, 2, 1))
        assert all(r == one for r in others)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        assert one == windows[:, :, ::2, ::2].max(axis=(4, 5)).tobytes()

    def test_check_finite_raises_alike_at_any_worker_count(self, set_workers):
        x = np.zeros((2, 3, 256, 512), np.float32)  # 3 MiB: three bands
        x[0, 0, 0, 0], x[1, 1, 5, 7], x[-1, -1, -1, -1] = np.nan, -np.inf, np.inf
        messages = []
        for n in (1, 2, 3):
            set_workers(n)
            E.check_finite("fine", x[:, :, 10:250])
            with pytest.raises(E.NumericError) as err:
                E.check_finite("x", x)
            messages.append(str(err.value))
        assert messages == ["x: 3 non-finite value(s) in tensor of shape (2, 3, 256, 512)"] * 3

    def test_nested_band_call_runs_inline(self, set_workers, monkeypatch):
        # a band task that bands again: its helpers would queue behind the
        # very tasks that wait for them
        set_workers(2)
        monkeypatch.setattr(ops, "_executor", None)  # a pool of this test's own
        out = np.zeros(8)

        def inner(i, j):
            out[i:j] += 1

        def outer(i, j):
            ops._run_bands(inner, [(k, k + 1) for k in range(i, j)])

        thread = threading.Thread(target=ops._run_bands, args=(outer, [(0, 4), (4, 8)]),
                                  daemon=True)
        thread.start()
        thread.join(timeout=30)
        deadlocked = thread.is_alive()
        if deadlocked:  # cancel the queued helpers, so the threads end
            ops._executor.shutdown(wait=False, cancel_futures=True)
        assert not deadlocked, "nested _run_bands deadlocked"
        assert (out == 1).all()

    def test_forked_child_runs_its_bands_inline(self, set_workers):
        # a forked child has none of the pool's threads, so a band call that
        # waited on them would never end
        set_workers(2)
        x = rnd((1, 19, 64, 128), seed=19)
        want = E.upsample_bilinear(x, 512, 1024)  # several bands, on the pool
        assert ops._executor is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(E.upsample_bilinear(x, 512, 1024), want) else 4
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if ended[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert ended[0] == pid, "the forked child's band call did not end within 20 s"
        assert os.waitstatus_to_exitcode(ended[1]) == 0

    def test_desk_shapes_submit_nothing(self, set_workers, monkeypatch):
        # every forward op, backward and check of a desk step fits one band
        set_workers(2)
        submitted = []

        class Pool:
            def submit(self, fn):
                submitted.append(fn)
                raise AssertionError("a desk-shape call reached the pool")

        monkeypatch.setattr(ops, "_executor", Pool())
        cfg = N.preset("tiny", num_classes=4)
        store = N.build(cfg, rng_seed=0)
        x = rnd((4, 3, 64, 64))
        tape = E.Tape()
        logits, _ = N.forward(store, cfg, x, mode="train", tape=tape)
        tape.backward(logits, np.ones(logits.shape, np.float32))
        N.infer(store, cfg, x)
        assert submitted == []


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

class TestBatchNorm:
    def make_x(self, vals):
        # one channel, values along the batch axis
        return np.array(vals, np.float32).reshape(-1, 1, 1, 1)

    def test_zero_mean_input_kept(self):
        st_ = E.BatchNormState.create(1)
        out = E.batchnorm_forward(self.make_x([-1.0, 1.0]), st_, "train")
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_affine(self):
        st_ = E.BatchNormState.create(1)
        st_.gamma[:] = 2.0
        st_.beta[:] = 5.0
        out = E.batchnorm_forward(self.make_x([-1.0, 1.0]), st_, "train")
        np.testing.assert_allclose(out.ravel(), [3.0, 7.0], atol=1e-3)

    def test_eval_identity(self):
        st_ = E.BatchNormState.create(3, eps=1e-12)
        x = rnd((2, 3, 4, 4), seed=5)
        out = E.batchnorm_forward(x, st_, "eval")
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_running_stats_momentum_one(self):
        st_ = E.BatchNormState.create(2, momentum=1.0)
        x = rnd((3, 2, 4, 4), seed=6)
        E.batchnorm_forward(x, st_, "train")
        np.testing.assert_allclose(st_.running_mean, x.mean(axis=(0, 2, 3)), rtol=1e-6)
        np.testing.assert_allclose(st_.running_var, x.var(axis=(0, 2, 3)), rtol=1e-6)

    def test_running_stats_blend(self):
        st_ = E.BatchNormState.create(1, momentum=0.25)
        x = self.make_x([1.0, 3.0])  # batch mean 2, biased var 1
        E.batchnorm_forward(x, st_, "train")
        assert st_.running_mean[0] == pytest.approx(0.75 * 0.0 + 0.25 * 2.0)
        assert st_.running_var[0] == pytest.approx(0.75 * 1.0 + 0.25 * 1.0)

    def test_eval_does_not_touch_running_stats(self):
        st_ = E.BatchNormState.create(2)
        rm, rv = st_.running_mean.copy(), st_.running_var.copy()
        E.batchnorm_forward(rnd((2, 2, 3, 3)), st_, "eval")
        np.testing.assert_array_equal(st_.running_mean, rm)
        np.testing.assert_array_equal(st_.running_var, rv)

    def test_errors(self):
        st_ = E.BatchNormState.create(2)
        with pytest.raises(E.ShapeError):
            E.batchnorm_forward(rnd((1, 3, 2, 2)), st_, "train")
        with pytest.raises(E.ShapeError):
            E.batchnorm_forward(rnd((1, 2, 1, 1)), st_, "train")  # n*h*w == 1
        with pytest.raises(ValueError):
            E.batchnorm_forward(rnd((1, 2, 2, 2)), st_, "inference")

    @pytest.mark.parametrize("shape", [(4, 3, 8, 8), (2, 5, 1, 1), (1, 6, 3, 5)])
    def test_backward_with_saved_statistics_equals_cold(self, shape):
        # the forward saves its batch statistics on the view, and a backward
        # on the same x reads them: bytes-equal to one that computes its own
        x, go = rnd(shape, seed=10), rnd(shape, seed=11)
        st_ = E.BatchNormState.create(shape[1])
        st_.gamma[:] = rnd((shape[1],), seed=12)
        E.batchnorm_forward(x, st_, "train")
        saved_x, mean, var = st_.batch_stats
        assert saved_x is x
        np.testing.assert_array_equal(mean, x.mean(axis=(0, 2, 3)))
        np.testing.assert_array_equal(var, x.var(axis=(0, 2, 3)))
        warm = E.batchnorm_backward(x, st_, go)
        cold = E.batchnorm_backward(x, replace(st_, batch_stats=None), go)
        for a, b in zip(warm, cold):
            assert a.tobytes() == b.tobytes()

    def test_saved_statistics_are_used_for_their_input_only(self):
        x, other, go = rnd((2, 3, 4, 4), seed=13), rnd((2, 3, 4, 4), seed=14), \
            rnd((2, 3, 4, 4), seed=15)
        st_ = E.BatchNormState.create(3)
        E.batchnorm_forward(x, st_, "train")
        got = E.batchnorm_backward(other, st_, go)
        want = E.batchnorm_backward(other, E.BatchNormState.create(3), go)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_eval_saves_no_statistics(self):
        st_ = E.BatchNormState.create(2)
        E.batchnorm_forward(rnd((2, 2, 3, 3)), st_, "eval")
        assert st_.batch_stats is None

    def test_count_rule(self):
        ops.check_bn_count(2)
        for count in (1, 0):
            with pytest.raises(E.ShapeError, match=f"n\\*h\\*w >= 2, got {count}$"):
                ops.check_bn_count(count)

    def test_backward_zero_grad(self):
        st_ = E.BatchNormState.create(3)
        x = rnd((2, 3, 2, 2), seed=7)
        gx, gg, gb = E.batchnorm_backward(x, st_, np.zeros_like(x))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_gamma_grad_per_channel_independence(self):
        st_ = E.BatchNormState.create(3)
        x = rnd((2, 3, 2, 2), seed=8)
        go = rnd((2, 3, 2, 2), seed=9)
        _, gg, _ = E.batchnorm_backward(x, st_, go)
        # permute the *other* channels; channel 0's gamma grad is unchanged
        perm = x.copy()
        perm[:, 1], perm[:, 2] = x[:, 2], x[:, 1]
        gop = go.copy()
        gop[:, 1], gop[:, 2] = go[:, 2], go[:, 1]
        _, gg_perm, _ = E.batchnorm_backward(perm, st_, gop)
        assert gg_perm[0] == pytest.approx(gg[0], rel=1e-6)


# ---------------------------------------------------------------------------
# relu / add / concat
# ---------------------------------------------------------------------------

class TestPointwise:
    def test_relu_example(self):
        x = np.array([-1.0, 0.0, 2.0], np.float32).reshape(1, 3, 1, 1)
        np.testing.assert_array_equal(E.relu_forward(x).ravel(), [0, 0, 2])
        g = E.relu_backward(x, np.ones_like(x))
        np.testing.assert_array_equal(g.ravel(), [0, 0, 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_keeps_grad_dtype(self, dtype):
        x = rnd((1, 2, 3, 3), dtype=dtype)
        assert E.relu_backward(x, np.ones_like(x)).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_is_bitwise_where(self, dtype):
        # +0 where the mask is off, whatever the gradient's sign or value
        x, g = rnd((2, 3, 5, 7), seed=27, dtype=dtype), rnd((2, 3, 5, 7), seed=28, dtype=dtype)
        x.flat[::4] = 0
        g.flat[::5], g.flat[1::7], g.flat[2::11], g.flat[3::13] = -0.0, np.nan, -np.inf, np.inf
        for go in (g, g[::-1, :, ::-1]):  # and a negatively strided view
            got = E.relu_backward(x, go)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == np.where(x > 0, go, 0).tobytes()

    @given(st.lists(st.floats(-10, 10, width=32), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, vals):
        x = np.array(vals, np.float32).reshape(1, 1, 1, -1)
        once = E.relu_forward(x)
        np.testing.assert_array_equal(E.relu_forward(once), once)

    def test_add(self):
        x = rnd((2, 3, 4, 4), seed=0)
        y = rnd((2, 3, 4, 4), seed=1)
        np.testing.assert_array_equal(E.add(x, np.zeros_like(x)), x)
        np.testing.assert_array_equal(E.add(x, y), E.add(y, x))
        with pytest.raises(E.ShapeError):
            E.add(x, rnd((2, 3, 4, 5)))

    def test_concat_and_split(self):
        a = rnd((1, 2, 1, 1), seed=2)
        b = rnd((1, 3, 1, 1), seed=3)
        cat = E.concat_channels([a, b])
        assert cat.shape == (1, 5, 1, 1)
        np.testing.assert_array_equal(E.concat_channels([a]), a)
        pa, pb = E.split_channels(cat, [2, 3])
        np.testing.assert_array_equal(pa, a)
        np.testing.assert_array_equal(pb, b)
        with pytest.raises(E.ShapeError):
            E.concat_channels([a, rnd((2, 3, 1, 1))])
        with pytest.raises(E.ShapeError):
            E.split_channels(cat, [2, 2])

    def test_split_pieces_are_read_only_views(self):
        x = rnd((3, 5, 2, 4), seed=4)
        before = x.copy()
        pieces = E.split_channels(x, [2, 3])
        for piece in pieces:
            assert np.shares_memory(piece, x) and not piece.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                piece += 1
        assert x.flags.writeable and x.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

class TestMaxPool:
    def test_2x2_window(self):
        x = E.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = E.maxpool_forward(x, 2, 2)
        assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4.0

    def test_constant_input(self):
        x = np.full((1, 2, 6, 6), 3.5, np.float32)
        out = E.maxpool_forward(x, 3, 2, 1)
        assert (out == 3.5).all()

    def test_backward_routes_to_argmax(self):
        x = E.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        g = E.maxpool_backward(x, 2, 2, 0, E.tensor([[[[1.0]]]]))
        expected = np.zeros((2, 2), np.float32)
        expected[1, 1] = 1.0
        np.testing.assert_array_equal(g[0, 0], expected)

    def test_backward_first_argmax_on_ties(self):
        x = np.full((1, 1, 2, 2), 7.0, np.float32)
        g = E.maxpool_backward(x, 2, 2, 0, E.tensor([[[[1.0]]]]))
        expected = np.zeros((2, 2), np.float32)
        expected[0, 0] = 1.0  # row-major first position wins
        np.testing.assert_array_equal(g[0, 0], expected)

    def test_neg_inf_padding_semantics(self):
        # all-negative input: zero padding would (wrongly) win the max
        x = np.full((1, 1, 2, 2), -5.0, np.float32)
        out = E.maxpool_forward(x, 3, 2, 1)
        assert (out == -5.0).all()

    def test_overlapping_windows_accumulate(self):
        x = np.zeros((1, 1, 3, 3), np.float32)
        x[0, 0, 1, 1] = 9.0
        go = np.ones((1, 1, 2, 2), np.float32)
        g = E.maxpool_backward(x, 2, 1, 0, go)
        assert g[0, 0, 1, 1] == 4.0  # argmax of all four windows

    @pytest.mark.parametrize("k,s,p", [(3, 2, 1), (2, 1, 0)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_add_at_bitwise(self, k, s, p, dtype):
        # quantized inputs tie within windows; gradients 12 decades apart make
        # any summation order other than np.add.at's round differently
        rng = np.random.default_rng(16)
        x = (np.round(rng.standard_normal((2, 3, 11, 13)) * 2) / 2).astype(dtype)
        oh, ow = (11 + 2 * p - k) // s + 1, (13 + 2 * p - k) // s + 1
        go = (rng.standard_normal((2, 3, oh, ow)) * 10.0 ** rng.integers(-6, 6, (2, 3, oh, ow))
              ).astype(dtype)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        am = win.reshape(2, 3, oh, ow, k * k).argmax(axis=-1)  # first row-major max
        ref = np.zeros(xp.shape, dtype)
        np.add.at(ref, (np.arange(2).reshape(2, 1, 1, 1), np.arange(3).reshape(1, 3, 1, 1),
                        np.arange(oh).reshape(oh, 1) * s + am // k,
                        np.arange(ow) * s + am % k), go)
        out = E.maxpool_backward(x, k, s, p, go)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out, ref[:, :, p:p + 11, p:p + 13])


# ---------------------------------------------------------------------------
# bilinear upsampling
# ---------------------------------------------------------------------------

def bilinear_reference(x2d, out_h, out_w):
    """Independent scalar evaluation of the half-pixel/clamped formula."""
    h, w = x2d.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = x2d[y0, x0] * (1 - fx) + x2d[y0, x1] * fx
            bot = x2d[y1, x0] * (1 - fx) + x2d[y1, x1] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


class TestUpsample:
    def test_constant_any_scale(self):
        x = np.full((1, 2, 3, 5), 2.25, np.float32)
        for oh, ow in [(3, 5), (6, 10), (7, 13)]:
            out = E.upsample_bilinear(x, oh, ow)
            assert out.shape == (1, 2, oh, ow)
            np.testing.assert_array_equal(out, np.full((1, 2, oh, ow), 2.25, np.float32))

    def test_single_pixel_border_clamp(self):
        x = E.tensor([[[[5.0]]]])
        out = E.upsample_bilinear(x, 2, 2)
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 5.0, np.float32))

    def test_2x2_to_4x4_regression_vector(self):
        x2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = E.upsample_bilinear(x2.reshape(1, 1, 2, 2).astype(np.float32), 4, 4)
        # pinned from the scalar formula evaluation
        pinned = np.array([
            [1.0, 1.25, 1.75, 2.0],
            [1.5, 1.75, 2.25, 2.5],
            [2.5, 2.75, 3.25, 3.5],
            [3.0, 3.25, 3.75, 4.0],
        ])
        np.testing.assert_allclose(out[0, 0], pinned, atol=1e-6)
        np.testing.assert_allclose(out[0, 0], bilinear_reference(x2, 4, 4), atol=1e-6)

    def test_matches_reference_on_uneven_scale(self):
        x = rnd((1, 1, 3, 4), seed=13).astype(np.float64)
        out = E.upsample_bilinear(x, 7, 9)
        np.testing.assert_allclose(out[0, 0], bilinear_reference(x[0, 0], 7, 9), atol=1e-12)

    def test_backward_is_exact_transpose(self):
        # <up(x), g> == <x, up^T(g)> for random x, g
        x = rnd((1, 2, 3, 4), seed=14).astype(np.float64)
        g = rnd((1, 2, 6, 9), seed=15).astype(np.float64)
        up = E.upsample_bilinear(x, 6, 9)
        gx = E.upsample_bilinear_backward(x.shape, 6, 9, g)
        assert np.sum(up * g) == pytest.approx(np.sum(x * gx), rel=1e-12)

    def test_backward_equals_dense_transpose(self):
        # column i of the forward map is the upsampled i-th basis image
        basis = np.eye(12).reshape(12, 1, 3, 4)
        fwd_t = E.upsample_bilinear(basis, 7, 9).reshape(12, 63)
        g = rnd((2, 3, 7, 9), seed=17, dtype=np.float64)
        gx = E.upsample_bilinear_backward((2, 3, 3, 4), 7, 9, g)
        np.testing.assert_allclose(gx.reshape(2, 3, 12), g.reshape(2, 3, 63) @ fwd_t.T,
                                   rtol=0, atol=1e-12)

    @staticmethod
    def gather_reference(x, out_h, out_w):
        """The four-tap gather the two-pass blend replaced, verbatim."""
        h, w = x.shape[2:]
        y0, y1, fy = ops._bilinear_axis(h, out_h)
        x0, x1, fx = ops._bilinear_axis(w, out_w)
        fy = fy.astype(x.dtype).reshape(1, 1, out_h, 1)
        fx = fx.astype(x.dtype).reshape(1, 1, 1, out_w)
        top = x[:, :, y0][:, :, :, x0] * (1 - fx) + x[:, :, y0][:, :, :, x1] * fx
        bot = x[:, :, y1][:, :, :, x0] * (1 - fx) + x[:, :, y1][:, :, :, x1] * fx
        return top * (1 - fy) + bot * fy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw,out_hw", [
        ((3, 4), (7, 9)), ((8, 16), (64, 128)), ((16, 24), (11, 17))])
    def test_forward_equals_gather_reference(self, dtype, hw, out_hw):
        x = rnd((2, 3, *hw), seed=sum(out_hw), dtype=dtype)
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for inp in (x, channels_last):
            ref = self.gather_reference(inp, *out_hw)
            out = ops.resize_bilinear(inp, *out_hw)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()  # bitwise, both in C order
            if out_hw[0] >= hw[0]:
                up = E.upsample_bilinear(inp, *out_hw)
                assert up.flags.c_contiguous and up.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape,out_hw", [
        ((1, 19, 64, 128), (512, 1024)),   # B's logits: bands of whole planes
        ((1, 1, 128, 256), (1100, 2300)),  # one 10 MB plane: bands of its rows
    ], ids=["logits", "one_plane"])
    def test_banded_equals_gather_reference(self, shape, out_hw):
        x = rnd(shape, seed=19)
        assert x.nbytes // (shape[2] * shape[3]) * out_hw[0] * out_hw[1] > ops.BAND_BYTES
        assert ops.resize_bilinear(x, *out_hw).tobytes() == \
            self.gather_reference(x, *out_hw).tobytes()

    def test_errors(self):
        x = rnd((1, 1, 4, 4))
        with pytest.raises(E.ShapeError):
            E.upsample_bilinear(x, 0, 4)
        with pytest.raises(E.ShapeError):
            E.upsample_bilinear(x, 2, 4)  # shrink not allowed

    def test_cached_maps_are_read_only(self):
        maps = [*ops._bilinear_axis(3, 7), ops._bilinear_matrix(4, 9, np.dtype(np.float32))]
        for a in maps:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert ops._bilinear_axis(3, 7)[0] is maps[0]  # the cached arrays, not copies

    def test_cache_hit_gives_the_bits_of_a_miss(self):
        x, g = rnd((2, 3, 5, 6), seed=25), rnd((2, 3, 11, 13), seed=26)

        def both():
            return (E.upsample_bilinear(x, 11, 13).tobytes(),
                    E.upsample_bilinear_backward(x.shape, 11, 13, g).tobytes())

        ops._bilinear_axis.cache_clear()
        ops._bilinear_matrix.cache_clear()
        miss = both()
        hits = ops._bilinear_axis.cache_info().hits, ops._bilinear_matrix.cache_info().hits
        assert both() == miss
        assert ops._bilinear_axis.cache_info().hits > hits[0]
        assert ops._bilinear_matrix.cache_info().hits > hits[1]


# ---------------------------------------------------------------------------
# padding helper: bitwise the np.pad call it replaces
# ---------------------------------------------------------------------------

class TestPad:
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("fill", [0.0, -np.inf])
    def test_pad_equals_np_pad(self, p, fill):
        for dtype in (np.float32, np.float64):
            x = rnd((2, 3, 3, 4), seed=p, dtype=dtype)[:, :, ::-1]  # non-contiguous too
            ref = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill)
            out = ops._pad(x, p, fill)
            assert out.dtype == ref.dtype and out.flags.c_contiguous
            np.testing.assert_array_equal(out, ref)


# ---------------------------------------------------------------------------
# .nt round trip
# ---------------------------------------------------------------------------

class TestNtFormat:
    def test_round_trip(self, tmp_path):
        x = rnd((2, 3, 4, 5), seed=16)
        p = tmp_path / "t.nt"
        E.write_nt(p, x)
        back = E.read_nt(p)
        np.testing.assert_array_equal(back, x)
        assert back.dtype == np.float32

    def test_header_bytes(self, tmp_path):
        x = np.array([1.0], np.float32).reshape(1)
        raw = E.nt_bytes(x)
        assert raw[:4] == b"NTSR"
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 1  # ndim

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "bad.nt"
        E.write_nt(p, rnd((2, 2)))
        data = p.read_bytes()[:-3]
        p.write_bytes(data)
        with pytest.raises(E.FormatError):
            E.read_nt(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.nt"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(E.FormatError):
            E.read_nt(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.nt"
        p.write_bytes(E.nt_bytes(rnd((2, 2))) + b"\x00\x00\x00")
        with pytest.raises(E.FormatError, match=r"long\.nt: 3 trailing byte\(s\) after payload$"):
            E.read_nt(p)

    @pytest.mark.parametrize("keep", [6, 12, 16])
    def test_truncated_header_rejected(self, keep):
        raw = E.nt_bytes(rnd((2, 2)))  # 12-byte fixed header, then two u32 dims
        with pytest.raises(E.FormatError):
            E.nt_from_bytes(raw[:keep])
