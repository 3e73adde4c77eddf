"""Block contracts: channel accounting, residual identities, op composition."""

import numpy as np
import pytest

from dwrseg import blocks as B
from dwrseg import engine as E
from dwrseg.params import ParamStore, ParamVars, he_normal, zero_init


def rnd(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32) * 0.1


def declare(forward_fn, x_shape, *args, seed=0, zero=False, prefix="blk"):
    """Store built by one run of a block forward, at batch 0, on a declaring store."""
    store = ParamStore(zero_init if zero else he_normal(np.random.default_rng(seed)))
    tape = E.Tape()
    x = tape.leaf(np.zeros((0, *x_shape[1:]), np.float32))
    forward_fn(tape, ParamVars(tape, store), prefix, x, *args, "eval")
    store.init = None
    return store


def run_block(forward_fn, cfg, x, mode="eval", seed=0, zero=False, prefix="blk"):
    store = declare(forward_fn, x.shape, cfg, seed=seed, zero=zero, prefix=prefix)
    tape = E.Tape(record=False)
    pv = ParamVars(tape, store)
    out = forward_fn(tape, pv, prefix, tape.leaf(x), cfg, mode)
    return out.data, store


class TestChannelAccounting:
    def test_three_branch_widths(self):
        cfg = B.DWRConfig(channels=128, in_channels=128, branch_count=3)
        assert cfg.rr_width == 192
        assert cfg.group_widths == (96, 48, 48)
        assert cfg.dilations == (1, 3, 5)

    def test_two_branch_widths(self):
        cfg = B.DWRConfig(channels=128, in_channels=128, branch_count=2)
        assert cfg.rr_width == 192
        assert cfg.group_widths == (128, 64)
        assert cfg.dilations == (1, 3)

    def test_sr_conv_weights_match_widths(self):
        cfg = B.DWRConfig(channels=128, in_channels=128, branch_count=3)
        store = declare(B.dwr_forward, (1, 128, 8, 8), cfg, prefix="s4.0")
        assert store["s4.0.sr.b0.weight"].shape == (96, 1, 3, 3)
        assert store["s4.0.sr.b1.weight"].shape == (48, 1, 3, 3)
        assert store["s4.0.sr.b2.weight"].shape == (48, 1, 3, 3)
        assert store["s4.0.merge.weight"].shape[1] == 192

    def test_sir_hidden_width(self):
        cfg = B.SIRConfig(channels=64, in_channels=64, expansion=3)
        assert cfg.hidden_width == 192

    def test_probe_concat_width(self):
        cfg = B.DWRConfig(channels=64, in_channels=64, branch_count=3, broadcast=True)
        assert cfg.rr_width == 96
        assert sum(cfg.group_widths) == 288
        assert cfg.branch_slices() == [(0, 96), (96, 192), (192, 288)]
        store = declare(B.dwr_forward, (1, 64, 8, 8), cfg, prefix="p")
        assert store["p.merge.weight"].shape[1] == 288

    def test_indivisible_ratio_rejected(self):
        with pytest.raises(E.ShapeError):
            B.DWRConfig(channels=100, in_channels=100, branch_count=3)  # 150 % 4 != 0

    def test_in_channels_requires_stride_two(self):
        with pytest.raises(E.ShapeError):
            B.DWRConfig(channels=64, in_channels=32, branch_count=2, stride=1)
        B.DWRConfig(channels=64, in_channels=32, branch_count=2, stride=2)  # fine


class TestResidualIdentity:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_dwr_zero_weights_is_identity(self, mode):
        cfg = B.DWRConfig(channels=16, in_channels=16, branch_count=3)
        x = rnd((2, 16, 8, 8), seed=1)
        out, store = run_block(B.dwr_forward, cfg, x, mode=mode, zero=True)
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_sir_zero_weights_is_identity(self, mode):
        cfg = B.SIRConfig(channels=16, in_channels=16, expansion=3)
        x = rnd((2, 16, 8, 8), seed=2)
        out, _ = run_block(B.sir_forward, cfg, x, mode=mode, zero=True)
        np.testing.assert_array_equal(out, x)

    def test_probe_zero_weights_is_identity(self):
        cfg = B.DWRConfig(channels=16, in_channels=16, branch_count=3, broadcast=True)
        x = rnd((1, 16, 8, 8), seed=3)
        out, _ = run_block(B.dwr_forward, cfg, x, zero=True)
        np.testing.assert_array_equal(out, x)

    def test_identity_robust_to_gamma(self):
        # BN gamma scales a zero residual; identity must be unaffected
        cfg = B.DWRConfig(channels=8, in_channels=8, branch_count=2)
        store = declare(B.dwr_forward, (1, 8, 6, 6), cfg, zero=True)
        store.bn("blk.rr.bn").gamma[:] = 1.7
        store.bn("blk.sr.bn").gamma[:] = 0.3
        x = rnd((1, 8, 6, 6), seed=4)
        tape = E.Tape(record=False)
        out = B.dwr_forward(tape, ParamVars(tape, store), "blk", tape.leaf(x), cfg, "eval")
        np.testing.assert_array_equal(out.data, x)

    def test_stride_two_has_no_shortcut(self):
        cfg = B.DWRConfig(channels=16, in_channels=8, branch_count=2, stride=2)
        x = rnd((1, 8, 8, 8), seed=5)
        out, _ = run_block(B.dwr_forward, cfg, x, zero=True)
        assert out.shape == (1, 16, 4, 4)
        assert not out.any()  # zero residual, no identity path


class TestOpCompositionOracle:
    def test_dwr_matches_engine_composition(self):
        cfg = B.DWRConfig(channels=16, in_channels=16, branch_count=3)
        x = rnd((2, 16, 8, 8), seed=6)
        out, store = run_block(B.dwr_forward, cfg, x, seed=7)

        t = E.conv2d_forward(x, store["blk.rr.conv.weight"], None,
                             E.ConvSpec(16, cfg.rr_width, 3, padding=1))
        t = E.batchnorm_forward(t, store.bn("blk.rr.bn"), "eval")
        t = E.relu_forward(t)
        parts = E.split_channels(t, list(cfg.group_widths))
        outs = []
        for i, (p, g, d) in enumerate(zip(parts, cfg.group_widths, cfg.dilations)):
            outs.append(E.conv2d_forward(
                p, store[f"blk.sr.b{i}.weight"], None,
                E.ConvSpec(g, g, 3, padding=d, dilation=d, groups=g)))
        t = E.concat_channels(outs)
        t = E.batchnorm_forward(t, store.bn("blk.sr.bn"), "eval")
        t = E.conv2d_forward(t, store["blk.merge.weight"], store["blk.merge.bias"],
                             E.ConvSpec(cfg.rr_width, 16, 1, has_bias=True))
        ref = E.add(x, t)
        np.testing.assert_array_equal(out, ref)

    def test_sir_matches_engine_composition(self):
        cfg = B.SIRConfig(channels=10, in_channels=10, expansion=3)
        x = rnd((1, 10, 6, 6), seed=8)
        out, store = run_block(B.sir_forward, cfg, x, seed=9)
        t = E.conv2d_forward(x, store["blk.rr.conv.weight"], None,
                             E.ConvSpec(10, 30, 3, padding=1))
        t = E.batchnorm_forward(t, store.bn("blk.rr.bn"), "eval")
        t = E.relu_forward(t)
        t = E.conv2d_forward(t, store["blk.proj.weight"], store["blk.proj.bias"],
                             E.ConvSpec(30, 10, 1, has_bias=True))
        np.testing.assert_array_equal(out, E.add(x, t))

    def test_probe_matches_engine_composition(self):
        cfg = B.DWRConfig(channels=8, in_channels=8, branch_count=3, broadcast=True)
        x = rnd((1, 8, 8, 8), seed=10)
        out, store = run_block(B.dwr_forward, cfg, x, seed=11)
        w = cfg.rr_width
        t = E.conv2d_forward(x, store["blk.rr.conv.weight"], None,
                             E.ConvSpec(8, w, 3, padding=1))
        t = E.batchnorm_forward(t, store.bn("blk.rr.bn"), "eval")
        t = E.relu_forward(t)
        outs = [E.conv2d_forward(t, store[f"blk.sr.b{i}.weight"], None,
                                 E.ConvSpec(w, w, 3, padding=d, dilation=d, groups=w))
                for i, d in enumerate(cfg.dilations)]
        t = E.concat_channels(outs)
        t = E.batchnorm_forward(t, store.bn("blk.sr.bn"), "eval")
        t = E.conv2d_forward(t, store["blk.merge.weight"], store["blk.merge.bias"],
                             E.ConvSpec(3 * w, 8, 1, has_bias=True))
        np.testing.assert_array_equal(out, E.add(x, t))

    def test_stem_matches_engine_composition(self):
        s = 16
        x = rnd((1, 3, 32, 32), seed=12)
        store = declare(B.stem_forward, x.shape, s, seed=13, prefix="stem")
        tape = E.Tape(record=False)
        out = B.stem_forward(tape, ParamVars(tape, store), "stem", tape.leaf(x), s, "eval")

        t = E.conv2d_forward(x, store["stem.conv1.weight"], None,
                             E.ConvSpec(3, s // 2, 3, stride=2, padding=1))
        t = E.batchnorm_forward(t, store.bn("stem.conv1.bn"), "eval")
        a = E.conv2d_forward(t, store["stem.a1.weight"], None, E.ConvSpec(s // 2, s // 4, 1))
        a = E.relu_forward(E.batchnorm_forward(a, store.bn("stem.a1.bn"), "eval"))
        a = E.conv2d_forward(a, store["stem.a2.weight"], None,
                             E.ConvSpec(s // 4, s // 2, 3, stride=2, padding=1))
        a = E.relu_forward(E.batchnorm_forward(a, store.bn("stem.a2.bn"), "eval"))
        b = E.maxpool_forward(t, 3, 2, 1)
        t = E.concat_channels([a, b])
        t = E.conv2d_forward(t, store["stem.fuse.weight"], None, E.ConvSpec(s, s, 3, padding=1))
        ref = E.relu_forward(E.batchnorm_forward(t, store.bn("stem.fuse.bn"), "eval"))
        np.testing.assert_array_equal(out.data, ref)


class TestDilationTapWindows:
    @pytest.mark.parametrize("dilation,window", [(1, 3), (3, 7), (5, 11)])
    def test_sr_branch_delta_support(self, dilation, window):
        # delta into the SR depthwise conv: support is exactly (2d+1)^2
        g = 4
        size = 31
        spec = E.ConvSpec(g, g, 3, padding=dilation, dilation=dilation, groups=g)
        w = (np.abs(rnd((g, 1, 3, 3), seed=dilation)) + 0.1).astype(np.float32)
        x = np.zeros((1, g, size, size), np.float32)
        center = size // 2
        x[0, :, center, center] = 1.0
        out = E.conv2d_forward(x, w, None, spec)
        nz = np.argwhere(np.abs(out[0]).sum(axis=0) > 0)
        lo, hi = nz.min(axis=0), nz.max(axis=0)
        assert hi[0] - lo[0] + 1 == window
        assert hi[1] - lo[1] + 1 == window
        assert lo[0] == center - (window - 1) // 2


class TestStemAndHead:
    def test_stem_output_shape(self):
        for s, hw in ((16, 32), (64, 64)):
            x = rnd((1, 3, hw, hw), seed=14)
            store = declare(B.stem_forward, x.shape, s, seed=15, prefix="stem")
            tape = E.Tape(record=False)
            out = B.stem_forward(tape, ParamVars(tape, store), "stem", tape.leaf(x), s, "eval")
            assert out.data.shape == (1, s, hw // 4, hw // 4)

    def test_stem_zero_input_finite(self):
        store = declare(B.stem_forward, (1, 3, 32, 32), 16, seed=16, prefix="stem")
        tape = E.Tape(record=False)
        x = np.zeros((1, 3, 32, 32), np.float32)
        out = B.stem_forward(tape, ParamVars(tape, store), "stem", tape.leaf(x), 16, "eval")
        assert np.isfinite(out.data).all()

    def test_stem_rejects_indivisible_input(self):
        store = declare(B.stem_forward, (1, 3, 32, 32), 16, prefix="stem")
        tape = E.Tape(record=False)
        x = rnd((1, 3, 30, 32))
        with pytest.raises(E.ShapeError):
            B.stem_forward(tape, ParamVars(tape, store), "stem", tape.leaf(x), 16, "eval")

    def test_seghead_shape(self):
        store = declare(B.seghead_forward, (1, 320, 16, 16), 320, 128, 19, 128, 128,
                        seed=17, prefix="head")
        tape = E.Tape(record=False)
        x = rnd((1, 320, 16, 16), seed=18)
        out = B.seghead_forward(tape, ParamVars(tape, store), "head", tape.leaf(x),
                                320, 128, 19, 128, 128, "eval")
        assert out.data.shape == (1, 19, 128, 128)

    def test_seghead_zero_weights_logits_equal_bias(self):
        store = declare(B.seghead_forward, (1, 32, 8, 8), 32, 16, 5, 32, 32, zero=True,
                        prefix="head")
        bias = np.arange(5, dtype=np.float32)
        store.set_("head.pred.bias", bias)
        tape = E.Tape(record=False)
        x = rnd((1, 32, 8, 8), seed=19)
        out = B.seghead_forward(tape, ParamVars(tape, store), "head", tape.leaf(x),
                                32, 16, 5, 32, 32, "eval")
        for c in range(5):
            np.testing.assert_array_equal(out.data[:, c],
                                          np.full((1, 32, 32), bias[c], np.float32))


class TestShapePreservation:
    @pytest.mark.parametrize("shape", [(1, 16, 8, 8), (2, 16, 16, 8), (3, 16, 8, 16)])
    def test_stride_one_blocks_preserve_shape(self, shape):
        x = rnd(shape, seed=20)
        dwr = B.DWRConfig(channels=16, in_channels=16, branch_count=2)
        out, _ = run_block(B.dwr_forward, dwr, x, seed=21)
        assert out.shape == shape
        sir = B.SIRConfig(channels=16, in_channels=16)
        out, _ = run_block(B.sir_forward, sir, x, seed=22)
        assert out.shape == shape

    def test_capture_exposes_rr_and_sr(self):
        cfg = B.DWRConfig(channels=8, in_channels=8, branch_count=2)
        store = declare(B.dwr_forward, (1, 8, 8, 8), cfg, seed=23)
        tape = E.Tape(record=False)
        cap = {}
        x = rnd((1, 8, 8, 8), seed=24)
        B.dwr_forward(tape, ParamVars(tape, store), "blk", tape.leaf(x), cfg, "eval",
                      capture=cap)
        assert cap["blk.rr"].shape == (1, 12, 8, 8)
        assert cap["blk.sr"].shape == (1, 12, 8, 8)
        assert (cap["blk.rr"] >= 0).all()  # post-ReLU
