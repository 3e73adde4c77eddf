"""Gradient suite: analytic backward vs central finite differences, plus tape."""

import numpy as np
import pytest

from dwrseg import engine as E
from dwrseg.engine.gradcheck import finite_diff_check

SEED = 20240917  # documented RNG seed for all random gradient checks


def rnd(shape, seed):
    return np.random.default_rng([SEED, seed]).standard_normal(shape)


class TestConvGradcheck:
    def test_dense_conv(self):
        x = rnd((1, 2, 4, 4), 0)
        w = rnd((3, 2, 3, 3), 1)
        b = rnd((3,), 2)
        spec = E.ConvSpec(2, 3, 3, padding=1, has_bias=True)
        rep = finite_diff_check(
            lambda x, w, b: E.conv2d_forward(x, w, b, spec),
            lambda x, w, b, go: E.conv2d_backward(x, w, spec, go),
            [x, w, b], tolerance=1e-3, input_names=["x", "w", "b"])
        assert rep.passed, str(rep)

    def test_dilated_conv_grad_w(self):
        # random 1x2x4x4, k=3, d=2, p=2 per the contract vector
        x = rnd((1, 2, 4, 4), 3)
        w = rnd((2, 2, 3, 3), 4)
        spec = E.ConvSpec(2, 2, 3, padding=2, dilation=2)
        rep = finite_diff_check(
            lambda x, w: E.conv2d_forward(x, w, None, spec),
            lambda x, w, go: E.conv2d_backward(x, w, spec, go)[:2],
            [x, w], tolerance=1e-3, input_names=["x", "w"])
        assert rep.passed, str(rep)
        assert rep.per_input["w"] <= 1e-3

    def test_depthwise_strided(self):
        x = rnd((2, 3, 6, 6), 5)
        w = rnd((3, 1, 3, 3), 6)
        spec = E.ConvSpec(3, 3, 3, stride=2, padding=1, groups=3)
        rep = finite_diff_check(
            lambda x, w: E.conv2d_forward(x, w, None, spec),
            lambda x, w, go: E.conv2d_backward(x, w, spec, go)[:2],
            [x, w], tolerance=1e-3)
        assert rep.passed, str(rep)

    def test_grouped(self):
        x = rnd((1, 4, 5, 5), 7)
        w = rnd((6, 2, 3, 3), 8)
        spec = E.ConvSpec(4, 6, 3, padding=1, groups=2)
        rep = finite_diff_check(
            lambda x, w: E.conv2d_forward(x, w, None, spec),
            lambda x, w, go: E.conv2d_backward(x, w, spec, go)[:2],
            [x, w], tolerance=1e-3)
        assert rep.passed, str(rep)

    def test_corrupted_backward_fails(self):
        # negative control: a wrong gradient must be flagged
        x = rnd((1, 1, 3, 3), 9)
        w = rnd((1, 1, 3, 3), 10)
        spec = E.ConvSpec(1, 1, 3, padding=1)

        def bad_backward(x, w, go):
            gx, gw, _ = E.conv2d_backward(x, w, spec, go)
            return gx * 1.1, gw

        rep = finite_diff_check(
            lambda x, w: E.conv2d_forward(x, w, None, spec),
            bad_backward, [x, w], tolerance=1e-3)
        assert not rep.passed


class TestOtherOpGradchecks:
    def test_batchnorm_train_all_three_gradients(self):
        x = rnd((2, 3, 2, 2), 11)

        def fwd(x, gamma, beta):
            st = E.BatchNormState(gamma, beta, np.zeros(3), np.ones(3))
            return E.batchnorm_forward(x, st, "train")

        def bwd(x, gamma, beta, go):
            st = E.BatchNormState(gamma, beta, np.zeros(3), np.ones(3))
            return E.batchnorm_backward(x, st, go, "train")

        rep = finite_diff_check(fwd, bwd, [x, rnd((3,), 12), rnd((3,), 13)],
                                tolerance=1e-3, input_names=["x", "gamma", "beta"])
        assert rep.passed, str(rep)

    def test_batchnorm_eval(self):
        x = rnd((1, 2, 3, 3), 14)
        rm, rv = rnd((2,), 15), np.abs(rnd((2,), 16)) + 0.5

        def fwd(x, gamma, beta):
            st = E.BatchNormState(gamma, beta, rm, rv)
            return E.batchnorm_forward(x, st, "eval")

        def bwd(x, gamma, beta, go):
            st = E.BatchNormState(gamma, beta, rm, rv)
            return E.batchnorm_backward(x, st, go, "eval")

        rep = finite_diff_check(fwd, bwd, [x, rnd((2,), 17), rnd((2,), 18)],
                                tolerance=1e-3)
        assert rep.passed, str(rep)

    def test_relu_away_from_zero(self):
        x = rnd((1, 2, 3, 3), 19)
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the kink
        rep = finite_diff_check(
            lambda x: E.relu_forward(x),
            lambda x, go: (E.relu_backward(x, go),),
            [x], tolerance=1e-6, eps=1e-5)
        assert rep.passed, str(rep)

    def test_maxpool(self):
        x = rnd((1, 2, 5, 5), 20)

        def fwd(x):
            return E.maxpool_forward(x, 3, 2, 1)

        rep = finite_diff_check(
            fwd, lambda x, go: (E.maxpool_backward(x, 3, 2, 1, go),),
            [x], tolerance=1e-3)
        assert rep.passed, str(rep)

    def test_upsample(self):
        x = rnd((1, 2, 3, 4), 21)
        rep = finite_diff_check(
            lambda x: E.upsample_bilinear(x, 7, 6),
            lambda x, go: (E.upsample_bilinear_backward(x.shape, 7, 6, go),),
            [x], tolerance=1e-3)
        assert rep.passed, str(rep)

    def test_concat_add(self):
        a, b = rnd((1, 2, 2, 2), 22), rnd((1, 3, 2, 2), 23)
        rep = finite_diff_check(
            lambda a, b: E.concat_channels([a, b]),
            lambda a, b, go: tuple(E.split_channels(go, [2, 3])),
            [a, b], tolerance=1e-3)
        assert rep.passed, str(rep)
        x, y = rnd((1, 2, 2, 2), 24), rnd((1, 2, 2, 2), 25)
        rep = finite_diff_check(
            lambda x, y: E.add(x, y),
            lambda x, y, go: (go, go),
            [x, y], tolerance=1e-3)
        assert rep.passed, str(rep)


class TestTape:
    def test_chain_matches_manual_composition(self):
        x = rnd((1, 2, 4, 4), 26).astype(np.float32)
        w = rnd((3, 2, 3, 3), 27).astype(np.float32)
        spec = E.ConvSpec(2, 3, 3, padding=1)
        t = E.Tape()
        xv, wv = t.leaf(x, "x"), t.leaf(w, "w")
        out = t.relu(t.conv2d(xv, wv, None, spec))
        np.testing.assert_array_equal(
            out.data, E.relu_forward(E.conv2d_forward(x, w, None, spec)))
        go = np.ones_like(out.data)
        grads = t.backward(out, go)
        conv_out = E.conv2d_forward(x, w, None, spec)
        gr = E.relu_backward(conv_out, go)
        gx_ref, gw_ref, _ = E.conv2d_backward(x, w, spec, gr)
        np.testing.assert_allclose(grads[xv.idx], gx_ref, rtol=1e-6)
        np.testing.assert_allclose(grads[wv.idx], gw_ref, rtol=1e-6)

    def test_add_passes_grad_to_both(self):
        x = rnd((1, 1, 2, 2), 28).astype(np.float32)
        y = rnd((1, 1, 2, 2), 29).astype(np.float32)
        t = E.Tape()
        xv, yv = t.leaf(x), t.leaf(y)
        out = t.add(xv, yv)
        go = rnd((1, 1, 2, 2), 30).astype(np.float32)
        grads = t.backward(out, go)
        np.testing.assert_array_equal(grads[xv.idx], go)
        np.testing.assert_array_equal(grads[yv.idx], go)

    def test_fanout_accumulates(self):
        x = rnd((1, 1, 2, 2), 31).astype(np.float32)
        t = E.Tape()
        xv = t.leaf(x)
        out = t.add(xv, xv)  # y = 2x
        grads = t.backward(out, np.ones_like(x))
        np.testing.assert_array_equal(grads[xv.idx], np.full_like(x, 2.0))

    def test_split_concat_round_trip(self):
        x = rnd((1, 5, 2, 2), 32).astype(np.float32)
        t = E.Tape()
        xv = t.leaf(x)
        parts = t.split(xv, [2, 3])
        back = t.concat(parts)
        np.testing.assert_array_equal(back.data, x)
        go = rnd((1, 5, 2, 2), 33).astype(np.float32)
        grads = t.backward(back, go)
        np.testing.assert_array_equal(grads[xv.idx], go)

    def test_non_recording_tape_stores_nothing(self):
        t = E.Tape(record=False)
        xv = t.leaf(rnd((1, 2, 4, 4), 34).astype(np.float32))
        wv = t.leaf(rnd((2, 2, 3, 3), 35).astype(np.float32))
        out = t.conv2d(xv, wv, None, E.ConvSpec(2, 2, 3, padding=1))
        _ = t.relu(out)
        assert t.num_nodes == 0
        with pytest.raises(RuntimeError):
            t.backward(out, np.ones_like(out.data))

    @pytest.mark.parametrize("record", [True, False])
    def test_non_finite_output_raises(self, record):
        # the kernels do not check; the tape checks every op's output once
        x = rnd((1, 3, 4, 4), 37).astype(np.float32)
        x[0, 0, 0, 0] = np.nan
        w = rnd((2, 3, 3, 3), 38).astype(np.float32)
        t = E.Tape(record=record)
        with pytest.raises(E.NumericError, match=r"^conv2d after input: conv2d output: 8 "):
            t.conv2d(t.leaf(x), t.leaf(w), None, E.ConvSpec(3, 2, 3, padding=1))
        out = t.conv2d(t.leaf(np.ones_like(x)), t.leaf(w, "s1.conv.weight"), None,
                       E.ConvSpec(3, 2, 3, padding=1))
        with pytest.raises(E.NumericError, match=r"^add after s1\.conv: add output: 32 "):
            t.add(out, t.leaf(np.full_like(out.data, np.inf)))

    def test_batchnorm_through_tape(self):
        x = rnd((2, 2, 3, 3), 36).astype(np.float32)
        st = E.BatchNormState.create(2)
        t = E.Tape()
        xv = t.leaf(x)
        gv, bv = t.leaf(st.gamma, "g"), t.leaf(st.beta, "b")
        out = t.batchnorm(xv, gv, bv, st, "train")
        grads = t.backward(out, np.ones_like(x))
        ref = E.batchnorm_backward(x, st, np.ones_like(x), "train")
        np.testing.assert_allclose(grads[xv.idx], ref[0], rtol=1e-5)
        np.testing.assert_allclose(grads[gv.idx], ref[1], rtol=1e-5)
        np.testing.assert_allclose(grads[bv.idx], ref[2], rtol=1e-5)
