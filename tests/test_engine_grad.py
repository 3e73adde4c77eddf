"""Gradient suite: analytic backward vs central finite differences, plus tape."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dwrseg import engine as E
from dwrseg import network as N
from dwrseg.engine import ops
from dwrseg.engine.gradcheck import finite_diff_check
from dwrseg.engine.tape import BACKWARD

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
        # the kernels do not check; the tape checks each conv, BN, add and upsample output
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

    def test_relu_keeps_only_its_output(self):
        # the backward reads its mask from the output, so a recorded relu does
        # not keep its input alive, and the gradient is the input-mask one
        x = rnd((1, 2, 4, 4), 39).astype(np.float32)
        x[0, 0, 0, 0] = 0.0
        t = E.Tape()
        a = t.leaf(x)
        h = t.add(a, a)
        h_ref, h_in = weakref.ref(h.data), h.data.copy()
        r = t.relu(h)
        del h
        assert h_ref() is None
        go = rnd(x.shape, 40).astype(np.float32)
        grads = t.backward(r, go)
        np.testing.assert_array_equal(grads[a.idx], 2 * E.relu_backward(h_in, go))

    @staticmethod
    def backward_keeping_every_grad(tape, root, seed_grad, num_vars):
        """Tape.backward's walk without dropping any gradient."""
        grads = [None] * num_vars
        grads[root.idx] = seed_grad
        for node in reversed(tape.nodes):
            if grads[node.out] is None:
                continue
            for pidx, pg in zip(node.parents, BACKWARD[node.kind](*node.saved, grads[node.out])):
                if pg is not None:
                    grads[pidx] = pg if grads[pidx] is None else grads[pidx] + pg
        return grads

    def test_backward_returns_leaf_grads_only_bitwise(self):
        # every op output's gradient is dropped once used; the leaves' are
        # those of the walk that keeps them all, and a second walk repeats them
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=3)
        tape = E.Tape()
        x = tape.leaf(rnd((2, 3, 64, 64), 50).astype(np.float32))
        logits, _ = N.forward(params, cfg, x, mode="train", tape=tape)
        seed_grad = rnd(logits.shape, 51).astype(np.float32)
        first = tape.backward(logits, seed_grad)
        second = tape.backward(logits, seed_grad)
        kept = self.backward_keeping_every_grad(tape, logits, seed_grad, len(first))
        outs = {node.out for node in tape.nodes}
        assert all(first[i] is None and second[i] is None for i in outs)
        leaves = [i for i in range(len(first)) if i not in outs]
        assert len(leaves) == 1 + len(list(params.items()))  # the input and every parameter
        for i in leaves:
            assert first[i].tobytes() == kept[i].tobytes() == second[i].tobytes()

    def test_check_finite_in_bands(self):
        # checked in BAND_BYTES bands of a flat view: a finite array of
        # several bands makes no mask, and a failure still counts every bad value
        x = np.zeros((2, 3, 256, 512), np.float32)  # 3 MiB: three bands
        E.check_finite("x", x)  # the band pool's threads are made on first use
        tracemalloc.start()
        try:
            E.check_finite("x", x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10, peak  # a band's bool mask would be BAND_BYTES // 4
        E.check_finite("empty", x[:0])
        x[-1, -1, -1, -1] = np.inf  # in the last slice
        with pytest.raises(E.NumericError, match=r"^x: 1 non-finite value\(s\) in tensor "
                                                 r"of shape \(2, 3, 256, 512\)$"):
            E.check_finite("x", x)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(E.NumericError, match=r"^x: 2 non-finite"):
            E.check_finite("x", x)

    def test_batchnorm_through_tape(self):
        x = rnd((2, 2, 3, 3), 36).astype(np.float32)
        st = E.BatchNormState.create(2)
        t = E.Tape()
        xv = t.leaf(x)
        gv, bv = t.leaf(st.gamma, "g"), t.leaf(st.beta, "b")
        out = t.batchnorm(xv, gv, bv, st.running_mean, st.running_var, "train")
        grads = t.backward(out, np.ones_like(x))
        ref = E.batchnorm_backward(x, st, np.ones_like(x), "train")
        np.testing.assert_allclose(grads[xv.idx], ref[0], rtol=1e-5)
        np.testing.assert_allclose(grads[gv.idx], ref[1], rtol=1e-5)
        np.testing.assert_allclose(grads[bv.idx], ref[2], rtol=1e-5)

    def test_batchnorm_on_tape_is_the_kernels_bitwise(self):
        # the tape builds its BN view from the leaves it records and the two
        # statistic arrays: output, gradients and the running-stat update are
        # the kernels' own on the same arrays
        x, go = rnd((2, 3, 4, 4), 41).astype(np.float32), rnd((2, 3, 4, 4), 42).astype(np.float32)
        gamma, beta = rnd((3,), 43).astype(np.float32), rnd((3,), 44).astype(np.float32)
        stats = [rnd((3,), 45).astype(np.float32), np.abs(rnd((3,), 46)).astype(np.float32)]
        ref_stats = [a.copy() for a in stats]
        ref = E.BatchNormState(gamma.copy(), beta.copy(), *ref_stats)
        want = E.batchnorm_forward(x, ref, "train")
        want_grads = E.batchnorm_backward(x, ref, go, "train")
        t = E.Tape()
        xv, gv, bv = t.leaf(x), t.leaf(gamma, "bn.gamma"), t.leaf(beta, "bn.beta")
        out = t.batchnorm(xv, gv, bv, *stats, "train")
        grads = t.backward(out, go)
        np.testing.assert_array_equal(out.data, want)
        for got, expected in zip((grads[xv.idx], grads[gv.idx], grads[bv.idx]), want_grads):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(stats, ref_stats):
            np.testing.assert_array_equal(got, expected)
        assert not np.array_equal(stats[0], rnd((3,), 45).astype(np.float32))


LINEAR_KINDS = ("conv2d", "upsample", "split", "concat", "add")
SMOOTH_KINDS = ("relu", "maxpool", "batchnorm")  # J v by central difference
STEP = 1e-7  # its step: small enough that no ReLU or maxpool of the graph meets a kink in it


def central_difference(f):
    """J v of t -> f(t) at t = 0, where f moves the operands along v by t."""
    return (f(STEP) - f(-STEP)) / (2 * STEP)


def batchnorm_at(node, dx=0.0, dgamma=0.0, dbeta=0.0):
    """A BN node's forward on its saved operands moved by (dx, dgamma, dbeta),
    on copies of its running statistics, which train mode would update."""
    x, state, mode = node.saved
    moved = replace(state, gamma=state.gamma + dgamma, beta=state.beta + dbeta,
                    running_mean=state.running_mean.copy(),
                    running_var=state.running_var.copy(), batch_stats=None)
    return ops.batchnorm_forward(x + dx, moved, mode)


def adjoint_products(node, rng, values):
    """(input, <J v, w>, <v, J^T w>) for each input of a node, at a random
    v and w: J v is the node's forward kernel on its saved operands (a
    conv's bias left out) for linear ops, a central difference of it for
    the others, and J^T w the tape's BACKWARD entry.  `values` maps var
    indices to their values, for a ReLU, whose node saves its output only."""
    if node.kind not in LINEAR_KINDS + SMOOTH_KINDS:
        return
    w = rng.standard_normal(node.shape)
    back = BACKWARD[node.kind](*node.saved, w)
    if node.kind == "conv2d":
        x, weight, spec = node.saved
        v, vw = rng.standard_normal(x.shape), rng.standard_normal(weight.shape)
        yield "x", np.vdot(ops.conv2d_forward(v, weight, None, spec), w), np.vdot(v, back[0])
        yield "weight", np.vdot(ops.conv2d_forward(x, vw, None, spec), w), np.vdot(vw, back[1])
    elif node.kind == "upsample":
        x_shape, h, wd = node.saved
        v = rng.standard_normal(x_shape)
        yield "x", np.vdot(ops.upsample_bilinear(v, h, wd), w), np.vdot(v, back[0])
    elif node.kind == "split":
        x_shape, lo, hi = node.saved
        v = rng.standard_normal(x_shape)
        piece = ops.split_channels(v, [lo, hi - lo, x_shape[1] - hi])[1]
        yield "x", np.vdot(piece, w), np.vdot(v, back[0])
    elif node.kind == "concat":
        n, _, h, wd = node.shape
        vs = [rng.standard_normal((n, c, h, wd)) for c in node.saved[0]]
        yield "xs", np.vdot(ops.concat_channels(vs), w), sum(map(np.vdot, vs, back))
    elif node.kind == "add":
        v, u = rng.standard_normal(node.shape), rng.standard_normal(node.shape)
        yield "x, y", np.vdot(ops.add(v, u), w), np.vdot(v, back[0]) + np.vdot(u, back[1])
    elif node.kind == "relu":
        x = values[node.parents[0]]
        v = rng.standard_normal(x.shape)
        jv = central_difference(lambda t: ops.relu_forward(x + t * v))
        yield "x", np.vdot(jv, w), np.vdot(v, back[0])
    elif node.kind == "maxpool":
        x, k, s, p = node.saved
        v = rng.standard_normal(x.shape)
        jv = central_difference(lambda t: ops.maxpool_forward(x + t * v, k, s, p))
        yield "x", np.vdot(jv, w), np.vdot(v, back[0])
    else:  # batchnorm: x, gamma, beta
        x, state, _ = node.saved
        for i, (which, shape) in enumerate(
                (("x", x.shape), ("gamma", state.gamma.shape), ("beta", state.beta.shape))):
            v = rng.standard_normal(shape)
            jv = central_difference(lambda t: batchnorm_at(node, **{f"d{which}": t * v}))
            yield which, np.vdot(jv, w), np.vdot(v, back[i])


class ValueTape(E.Tape):
    """A recording tape that also keeps every op output's value."""

    def __init__(self):
        super().__init__()
        self.values = {}

    def _out(self, kind, data, parents, saved, **fields):
        v = super()._out(kind, data, parents, saved, **fields)
        self.values[v.idx] = data
        return v


class TestAdjoint:
    """Claerbout's dot-product test on the real graph: <J v, w> = <v, J^T w>
    for every node of a float64 tiny forward in train mode (conv on its data
    and weight input, upsample, split, concat, add, ReLU, maxpool, and BN on
    x, gamma and beta) and every ReLU, maxpool and BN node of one in eval
    mode.  The linear
    nodes agree to 1e-10; the others, by central difference, to 1e-5 (their
    worst case here is 1.6e-7, train BN's x)."""

    @pytest.fixture(scope="class")
    def graphs(self):
        cfg = N.preset("tiny", num_classes=4)
        rng = np.random.default_rng([SEED, 62])
        graphs = {}
        for mode in ("train", "eval"):
            params = N.build(cfg, rng_seed=5).astype(np.float64)
            # BN away from its identity init, so that a backward missing a
            # factor of gamma or of the eval statistics' inv is told apart
            for name, a in params.items():
                if name.endswith((".gamma", ".beta")):
                    params.set_(name, rng.uniform(0.5, 1.5, a.shape) * rng.choice([-1, 1]))
            for name, a in params.stat_items():
                params.set_stat_(name, rng.uniform(0.25, 4.0, a.shape)
                                 if name.endswith("var") else rng.standard_normal(a.shape))
            tape = ValueTape()
            N.forward(params, cfg, rnd((1, 3, 64, 64), 60), mode=mode, tape=tape)
            graphs[mode] = tape
        return graphs

    @staticmethod
    def mismatches(tape, kinds):
        rng = np.random.default_rng([SEED, 61])
        checked, bad = [], []
        for node in tape.nodes:
            if node.kind not in kinds:
                continue
            tol = 1e-10 if node.kind in LINEAR_KINDS else 1e-5
            for which, jv_w, v_jtw in adjoint_products(node, rng, tape.values):
                checked.append(node.kind)
                if abs(jv_w - v_jtw) > tol * max(abs(jv_w), abs(v_jtw)):
                    bad.append(f"{node.kind} {node.name} {which}: {jv_w!r} != {v_jtw!r}")
        return checked, bad

    @staticmethod
    def assert_every_node_checked(tape, kinds):
        checked, bad = TestAdjoint.mismatches(tape, kinds)
        assert not bad, bad
        found = [n.kind for n in tape.nodes]
        inputs = {"conv2d": 2, "batchnorm": 3}  # x and weight; x, gamma and beta
        for kind in kinds:
            assert found.count(kind) > 0
            assert checked.count(kind) == inputs.get(kind, 1) * found.count(kind)

    def test_every_linear_node_is_the_transpose_of_its_forward(self, graphs):
        self.assert_every_node_checked(graphs["train"], LINEAR_KINDS)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_every_relu_maxpool_and_bn_node_is_the_transpose_of_its_forward(self, graphs,
                                                                             mode):
        self.assert_every_node_checked(graphs[mode], SMOOTH_KINDS)

    @staticmethod
    def assert_named(tape, kind):
        _, bad = TestAdjoint.mismatches(tape, LINEAR_KINDS + SMOOTH_KINDS)
        assert bad and all(b.startswith(f"{kind} ") for b in bad), bad

    @pytest.mark.parametrize("attr, kind, make", [
        ("conv2d_backward", "conv2d", lambda orig: lambda x, w, spec, go: tuple(
            g[:, :, ::-1, ::-1] if i == 1 else g for i, g in enumerate(orig(x, w, spec, go)))),
        ("upsample_bilinear_backward", "upsample", lambda orig: lambda shape, h, w, go: orig(
            shape, h, w, go[:, :, ::-1, ::-1].copy())),
    ], ids=["conv_weight_taps_flipped", "upsample_backward_flipped"])
    def test_a_flipped_backward_fails(self, graphs, monkeypatch, attr, kind, make):
        # the table looks each kernel up on ops when it runs, so the patch is what runs
        monkeypatch.setattr(ops, attr, make(getattr(ops, attr)))
        self.assert_named(graphs["train"], kind)

    @pytest.mark.parametrize("mode, attr, kind, make", [
        ("train", "relu_backward", "relu", lambda orig: lambda out, go: go.copy()),
        ("train", "maxpool_backward", "maxpool", lambda orig: lambda x, k, s, p, go: orig(
            x, k, s, p, go[:, :, ::-1, ::-1].copy())),
        # eval's grad_x without its factor inv = 1/sqrt(running_var + eps)
        ("eval", "batchnorm_backward", "batchnorm", lambda orig: lambda x, st, go, mode: (
            go * st.gamma.reshape(1, -1, 1, 1), *orig(x, st, go, mode)[1:])),
    ], ids=["relu_passes_every_gradient", "maxpool_backward_flipped",
            "bn_eval_grad_x_without_inv"])
    def test_a_wrong_nonlinear_backward_fails(self, graphs, monkeypatch, mode, attr, kind,
                                              make):
        monkeypatch.setattr(ops, attr, make(getattr(ops, attr)))
        self.assert_named(graphs[mode], kind)
