"""Training recipe: schedule, optimizer, OHEM loss, mIoU, augmentation, loop."""

import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwrseg import cli
from dwrseg import data as D
from dwrseg import network as N
from dwrseg import training as T
from dwrseg.engine import NumericError, ops
from dwrseg.params import ParamStore


class TestPolyLr:
    def test_endpoints_and_midpoint(self):
        cfg = T.TrainConfig(lr_base=0.02, poly_power=0.9, iters=100)
        assert T.poly_lr(0, cfg) == 0.02
        assert T.poly_lr(100, cfg) == 0.0
        # 0.02 * 0.5**0.9, evaluated directly from the formula
        assert T.poly_lr(50, cfg) == pytest.approx(0.010717734625362931, rel=1e-12)

    def test_monotone_non_increasing(self):
        cfg = T.TrainConfig(iters=37)
        vals = [T.poly_lr(i, cfg) for i in range(38)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == cfg.lr_base and vals[-1] == 0.0

    def test_clamped_beyond_max(self):
        assert T.poly_lr(15, T.TrainConfig(iters=10)) == 0.0

    def test_zero_iterations_is_at_the_end(self):
        assert T.poly_lr(0, T.TrainConfig(iters=0)) == 0.0


def scalar_store(value):
    store = ParamStore()
    store.add("w", np.array([value], np.float32))
    return store


class TestSgdStep:
    def test_zero_grad_zero_wd_is_identity(self):
        store = scalar_store(1.5)
        st_ = T.OptimizerState(T.TrainConfig(weight_decay=0.0))
        T.sgd_step(store, {"w": np.zeros(1, np.float32)}, st_, lr=0.1)
        assert store["w"][0] == 1.5

    def test_lr_zero_is_identity(self):
        store = scalar_store(2.0)
        st_ = T.OptimizerState(T.TrainConfig())
        T.sgd_step(store, {"w": np.ones(1, np.float32)}, st_, lr=0.0)
        assert store["w"][0] == 2.0

    def test_first_step_formula(self):
        p0, g, wd, lr = 2.0, 0.5, 0.01, 0.1
        store = scalar_store(p0)
        st_ = T.OptimizerState(T.TrainConfig(momentum=0.9, weight_decay=wd))
        T.sgd_step(store, {"w": np.array([g], np.float32)}, st_, lr=lr)
        assert store["w"][0] == pytest.approx(p0 - lr * (g + wd * p0), rel=1e-6)

    def test_two_steps_match_hand_unrolled_recurrence(self):
        p, g1, g2, mom, wd, lr = 1.0, 0.3, -0.2, 0.9, 0.01, 0.05
        # hand unroll: v1 = g1 + wd*p0; p1 = p0 - lr*v1
        #              v2 = mom*v1 + g2 + wd*p1; p2 = p1 - lr*v2
        v1 = g1 + wd * p
        p1 = p - lr * v1
        v2 = mom * v1 + g2 + wd * p1
        p2 = p1 - lr * v2
        store = scalar_store(p)
        st_ = T.OptimizerState(T.TrainConfig(momentum=mom, weight_decay=wd))
        T.sgd_step(store, {"w": np.array([g1], np.float32)}, st_, lr=lr)
        T.sgd_step(store, {"w": np.array([g2], np.float32)}, st_, lr=lr)
        assert store["w"][0] == pytest.approx(p2, rel=1e-5)

    def test_bn_affine_exempt_from_decay(self):
        store = ParamStore()
        store.add_bn("x.bn", 2)
        store["x.bn.gamma"][:] = 3.0
        store.add("conv.weight", np.full(2, 3.0, np.float32))
        st_ = T.OptimizerState(T.TrainConfig(momentum=0.0, weight_decay=0.5))
        zeros = {n: np.zeros_like(a) for n, a in store.items()}
        T.sgd_step(store, zeros, st_, lr=1.0)
        np.testing.assert_array_equal(store["x.bn.gamma"], np.full(2, 3.0, np.float32))
        assert store["conv.weight"][0] == pytest.approx(3.0 - 1.0 * 0.5 * 3.0)


def logits_for_probs(probs):
    """2-class logit maps with the requested true-class (class 0) probabilities."""
    lg = np.zeros((1, 2, 1, len(probs)), np.float32)
    for i, p in enumerate(probs):
        lg[0, 0, 0, i] = np.log(p / (1 - p))
    return lg


class TestOhem:
    def test_single_pixel_uniform_softmax(self):
        logits = np.zeros((1, 2, 1, 1), np.float32)
        labels = np.zeros((1, 1, 1), np.int64)
        loss, grad = T.ohem_ce_loss(logits, labels, T.OhemConfig())
        assert loss == pytest.approx(np.log(2.0), rel=1e-6)  # p=0.5 < 0.7, kept
        np.testing.assert_allclose(grad.ravel(), [-0.5, 0.5], atol=1e-6)

    def test_four_pixel_selection_rule(self):
        logits = logits_for_probs([0.9, 0.95, 0.5, 0.6])
        labels = np.zeros((1, 1, 4), np.int64)
        cfg = T.OhemConfig(prob_threshold=0.7, min_kept_fraction=0.25)  # min_kept=1
        loss, grad = T.ohem_ce_loss(logits, labels, cfg)
        expected = np.mean([-np.log(0.5), -np.log(0.6)])
        assert loss == pytest.approx(expected, rel=1e-5)
        support = np.abs(grad).sum(axis=1).ravel() > 0
        np.testing.assert_array_equal(support, [False, False, True, True])

    def test_all_ignore(self):
        logits = logits_for_probs([0.9, 0.5])
        labels = np.full((1, 1, 2), 255, np.int64)
        loss, grad = T.ohem_ce_loss(logits, labels, T.OhemConfig())
        assert loss == 0.0 and not grad.any()

    def test_min_kept_floor(self):
        # all pixels easy: the hardest min_kept must still be kept
        logits = logits_for_probs([0.99, 0.98, 0.97, 0.96])
        labels = np.zeros((1, 1, 4), np.int64)
        cfg = T.OhemConfig(prob_threshold=0.7, min_kept_fraction=0.5)  # min_kept=2
        loss, grad = T.ohem_ce_loss(logits, labels, cfg)
        support = np.abs(grad).sum(axis=1).ravel() > 0
        np.testing.assert_array_equal(support, [False, False, True, True])
        assert loss == pytest.approx(np.mean([-np.log(0.97), -np.log(0.96)]), rel=1e-4)

    def test_tie_break_by_pixel_index(self):
        logits = logits_for_probs([0.9, 0.9, 0.9, 0.9])
        labels = np.zeros((1, 1, 4), np.int64)
        cfg = T.OhemConfig(prob_threshold=0.5, min_kept_fraction=0.5)  # min_kept=2
        _, grad = T.ohem_ce_loss(logits, labels, cfg)
        support = np.abs(grad).sum(axis=1).ravel() > 0
        np.testing.assert_array_equal(support, [True, True, False, False])

    def test_ignored_never_kept_even_if_hard(self):
        logits = logits_for_probs([0.01, 0.99])
        labels = np.array([255, 0], np.int64).reshape(1, 1, 2)
        cfg = T.OhemConfig(prob_threshold=0.7, min_kept_fraction=1.0)
        _, grad = T.ohem_ce_loss(logits, labels, cfg)
        support = np.abs(grad).sum(axis=1).ravel() > 0
        np.testing.assert_array_equal(support, [False, True])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_kept_set_is_the_stable_argsort_one(self, data):
        # the true-class logit takes one of five values, so probabilities tie
        # exactly, on both sides of the floor; every other logit is 0
        n, h, w = data.draw(st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 6)))
        size = n * h * w
        a = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1, 2, 255]),
                                             min_size=size, max_size=size)))
        a, labels = a.reshape(n, h, w), labels.reshape(n, h, w)
        # p_true = e^a / (e^a + 2) is 0.063, 0.155, 0.333, 0.576 or 0.787: every
        # threshold lies between two of them
        cfg = T.OhemConfig(prob_threshold=data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.7])),
                           min_kept_fraction=data.draw(st.one_of(
                               st.sampled_from([1.0, 1.0 / 16.0]), st.floats(1e-3, 1.0))))
        at = np.where(labels == 255, 0, labels)[:, None]
        logits = np.zeros((n, 3, h, w), np.float32)
        np.put_along_axis(logits, at, a[:, None].astype(np.float32), axis=1)
        _, grad = T.ohem_ce_loss(logits, labels, cfg)
        kept = np.take_along_axis(grad, at, axis=1)[:, 0] != 0  # p_true - 1 where kept

        valid = labels != 255
        want = valid & (np.exp(a) / (np.exp(a) + 2) < cfg.prob_threshold)
        n_valid = int(valid.sum())
        min_kept = min(math.ceil(cfg.min_kept_fraction * n_valid), n_valid)
        if want.sum() < min_kept:
            order = np.argsort(np.where(valid, a, np.inf).reshape(-1), kind="stable")
            want = np.zeros(size, bool)
            want[order[:min_kept]] = True
        np.testing.assert_array_equal(kept.reshape(-1), want.reshape(-1))

    def test_label_out_of_range(self):
        logits = np.zeros((1, 2, 1, 1), np.float32)
        with pytest.raises(ValueError):
            T.ohem_ce_loss(logits, np.array([[[3]]], np.int64), T.OhemConfig())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((1, 3, 2, 3)).astype(np.float64)
        labels = rng.integers(0, 3, (1, 2, 3)).astype(np.int64)
        cfg = T.OhemConfig(prob_threshold=0.9, min_kept_fraction=0.5)
        loss, grad = T.ohem_ce_loss(logits, labels, cfg)
        kept_before = np.abs(grad).sum(axis=1) > 0
        eps = 1e-5
        flat = logits.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp, _ = T.ohem_ce_loss(logits, labels, cfg)
            flat[j] = orig - eps
            lm, _ = T.ohem_ce_loss(logits, labels, cfg)
            flat[j] = orig
            numeric = (lp - lm) / (2 * eps)
            assert grad.reshape(-1)[j] == pytest.approx(numeric, rel=1e-3, abs=1e-7)
        # support is exactly the kept set
        assert (np.abs(grad).sum(axis=1) > 0).sum() == kept_before.sum()


def miou(pred, gt, num_classes):
    return T.iou_from_confusion(T.confusion_matrix(pred, gt, num_classes, D.IGNORE_LABEL))


class TestMiou:
    def test_perfect_prediction(self):
        gt = np.random.default_rng(0).integers(0, 3, (10, 10))
        iou, mean = miou(gt, gt, 3)
        assert mean == 1.0

    def test_disjoint_binary_masks(self):
        pred = np.array([1, 1, 0, 0])
        gt = np.array([0, 0, 1, 1])
        _, mean = miou(pred, gt, 2)
        assert mean == 0.0

    def test_hand_confusion_matrix(self):
        pred = np.array([0, 1, 0, 1])
        gt = np.array([0, 0, 1, 1])
        iou, mean = miou(pred, gt, 2)
        np.testing.assert_allclose(iou, [1 / 3, 1 / 3])
        assert mean == pytest.approx(1 / 3)

    def test_absent_classes_excluded(self):
        pred = np.array([0, 0, 1, 1])
        gt = np.array([0, 0, 1, 1])
        iou, mean = miou(pred, gt, 5)
        assert np.isnan(iou[3]) and mean == 1.0

    def test_ignore_pixels_excluded(self):
        pred = np.array([0, 1])
        gt = np.array([0, 255])
        _, mean = miou(pred, gt, 2)
        assert mean == 1.0

    def test_label_out_of_range_named(self):
        gt = np.array([0, 2, 255, -1, 7])
        with pytest.raises(ValueError, match=r"^3 label\(s\) outside \[0, 2\)$"):
            T.confusion_matrix(np.zeros(5, np.int64), gt, 2, 255)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, 64)
        gt = rng.integers(0, 4, 64)
        perm = rng.permutation(64)
        _, a = miou(pred, gt, 4)
        _, b = miou(pred[perm], gt[perm], 4)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.fixture()
def sample():
    spec = D.ShapesSpec(canvas=(48, 48), num_classes=4, seed=5)
    return D.generate(spec, 0)


class TestAugment:
    def test_identity_config_bitwise(self, sample):
        cfg = T.AugmentConfig(scale_range=(1.0, 1.0), crop=sample.mask.shape,
                              hflip_prob=0.0, brightness=0.0, contrast=0.0,
                              saturation=0.0)
        out = T.augment(sample, cfg, np.random.default_rng(0), 255)
        np.testing.assert_array_equal(out.image, sample.image)
        np.testing.assert_array_equal(out.mask, sample.mask)

    def test_double_flip_restores(self, sample):
        cfg = T.AugmentConfig(scale_range=(1.0, 1.0), crop=sample.mask.shape,
                              hflip_prob=1.0, brightness=0.0, contrast=0.0,
                              saturation=0.0)
        once = T.augment(sample, cfg, np.random.default_rng(0), 255)
        twice = T.augment(once, cfg, np.random.default_rng(0), 255)
        np.testing.assert_array_equal(twice.image, sample.image)
        np.testing.assert_array_equal(twice.mask, sample.mask)

    def test_seeded_reproducibility(self, sample):
        cfg = T.AugmentConfig(scale_range=(0.5, 1.5), crop=(32, 32), hflip_prob=0.5,
                              brightness=0.3, contrast=0.3, saturation=0.3)
        a = T.augment(sample, cfg, np.random.default_rng([9, 1]), 255)
        b = T.augment(sample, cfg, np.random.default_rng([9, 1]), 255)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    @pytest.mark.parametrize("pad_label", [255, 254])
    def test_crop_and_pad_shapes(self, sample, pad_label):
        cfg = T.AugmentConfig(scale_range=(0.4, 0.4), crop=(40, 40), hflip_prob=0.0,
                              brightness=0.0, contrast=0.0, saturation=0.0)
        out = T.augment(sample, cfg, np.random.default_rng(3), pad_label)
        assert out.image.shape == (1, 3, 40, 40)
        assert out.mask.shape == (40, 40)
        # the padded area carries the label given, and only there
        assert set(np.unique(out.mask)) - set(np.unique(sample.mask)) == {pad_label}

    def test_mask_stays_categorical(self, sample):
        cfg = T.AugmentConfig(scale_range=(0.3, 1.7), crop=(32, 32), hflip_prob=0.5,
                              brightness=0.3, contrast=0.3, saturation=0.3)
        classes = set(np.unique(sample.mask)) | {255}
        for s in range(10):
            out = T.augment(sample, cfg, np.random.default_rng(s), 255)
            assert set(np.unique(out.mask)) <= classes
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_resize_returns_legacy_memory_order(self):
        # the dataset's channels-last images; the jitter and pad-fill means sum
        # in memory order, which test_seeded_outputs_pinned depends on
        img = np.random.default_rng(5).random((1, 20, 24, 3), np.float32).transpose(0, 3, 1, 2)
        out = T.resize_image_bilinear(img, 15, 18)
        assert out.shape == (1, 3, 15, 18)
        n, c, h, w = (s // out.itemsize for s in out.strides)
        assert (c, n, h, w) == (1, 3, 3, 3 * 15)  # (w, h, n, c), c fastest
        np.testing.assert_array_equal(out, ops.resize_bilinear(img, 15, 18))

    @pytest.mark.parametrize("scale,digest", [
        (0.75, "623defaf09c954d641c6c3efdbd2828e757f948a7a860c153057a7e4014dd72f"),
        (1.25, "e60bc853fc074a2c3ab5a805843c62572c819624e0259a3cce134a8a5f2136d8"),
    ], ids=["0.75", "1.25"])
    def test_seeded_outputs_pinned(self, scale, digest):
        # digests of the resize written out in training.py before it called the
        # engine's bilinear kernel; the dataset images are not C-contiguous, and
        # the colour-jitter mean sums in the memory order the resize returns
        spec = D.ShapesSpec(canvas=(64, 64), num_classes=4, seed=7)
        cfg = T.AugmentConfig(scale_range=(scale, scale), crop=(64, 64), hflip_prob=0.5,
                              brightness=0.15, contrast=0.15, saturation=0.15)
        rng = np.random.default_rng(11)
        h = hashlib.sha256()
        for s in D.make_dataset(spec, 8):
            out = T.augment(s, cfg, rng, 255)
            h.update(out.image.tobytes())
            h.update(out.mask.tobytes())
        assert h.hexdigest() == digest


class TestTrainLoop:
    def make_setup(self, n_samples=2, canvas=(32, 32), classes=3):
        spec = D.ShapesSpec(canvas=canvas, num_classes=classes, size_range=(8, 14), seed=2)
        net_cfg = N.preset("tiny", num_classes=classes)
        params = N.build(net_cfg, rng_seed=0)
        return D.make_dataset(spec, n_samples), net_cfg, params

    def test_one_iteration_changes_parameters(self):
        ds, net_cfg, params = self.make_setup()
        before = {n: a.copy() for n, a in params.items()}
        cfg = T.TrainConfig(iters=1, batch_size=2, seed=0, log_every=1)
        T.train_loop(params, net_cfg, ds, cfg)
        assert any(not np.array_equal(a, before[n]) for n, a in params.items())

    @pytest.mark.parametrize("field, value", [
        ("iters", -1), ("batch_size", 0), ("log_every", -1), ("eval_every", -1),
        ("lr_base", -0.1), ("lr_base", math.nan), ("lr_base", math.inf),
        ("weight_decay", -1e-4), ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", math.nan)])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            T.TrainConfig(**{field: value})

    def test_zero_iterations_ends_with_the_validation_record(self):
        ds, net_cfg, params = self.make_setup()
        before = {n: a.copy() for n, a in [*params.items(), *params.stat_items()]}
        log = T.train_loop(params, net_cfg, ds, T.TrainConfig(iters=0), val_dataset=ds)
        assert [(e["iter"], e["lr"], e["loss"]) for e in log] == [(0, 0.0, None)]
        assert log[0]["eval"] == T.evaluate(params, net_cfg, ds, 255)
        for n, a in [*params.items(), *params.stat_items()]:
            np.testing.assert_array_equal(a, before[n])

    def test_augment_pads_with_the_ohem_ignore_label(self):
        # a crop larger than the resampled canvas pads every mask, with 254
        ds, net_cfg, params = self.make_setup(canvas=(64, 64))
        cfg = T.TrainConfig(iters=3, batch_size=2, log_every=1,
                            ohem=T.OhemConfig(ignore_label=254),
                            augment=T.AugmentConfig(scale_range=(0.5, 0.5), crop=(64, 64)))
        log = T.train_loop(params, net_cfg, ds, cfg)
        assert len(log) == 3 and all(np.isfinite(e["loss"]) for e in log)

    def test_empty_dataset_rejected(self):
        _, net_cfg, params = self.make_setup()
        with pytest.raises(ValueError):
            T.train_loop(params, net_cfg, [], T.TrainConfig(iters=1))

    def test_seeded_runs_identical_logs(self):
        ds, net_cfg, _ = self.make_setup()
        logs = []
        for _ in range(2):
            params = N.build(net_cfg, rng_seed=0)
            cfg = T.TrainConfig(iters=12, batch_size=2, seed=3, log_every=3)
            logs.append(T.train_loop(params, net_cfg, ds, cfg))
        assert logs[0] == logs[1]

    def test_single_sample_overfit(self):
        # loss drops below 0.05 within 200 iterations on one rectangle sample
        spec = D.ShapesSpec(canvas=(64, 64), num_classes=2, shapes_per_image=(1, 1),
                            size_range=(24, 24), noise=0.02, seed=11)
        ds = [D.generate(spec, 0)]
        net_cfg = N.preset("tiny", num_classes=2)
        params = N.build(net_cfg, rng_seed=0)
        cfg = T.TrainConfig(iters=200, batch_size=1, seed=0, lr_base=0.2, log_every=1)
        log = T.train_loop(params, net_cfg, ds, cfg)
        losses = [e["loss"] for e in log if e["loss"] is not None]
        assert min(losses) < 0.05
        assert losses[-1] < losses[0]
        rep = T.evaluate(params, net_cfg, ds, 255)
        assert rep["miou"] >= 0.95

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_loss_aborts(self):
        ds, net_cfg, params = self.make_setup()
        cfg = T.TrainConfig(iters=50, batch_size=2, seed=0, lr_base=1e4, log_every=1)
        with pytest.raises(NumericError):
            T.train_loop(params, net_cfg, ds, cfg)

    def test_metric_log_jsonl(self, tmp_path):
        ds, net_cfg, params = self.make_setup()
        path = tmp_path / "metrics.jsonl"
        cfg = T.TrainConfig(iters=4, batch_size=2, seed=0, log_every=2)
        T.train_loop(params, net_cfg, ds, cfg, val_dataset=ds, log_path=path)
        import json
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all("iter" in e and "lr" in e for e in lines)
        assert "miou" in lines[-1]

    @pytest.mark.parametrize("log_every, eval_every, iters, want", [
        (4, 3, 6, [(0, False), (3, True), (4, False), (5, False)]),
        (0, 2, 5, [(2, True), (4, True)]),  # no log lines, evaluation still on
        (2, 2, 5, [(0, False), (2, True), (4, True)]),
    ])
    def test_every_eval_iteration_is_recorded(self, log_every, eval_every, iters, want):
        ds, net_cfg, params = self.make_setup()
        cfg = T.TrainConfig(iters=iters, batch_size=2, log_every=log_every,
                            eval_every=eval_every)
        log = T.train_loop(params, net_cfg, ds, cfg, val_dataset=ds)
        assert [(e["iter"], "miou" in e) for e in log[:-1]] == want
        assert log[-1]["iter"] == iters and "eval" in log[-1]


class TestBatchProcess:
    """At more than one worker a forked child assembles batches 1, 2, ...
    ahead of training; every batch is the one the inline path makes."""

    @pytest.fixture
    def desk(self):
        rc = cli.parse_run_config(cli.DESK_PRESET)
        spec = D.ShapesSpec(canvas=rc.data.canvas, num_classes=rc.num_classes,
                            shapes_per_image=rc.data.shapes_per_image,
                            size_range=rc.data.size_range, noise=rc.data.noise, seed=5)
        net_cfg = N.preset(rc.variant, num_classes=rc.num_classes)
        try:
            yield (D.make_dataset(spec, 16), net_cfg,
                   replace(rc.train, iters=20, log_every=1, seed=5))
        finally:
            ops.set_workers(ops.DEFAULT_WORKERS)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children that os.fork makes from now on."""
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @staticmethod
    def assert_reaped(pid):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_two_workers_train_bitwise_as_one(self, desk, forks):
        ds, net_cfg, cfg = desk
        trained = []
        for n in (1, 2):
            ops.set_workers(n)
            params = N.build(net_cfg, rng_seed=0)
            log = T.train_loop(params, net_cfg, ds, cfg)
            trained.append((log, [a.tobytes() for _, a in [*params.items(),
                                                           *params.stat_items()]]))
        assert trained[0] == trained[1]
        assert len(forks) == 1  # at 2 workers only
        self.assert_reaped(forks[0])

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_augment_error_raised_at_its_batch(self, desk, forks, monkeypatch, k):
        # planted before the fork, so the child runs it too; batch 0 is the parent's
        ds, net_cfg, cfg = desk
        augment = T.augment
        planted_rng = np.random.default_rng([cfg.seed, k, 0]).bit_generator.state

        def planted(sample, acfg, rng, ignore_label):
            if rng.bit_generator.state == planted_rng:
                raise ValueError(f"planted at batch {k}")
            return augment(sample, acfg, rng, ignore_label)

        monkeypatch.setattr(T, "augment", planted)
        ops.set_workers(2)
        done = []
        with pytest.raises(ValueError, match=f"^planted at batch {k}$"):
            T.train_loop(N.build(net_cfg, rng_seed=0), net_cfg, ds, cfg,
                         callbacks=[lambda e: done.append(e["iter"])])
        assert done == list(range(k))
        assert len(forks) == 1
        self.assert_reaped(forks[0])

    def test_child_that_dies_is_an_error_at_its_batch(self, desk, forks, monkeypatch):
        ds, net_cfg, cfg = desk
        augment, parent = T.augment, os.getpid()

        def dying(sample, acfg, rng, ignore_label):
            if os.getpid() != parent:  # the child, on its first batch
                os._exit(7)
            return augment(sample, acfg, rng, ignore_label)

        monkeypatch.setattr(T, "augment", dying)
        ops.set_workers(2)
        done = []
        with pytest.raises(ChildProcessError, match="batch process ended"):
            T.train_loop(N.build(net_cfg, rng_seed=0), net_cfg, ds, cfg,
                         callbacks=[lambda e: done.append(e["iter"])])
        assert done == [0]
        self.assert_reaped(forks[0])

    def test_interrupt_leaves_no_child(self, desk, forks):
        ds, net_cfg, cfg = desk
        ops.set_workers(2)

        def interrupt(entry):
            if entry["iter"] == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            T.train_loop(N.build(net_cfg, rng_seed=0), net_cfg, ds, cfg, callbacks=[interrupt])
        assert len(forks) == 1
        self.assert_reaped(forks[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_samples_are_rendered_where_they_are_used(self, desk, monkeypatch, workers):
        # at 2 workers the batch process renders what batches 1, 2, ... use and
        # this process only batch 0 and the validation samples; at 1 worker
        # this process renders each sample once, however often it is read
        ds, net_cfg, cfg = desk
        val = D.make_dataset(ds.spec, 4, start=len(ds))
        generate, parent, rendered = D.generate, os.getpid(), []

        def counting(spec, index):
            if os.getpid() == parent:
                rendered.append(index)
            return generate(spec, index)

        monkeypatch.setattr(D, "generate", counting)
        ops.set_workers(workers)
        cfg = replace(cfg, eval_every=7)
        T.train_loop(N.build(net_cfg, rng_seed=0), net_cfg, ds, cfg, val_dataset=val)
        batches = list(T._batch_order(len(ds), cfg))
        used = batches[0] if workers == 2 else [i for b in batches for i in b]
        assert sorted(rendered) == sorted(set(used) | set(range(len(ds), len(ds) + 4)))

    @pytest.mark.parametrize("workers, iters", [(1, 3), (2, 1)])
    def test_one_worker_or_one_batch_never_forks(self, desk, monkeypatch, workers, iters):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        ds, net_cfg, cfg = desk
        ops.set_workers(workers)
        log = T.train_loop(N.build(net_cfg, rng_seed=0), net_cfg, ds, replace(cfg, iters=iters))
        assert [e["iter"] for e in log] == list(range(iters))
