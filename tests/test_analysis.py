"""Receptive-field analyses: composition rule, ERF, probe weight statistics."""

import json

import numpy as np
import pytest

from dwrseg import analysis as A
from dwrseg import data as D
from dwrseg import network as N
from dwrseg import training as T
from dwrseg import engine as E
from dwrseg.engine import ConvSpec, Tape


class TestTheoreticalRf:
    @pytest.mark.parametrize("dilation,expected", [(1, 3), (3, 7), (5, 11)])
    def test_single_dilated_conv(self, dilation, expected):
        assert A.rf_step(1, 1, 3, 1, dilation) == (expected, 1)

    def test_two_stacked_convs(self):
        assert A.rf_step(*A.rf_step(1, 1, 3), 3) == (5, 1)

    def test_stride_doubles_jump(self):
        rf, jump, jumps = 1, 1, []
        for stride in (2, 2, 1):
            rf, jump = A.rf_step(rf, jump, 3, stride)
            jumps.append(jump)
        assert jumps == [2, 4, 4]

    def test_monotone_under_appending(self):
        layers = [("a", 3, 2, 1), ("b", 1, 1, 1), ("c", 3, 1, 5), ("d", 5, 2, 1)]
        rf, jump, rfs = 1, 1, []
        for _, kernel, stride, dilation in layers:
            rf, jump = A.rf_step(rf, jump, kernel, stride, dilation)
            rfs.append(rf)
        assert all(x <= y for x, y in zip(rfs, rfs[1:]))

    def test_full_b_stage4_widest_path_pinned(self):
        # hand composition of the rule along the d=5 branch path:
        # stem 3/3/7/15, s2 first 23 then +16/block (7 blocks -> 119),
        # s3: 135/231, 263/359, 391/487, s4: 519/839, 903/1223, 1287/1607
        report = A.network_rf_report(N.preset("B"))
        assert report["final_rf"] == 1607
        assert report["final_jump"] == 32
        assert report["branches"]["s4.2"] == {
            "b0(d=1)": 1351, "b1(d=3)": 1479, "b2(d=5)": 1607}
        trace = {row["layer"]: row["rf"] for row in report["trace"]}
        assert trace["stem.fuse"] == 15
        assert trace["s2.0.rr.conv"] == 23
        assert trace["s3.0.sr.b1"] == 231

    def test_branch_reporting_present_for_all_dwr_blocks(self):
        report = A.network_rf_report(N.preset("B"))
        assert set(report["branches"]) == {f"s3.{i}" for i in range(3)} | \
            {f"s4.{i}" for i in range(3)}


def single_conv_tape(x, w, spec):
    tape = Tape()
    xv = tape.leaf(x)
    out = tape.conv2d(xv, tape.leaf(w), None, spec)
    return tape, xv, out


class TestErf:
    def test_single_conv_support_exactly_3x3(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 1, 9, 9), dtype=np.float32)
        w = (rng.random((1, 1, 3, 3), dtype=np.float32) + 0.1)
        tape, xv, out = single_conv_tape(x, w, ConvSpec(1, 1, 3, padding=1))
        heat = A.erf_from_tape(tape, out, xv, 4, 4)
        nz = np.argwhere(heat > 0)
        assert nz.min(axis=0).tolist() == [3, 3]
        assert nz.max(axis=0).tolist() == [5, 5]

    def test_center_out_of_range(self):
        x = np.zeros((1, 1, 4, 4), np.float32)
        tape, xv, out = single_conv_tape(x, np.ones((1, 1, 3, 3), np.float32),
                                         ConvSpec(1, 1, 3, padding=1))
        with pytest.raises(E.ShapeError):
            A.erf_from_tape(tape, out, xv, 9, 0)

    def test_two_layer_all_ones_equals_path_counts(self):
        # linear all-ones convs: ERF value = number of tap paths to the unit
        x = np.random.default_rng(1).random((1, 1, 11, 11), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        spec = ConvSpec(1, 1, 3, padding=1)
        tape = Tape()
        xv = tape.leaf(x)
        out = tape.conv2d(tape.conv2d(xv, tape.leaf(w), None, spec),
                          tape.leaf(w.copy()), None, spec)
        heat = A.erf_from_tape(tape, out, xv, 5, 5)
        counts = np.zeros((11, 11))
        for d1y in (-1, 0, 1):
            for d1x in (-1, 0, 1):
                for d2y in (-1, 0, 1):
                    for d2x in (-1, 0, 1):
                        counts[5 + d1y + d2y, 5 + d1x + d2x] += 1.0
        np.testing.assert_allclose(heat, counts, atol=1e-4)

    def test_erf_inside_theoretical_window_full_network(self):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=3)
        x = np.random.default_rng(2).random((1, 3, 64, 64), dtype=np.float32)
        report = A.network_rf_report(cfg)
        for stage, unit in (("s2", (3, 2)), ("s3", (1, 2)), ("s4", (1, 1))):
            heat = A.erf_map(params, cfg, x, unit, stage=stage)
            idx = [row["layer"] for row in report["trace"]].index(
                {"s2": "s2.1.proj", "s3": "s3.1.merge", "s4": "s4.1.merge"}[stage])
            rf, jump = report["trace"][idx]["rf"], report["trace"][idx]["jump"]
            lo_y, hi_y = A.rf_window(rf, jump, unit[0], 64)
            lo_x, hi_x = A.rf_window(rf, jump, unit[1], 64)
            outside = heat.copy()
            outside[lo_y:hi_y + 1, lo_x:hi_x + 1] = 0.0
            assert not outside.any(), f"{stage}: energy outside theoretical window"
            assert heat[lo_y:hi_y + 1, lo_x:hi_x + 1].sum() > 0


def train_probe_briefly(iters=40):
    cfg = N.preset("tiny", num_classes=4, probe=True)
    params = N.build(cfg, rng_seed=1)
    spec = D.ShapesSpec(canvas=(32, 32), num_classes=4, size_range=(8, 14), seed=6)
    ds = D.make_dataset(spec, 16)
    T.train_loop(params, cfg, ds, T.TrainConfig(iters=iters, batch_size=2, seed=0,
                                                log_every=0))
    return cfg, params


class TestBranchWeightStats:
    def test_probe_variant_builds_and_runs(self):
        cfg = N.preset("tiny", num_classes=4, probe=True)
        params = N.build(cfg, rng_seed=0)
        x = np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32)
        logits, _ = N.infer(params, cfg, x)
        assert logits.shape == (1, 4, 32, 32)

    def test_uniform_weights_identical_pmfs(self):
        cfg = N.preset("tiny", num_classes=4, probe=True)
        params = N.build(cfg, rng_seed=0)
        for name in params.names():
            if name.endswith("merge.weight"):
                arr = params[name]
                params.set_(name, np.full(arr.shape, 0.25, np.float32))
        stats = A.branch_weight_stats(params, cfg, bins=8)
        for s in stats:
            for pmf in s.pmf[1:]:
                np.testing.assert_allclose(pmf, s.pmf[0], atol=1e-12)

    def test_pmf_cdf_invariants_after_probe_training(self):
        cfg, params = train_probe_briefly()
        stats = A.branch_weight_stats(params, cfg, bins=16)
        assert [s.stage for s in stats] == ["s2", "s3", "s4"]
        for s in stats:
            assert s.dilations == (1, 3, 5)
            for pmf, cdf in zip(s.pmf, s.cdf):
                assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
                assert (np.diff(cdf) >= -1e-12).all()
                assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_counts_equal_merge_width_product(self):
        cfg, params = train_probe_briefly(iters=2)
        stats = A.branch_weight_stats(params, cfg, bins=4)
        for s, stage in zip(stats, cfg.stages):
            assert all(c == stage.repeats * stage.channels * stage.rr_width for c in s.counts)

    def test_stats_serialize_and_reload(self, tmp_path):
        cfg, params = train_probe_briefly(iters=4)
        stats = A.branch_weight_stats(params, cfg, bins=6)
        doc = [row for s in stats for row in s.to_json()]
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back == doc

    def test_non_probe_network_rejected(self):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=0)
        with pytest.raises(E.ShapeError):
            A.branch_weight_stats(params, cfg)


class TestHeatmaps:
    def test_rr_bytes_at_or_above_mid_gray(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=2)
        x = np.random.default_rng(5).random((1, 3, 32, 32), dtype=np.float32)
        result = A.dump_feature_heatmaps(params, cfg, x, "s3.0", tmp_path)
        assert (result["rr"] >= 0).all()
        rr_pgms = [f for f in result["files"] if ".rr.c" in f]
        assert rr_pgms
        for f in rr_pgms:
            assert D.read_pgm(f).min() >= 128

    def test_zero_net_zero_input_flat_maps(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=0)
        for name, arr in params.items():
            if not name.endswith((".gamma",)):
                params.set_(name, np.zeros_like(arr))
        x = np.zeros((1, 3, 32, 32), np.float32)
        result = A.dump_feature_heatmaps(params, cfg, x, "s4.0", tmp_path)
        for f in result["files"]:
            if f.endswith(".pgm"):
                assert (D.read_pgm(f) == 128).all()

    def test_nt_reloads_bitwise(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=2)
        x = np.random.default_rng(6).random((1, 3, 32, 32), dtype=np.float32)
        result = A.dump_feature_heatmaps(params, cfg, x, "s3.1", tmp_path)
        from dwrseg.engine import read_nt
        np.testing.assert_array_equal(read_nt(tmp_path / "s3.1.rr.nt"), result["rr"])
        np.testing.assert_array_equal(read_nt(tmp_path / "s3.1.sr.nt"), result["sr"])

    def test_sir_block_exports_rr_only(self, tmp_path):
        # SIR has no depthwise filtering step, so only the region map exists
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=2)
        x = np.random.default_rng(6).random((1, 3, 32, 32), dtype=np.float32)
        result = A.dump_feature_heatmaps(params, cfg, x, "s2.1", tmp_path)
        assert "rr" in result and "sr" not in result

    def test_unknown_block_rejected(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        params = N.build(cfg, rng_seed=2)
        with pytest.raises(E.ShapeError):
            A.dump_feature_heatmaps(params, cfg, np.zeros((1, 3, 32, 32), np.float32),
                                    "s9.9", tmp_path)
