"""Command-line interface: every subcommand, exit codes, artifact layout."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwrseg import data as D
from dwrseg import analysis, network, training
from dwrseg.cli import (
    DESK_PRESET,
    FULL_PRESET,
    ConfigError,
    DataSection,
    RunConfig,
    blas_threads,
    build_parser,
    main,
    parse_run_config,
    set_blas_threads,
)
from dwrseg.engine import FormatError, ops


def write_config(tmp_path, **overrides):
    doc = {
        "variant": "tiny",
        "num_classes": 3,
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "data": {"kind": "shapes", "canvas": [32, 32], "shapes_per_image": [1, 2],
                 "size_range": [8, 14], "noise": 0.02, "seed": 5,
                 "train_count": 8, "val_count": 4},
        "train": {"iters": 4, "batch": 2, "lr": 0.05, "log_every": 2},
        "ohem": {},
        "augment": None,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc


class TestConfigParsing:
    def test_desk_preset_parses(self):
        # every field, written out: the preset is built from the config
        # defaults, so a changed default must fail here
        cfg = parse_run_config(json.loads(json.dumps(DESK_PRESET)))
        assert cfg == RunConfig(
            variant="tiny", num_classes=4, out_dir="runs/tiny",
            data=DataSection(kind="shapes", dir=None, canvas=(64, 64), shapes_per_image=(1, 3),
                             size_range=(12, 28), noise=0.04, seed=7, train_count=256,
                             val_count=64),
            train=training.TrainConfig(
                iters=2000, batch_size=4, seed=0, lr_base=0.02, momentum=0.9,
                weight_decay=0.0005, poly_power=0.9, log_every=50, eval_every=0,
                ohem=training.OhemConfig(prob_threshold=0.7, min_kept_fraction=0.0625,
                                         ignore_label=255),
                augment=training.AugmentConfig(scale_range=(0.75, 1.25), crop=(64, 64),
                                               hflip_prob=0.5, brightness=0.15,
                                               contrast=0.15, saturation=0.15)))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"variant": "tiny", "banana": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"train": {"iters": 1, "warmup_iters": 5}})

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"variant": "XXL"})

    def test_bad_ohem_threshold_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"ohem": {"prob_threshold": 1.5}})

    @pytest.mark.parametrize("doc", [
        [], {"data": 5}, {"augment": 1}, {"train": {"iters": [1]}},
        {"train": {"iters": True}}, {"train": {"lr": "0.05"}},
        {"data": {"canvas": [64, "64"]}}, {"data": {"kind": "manifest", "dir": 5}},
        {"augment": {"scale_range": [0.5, None]}}, {"seed": "x"},
        {"augment": {"crop": [1, 2, 3]}}])
    def test_wrong_json_type_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    @pytest.mark.parametrize("doc,key", [
        ({"variant": 10 ** 5000}, "config.variant"),
        ({"data": {"dir": 10 ** 5000}}, "config.data.dir"),
        ({"augment": {"scale_range": [1, -10 ** 5000]}}, "config.augment.scale_range")])
    def test_overlong_integer_named_in_config_error(self, doc, key):
        # repr of an integer of more than 4300 digits raises ValueError
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got .*<int of 16610 bits>"):
            parse_run_config(doc)

    def test_empty_config_is_dataclass_defaults(self):
        cfg = parse_run_config({})
        assert cfg == RunConfig()
        assert cfg.train == training.TrainConfig()
        assert cfg.train.ohem == training.OhemConfig() and cfg.train.augment is None

    def test_full_preset_values_land_on_fields(self):
        cfg = parse_run_config(json.loads(json.dumps(FULL_PRESET)))
        assert (cfg.variant, cfg.num_classes, cfg.out_dir) == ("B", 19, "runs/full")
        assert cfg.train.seed == FULL_PRESET["seed"]
        aliases = {"batch": "batch_size", "lr": "lr_base"}
        for section, target in (("data", cfg.data), ("train", cfg.train),
                                ("ohem", cfg.train.ohem), ("augment", cfg.train.augment)):
            for key, value in FULL_PRESET[section].items():
                want = tuple(value) if isinstance(value, list) else value
                assert getattr(target, aliases.get(key, key)) == want, key


class TestCount:
    def test_count_b_json(self, capsys):
        assert main(["count", "B", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == 2_658_131
        assert abs(doc["param_deviation_pct"]) <= 15.0
        assert abs(doc["mac_deviation_pct"]) <= 10.0
        assert doc["param_breakdown"]["head"] > 0

    def test_count_table_has_targets(self, capsys):
        assert main(["count", "L"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "reference" in out and "%" in out


class TestTrainEvalPredict:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg_path, doc = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint.dwck").exists()
        assert (run / "metrics.jsonl").exists()
        assert (run / "eval.json").exists()
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert all("iter" in json.loads(ln) for ln in lines)
        doc = json.loads(capsys.readouterr().out)
        assert doc["blas_threads"] == blas_threads() and doc["workers"] == ops.workers()

    def test_seeded_train_bitwise_at_any_threads(self, tmp_path):
        # a short desk run per --threads count, each in its own process; at
        # one BLAS thread the count only sets the band workers
        doc = json.loads(json.dumps(DESK_PRESET))
        doc["train"]["log_every"] = 2
        config = tmp_path / "desk.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        path = [str(Path(network.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        counts = ("1", "2", "4")
        runs = [subprocess.Popen([sys.executable, "-m", "dwrseg.cli", "--threads", n, "train",
                                  "--config", str(config), "--iters", "10",
                                  "--out", str(tmp_path / n)],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for n in counts]
        try:
            outs = [run.communicate(timeout=300) for run in runs]
        finally:
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0, 0], [err for _, err in outs]
        for name in ("metrics.jsonl", "eval.json", "checkpoint.dwck"):
            first, *others = [(tmp_path / n / name).read_bytes() for n in counts]
            assert all(other == first for other in others), name
        assert [json.loads(out)["workers"] for out, _ in outs] == [1, 2, 4]

    def test_iters_zero_writes_untrained_checkpoint(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--iters", "0"]) == 0
        assert (tmp_path / "run" / "checkpoint.dwck").exists()
        assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""

    @pytest.mark.parametrize("iters", ["4", "0"])
    def test_train_evaluates_validation_once(self, tmp_path, monkeypatch, iters):
        calls = []
        evaluate = training.evaluate

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate", counting)
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--iters", iters]) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "run" / "eval.json").read_text())
        assert report["num_samples"] == 4

    def test_identical_seed_identical_metrics(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "r2" / "metrics.jsonl").read_bytes()

    def test_eval_report_schema(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.dwck"
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"miou", "per_class_iou", "pixel_accuracy",
                            "confusion_matrix", "num_samples"}
        assert len(doc["per_class_iou"]) == 3

    def test_eval_overfit_sample_high_miou(self, tmp_path, capsys):
        # train to overfit one rectangle sample, then eval on that same sample
        spec = D.ShapesSpec(canvas=(64, 64), num_classes=2, shapes_per_image=(1, 1),
                            size_range=(24, 24), noise=0.02, seed=11)
        s = D.generate(spec, 0)
        ddir = tmp_path / "ds"
        ddir.mkdir()
        D.write_ppm(ddir / "s0.ppm", s.image)
        D.write_pgm(ddir / "s0_mask.pgm", s.mask)
        cfg_path, _ = write_config(
            tmp_path, num_classes=2,
            data={"kind": "shapes", "canvas": [64, 64], "shapes_per_image": [1, 1],
                  "size_range": [24, 24], "noise": 0.02, "seed": 11,
                  "train_count": 1, "val_count": 1},
            train={"iters": 200, "batch": 1, "lr": 0.2, "log_every": 50})
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.dwck"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["miou"] >= 0.95

    def test_eval_config_reads_the_ignore_label_train_used(self, tmp_path, capsys):
        # masks whose top rows carry 254, the run's ignore label in place of 255
        spec = D.ShapesSpec(canvas=(32, 32), num_classes=4, seed=6)
        ddir = tmp_path / "ds"
        ddir.mkdir()
        for i in range(5):
            s = D.generate(spec, i)
            s.mask[:4] = 254
            D.write_ppm(ddir / f"s{i}.ppm", s.image)
            D.write_pgm(ddir / f"s{i}_mask.pgm", s.mask)
        cfg_path, _ = write_config(tmp_path, num_classes=4, ohem={"ignore_label": 254},
                                   data={"kind": "manifest", "dir": str(ddir)})
        assert main(["train", "--config", str(cfg_path), "--iters", "2"]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.dwck"),
                     "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "run" / "eval.json").read_bytes()

    def test_eval_data_of_any_size_counts_what_predict_labels(self, tmp_path, capsys):
        # sizes off the stride of 32: eval and predict share one labels path
        net_cfg = network.preset("tiny", num_classes=4)
        ckpt = tmp_path / "c.dwck"
        network.save_checkpoint(network.build(net_cfg, rng_seed=1), net_cfg, ckpt)
        ddir = tmp_path / "ds"
        ddir.mkdir()
        masks = {}
        for stem, canvas in (("a", (40, 40)), ("b", (40, 44))):
            s = D.generate(D.ShapesSpec(canvas=canvas, num_classes=4, seed=2), 0)
            D.write_ppm(ddir / f"{stem}.ppm", s.image)
            D.write_pgm(ddir / f"{stem}_mask.pgm", s.mask)
            masks[stem] = s.mask
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]) == 0
        report = json.loads(capsys.readouterr().out)
        cm = np.zeros((4, 4), np.int64)
        for stem, mask in masks.items():
            out = tmp_path / f"{stem}.pgm"
            assert main(["predict", "--checkpoint", str(ckpt), "--image",
                         str(ddir / f"{stem}.ppm"), "--out", str(out)]) == 0
            cm += training.confusion_matrix(D.read_pgm(out), mask, 4, D.IGNORE_LABEL)
        assert report["num_samples"] == 2
        assert report["confusion_matrix"] == cm.tolist()

    def test_train_crops_a_canvas_off_the_stride(self, tmp_path, capsys):
        # 40x40 images train through a 64x64 crop and validate at 40x40
        doc = json.loads(json.dumps(DESK_PRESET))
        doc["data"]["canvas"] = [40, 40]
        doc["augment"]["crop"] = [64, 64]
        config = tmp_path / "desk.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--threads", "1", "train", "--config", str(config), "--iters", "2",
                     "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "checkpoint.dwck").exists()
        report = json.loads((tmp_path / "run" / "eval.json").read_text())
        assert report["num_samples"] == 64

    def test_predict_round_trip(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.dwck"
        spec = D.ShapesSpec(canvas=(40, 52), num_classes=3, seed=9)
        D.write_ppm(tmp_path / "in.ppm", D.generate(spec, 0).image)
        out1, out2 = tmp_path / "p1.pgm", tmp_path / "p2.pgm"
        assert main(["predict", "--checkpoint", str(ckpt), "--image",
                     str(tmp_path / "in.ppm"), "--out", str(out1)]) == 0
        main(["predict", "--checkpoint", str(ckpt), "--image",
              str(tmp_path / "in.ppm"), "--out", str(out2)])
        pred = D.read_pgm(out1)
        assert pred.shape == (40, 52)          # output dims equal input dims
        assert pred.max() < 3                   # values < num_classes
        assert out1.read_bytes() == out2.read_bytes()  # deterministic


class TestBenchAnalyze:
    def test_bench_tiny(self, capsys):
        assert main(["bench", "tiny", "64", "64", "--classes", "4",
                     "--warmup", "1", "--iters", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["samples_s"]) == 3 and doc["fps"] > 0 and doc["peak_mb"] > 0
        assert isinstance(doc["minor_faults_per_iter"], float) and doc["minor_faults_per_iter"] >= 0
        assert isinstance(doc["system_s_per_iter"], float) and doc["system_s_per_iter"] >= 0
        assert isinstance(doc["max_rss_mb"], float) and doc["max_rss_mb"] > 0
        assert doc["mallopt"] == dict(ops.MALLOPT)
        assert all(isinstance(rc, int) for rc in doc["mallopt"].values())

    def test_threads_option_sets_blas_workers(self, capsys):
        # --threads sets the band workers; BLAS stays at one thread
        try:
            set_blas_threads(2)
            assert main(["--threads", "2", "bench", "tiny", "64", "64", "--classes", "4",
                         "--warmup", "0", "--iters", "1"]) == 0
            captured = capsys.readouterr()
            doc = json.loads(captured.out)
            assert doc["workers"] == 2 and doc["blas_threads"] in (1, None)
            if blas_threads() is None:  # no OpenBLAS thread API: said so, not skipped
                assert "warning: cannot set BLAS threads to 1" in captured.err
        finally:
            ops.set_workers(ops.DEFAULT_WORKERS)
            set_blas_threads(1)
        assert main(["bench", "tiny", "64", "64", "--classes", "4",
                     "--warmup", "0", "--iters", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workers"] == ops.DEFAULT_WORKERS and doc["blas_threads"] in (1, None)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        assert main(["--threads", threads, "count", "tiny"]) == 2
        assert capsys.readouterr().err.startswith("error: worker count must be ")

    def test_analyze_rf(self, capsys):
        assert main(["analyze", "rf", "--variant", "B", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["final_rf"] == 1607

    def test_analyze_erf_weights_heatmaps(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, num_classes=4,
                                   data={"kind": "shapes", "canvas": [32, 32],
                                         "train_count": 4, "val_count": 2},
                                   train={"iters": 2, "batch": 2, "log_every": 1})
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        ckpt = str(tmp_path / "run" / "checkpoint.dwck")

        assert main(["analyze", "erf", "--checkpoint", ckpt, "--stage", "s3",
                     "--out", str(tmp_path / "erf.nt")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (tmp_path / "erf.nt").exists() and (tmp_path / "erf.pgm").exists()
        assert doc["support_bbox"]

        assert main(["analyze", "heatmaps", "--checkpoint", ckpt, "--block", "s3.0",
                     "--out", str(tmp_path / "maps")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["files"]

        # weights analysis needs a probe checkpoint
        assert main(["analyze", "weights", "--checkpoint", ckpt]) == 2
        capsys.readouterr()

    def test_erf_default_center_is_the_stage_taps(self, tmp_path, capsys):
        # a 64x64 image: the s2, s3 and s4 taps are 8x8, 4x4 and 2x2
        net_cfg = network.preset("tiny", num_classes=3)
        ckpt, image = tmp_path / "c.dwck", tmp_path / "a.ppm"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        D.write_ppm(image, D.generate(D.ShapesSpec(canvas=(64, 64), num_classes=3), 0).image)
        centers = {}
        for stage in ("s2", "s3", "s4"):
            assert main(["analyze", "erf", "--checkpoint", str(ckpt), "--image", str(image),
                         "--stage", stage, "--out", str(tmp_path / f"{stage}.nt")]) == 0
            centers[stage] = json.loads(capsys.readouterr().out)["center"]
        assert centers == {"s2": [4, 4], "s3": [2, 2], "s4": [1, 1]}

    def test_analyze_weights_on_probe_checkpoint(self, tmp_path, capsys):
        from dwrseg import network as N
        cfg = N.preset("tiny", num_classes=4, probe=True)
        params = N.build(cfg, rng_seed=0)
        ckpt = tmp_path / "probe.dwck"
        N.save_checkpoint(params, cfg, ckpt)
        assert main(["analyze", "weights", "--checkpoint", str(ckpt), "--bins", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {row["stage"] for row in doc} == {"s2", "s3", "s4"}
        for row in doc:
            assert sum(row["pmf"]) == pytest.approx(1.0, abs=1e-9)


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_eval_empty_data_dir_exit_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, train={"iters": 0})
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        ckpt = tmp_path / "run" / "checkpoint.dwck"
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(empty)]) == 2

    def test_eval_label_out_of_range_exit_2(self, tmp_path, capsys):
        net_cfg = network.preset("tiny", num_classes=4)
        ckpt = tmp_path / "c.dwck"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        ddir = tmp_path / "ds"
        ddir.mkdir()
        s = D.generate(D.ShapesSpec(canvas=(32, 32), num_classes=4, seed=4), 0)
        s.mask[0, :5] = 7  # a label that is neither a class nor the ignore label
        D.write_ppm(ddir / "a.ppm", s.image)
        D.write_pgm(ddir / "a_mask.pgm", s.mask)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]) == 2
        assert "error: 5 label(s) outside [0, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("orphan", ["orphan.ppm", "orphan_mask.pgm"])
    def test_eval_unpaired_file_exit_2(self, tmp_path, capsys, orphan):
        cfg_path, _ = write_config(tmp_path, train={"iters": 0})
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        spec = D.ShapesSpec(canvas=(32, 32), num_classes=3, seed=4)
        ddir = tmp_path / "ds"
        ddir.mkdir()
        for i, stem in enumerate(("a", "b", "orphan")):
            s = D.generate(spec, i)
            if stem != "orphan" or orphan.endswith(".ppm"):
                D.write_ppm(ddir / f"{stem}.ppm", s.image)
            if stem != "orphan" or orphan.endswith(".pgm"):
                D.write_pgm(ddir / f"{stem}_mask.pgm", s.mask)
        ckpt = tmp_path / "run" / "checkpoint.dwck"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unpaired files in {ddir}") and orphan in err

    @pytest.mark.parametrize("make_dir", [True, False], ids=["empty", "missing"])
    def test_train_without_pairs_exit_2_before_out_dir(self, tmp_path, capsys, make_dir):
        data_dir = tmp_path / "data"
        if make_dir:
            data_dir.mkdir()
        cfg_path, _ = write_config(tmp_path, data={"kind": "manifest", "dir": str(data_dir)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"no image/mask pairs found in {data_dir}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        pytest.param({"augment": {"crop": [40, 40]}}, id="crop"),
        pytest.param({"data": {"canvas": [48, 48]}}, id="canvas")])
    def test_train_input_off_the_stride_exit_2_before_out_dir(self, tmp_path, capsys, overrides):
        cfg_path, _ = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "must be divisible by 32" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="canvas"),
        pytest.param({"data": {"kind": "shapes", "canvas": [64, 64], "train_count": 8,
                               "val_count": 4},
                      "augment": {"crop": [32, 32]}}, id="crop")])
    def test_batch_1_of_32x32_exit_2_before_out_dir(self, tmp_path, capsys, overrides):
        # the 1/32-scale maps are 1x1: one value per channel for train-mode BN
        cfg_path, _ = write_config(tmp_path, **overrides,
                                   train={"iters": 2, "batch": 1, "log_every": 1})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "batchnorm train mode needs n*h*w >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_images_of_two_sizes_without_augment_exit_2_before_out_dir(
            self, tmp_path, capsys):
        ddir = tmp_path / "ds"
        ddir.mkdir()
        for i, canvas in enumerate([(64, 64), (64, 96), (64, 64), (64, 64), (64, 64)]):
            s = D.generate(D.ShapesSpec(canvas=canvas, num_classes=3, seed=4), i)
            D.write_ppm(ddir / f"s{i}.ppm", s.image)
            D.write_pgm(ddir / f"s{i}_mask.pgm", s.mask)
        cfg_path, _ = write_config(tmp_path, data={"kind": "manifest", "dir": str(ddir)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "every training image needs one size" in err and "(64, 96)" in err
        assert not (tmp_path / "run").exists()

    def test_scale_resampling_to_unbounded_size_exit_2(self, tmp_path, capsys):
        # uniform(1, 1e308) draws fine, but 32 times the draw is no float
        cfg_path, _ = write_config(tmp_path, augment={"scale_range": [1.0, 1e308]})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "resamples a 32x32 image to an unbounded size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_mask_of_another_size_exit_2(self, tmp_path, capsys, command):
        ddir = tmp_path / "ds"
        ddir.mkdir()
        s = D.generate(D.ShapesSpec(canvas=(64, 64), num_classes=3, seed=4), 0)
        D.write_ppm(ddir / "a.ppm", s.image)
        D.write_pgm(ddir / "a_mask.pgm", s.mask[:32, :32])
        if command == "eval":
            net_cfg = network.preset("tiny", num_classes=3)
            ckpt = tmp_path / "c.dwck"
            network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]
        else:
            cfg_path, _ = write_config(tmp_path, data={"kind": "manifest", "dir": str(ddir)})
            argv = ["train", "--config", str(cfg_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ddir / 'a_mask.pgm'}: mask is 32x32, its image ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_training_exit_3(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, train={"iters": 60, "batch": 2,
                                                    "lr": 1e4, "log_every": 0})
        assert main(["train", "--config", str(cfg_path)]) == 3

    def test_unknown_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "tiny", "surprise": True}))
        assert main(["train", "--config", str(path)]) == 2

    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("train, field", [
        ({"iters": 4, "batch": 0}, "batch_size"), ({"iters": 4, "log_every": -1}, "log_every"),
        ({"iters": -1}, "iters"), ({"iters": 4, "eval_every": -2}, "eval_every"),
        ({"iters": 4, "poly_power": -1.0}, "poly_power"),
        ({"iters": 4, "poly_power": float("inf")}, "poly_power"),
        ({"iters": 4, "poly_power": float("nan")}, "poly_power"),
        # each of these used to run until the first SGD step, then exit 3
        ({"iters": 4, "lr": float("nan")}, "lr_base"), ({"iters": 4, "lr": -0.02}, "lr_base"),
        ({"iters": 4, "lr": float("inf")}, "lr_base"),
        ({"iters": 4, "weight_decay": float("nan")}, "weight_decay"),
        ({"iters": 4, "weight_decay": -1.0}, "weight_decay"),
        ({"iters": 4, "momentum": 1.0}, "momentum"), ({"iters": 4, "momentum": -0.5}, "momentum"),
        ({"iters": 4, "momentum": float("nan")}, "momentum")])
    def test_out_of_range_train_config_exit_2(self, tmp_path, capsys, train, field):
        cfg_path, _ = write_config(tmp_path, train=train)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be >= ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"data": {"val_count": 0}}, "val_count"), ({"data": {"train_count": 0}}, "train_count"),
        ({"data": {"canvas": [0, 0]}}, "canvas"), ({"augment": {"crop": [0, 0]}}, "crop"),
        ({"data": {"shapes_per_image": [3, 1]}}, "shapes_per_image"),
        ({"data": {"size_range": [1, 1]}}, "size_range"), ({"seed": -1}, "seed"),
        ({"ohem": {"ignore_label": 0}}, "ignore_label"), ({"num_classes": 300}, "num_classes"),
        ({"num_classes": 1}, "num_classes"), ({"num_classes": 10 ** 12}, "num_classes"),
        ({"data": {"noise": -0.1}}, "noise"),
        ({"data": {"shapes_per_image": [-1, 2]}}, "shapes_per_image"),
        ({"augment": {"scale_range": [-2.0, -1.0]}}, "scale_range"),
        ({"augment": {"scale_range": [0.0, 1.0]}}, "scale_range"),
        ({"augment": {"hflip_prob": 7.0}}, "hflip_prob"),
        ({"augment": {"hflip_prob": -0.5}}, "hflip_prob"),
        ({"augment": {"brightness": -0.5}}, "brightness"),
        ({"augment": {"contrast": -0.5}}, "contrast"),
        ({"augment": {"saturation": -0.5}}, "saturation"),
        # each of these used to overflow rng.uniform at step 0
        ({"augment": {"brightness": float("inf")}}, "brightness"),
        ({"augment": {"contrast": 1e308}}, "contrast"),
        ({"augment": {"scale_range": [1.0, float("inf")]}}, "scale_range")])
    def test_out_of_range_data_config_exit_2(self, tmp_path, capsys, overrides, field):
        cfg_path, _ = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "{ckpt}"], ["analyze", "erf"], ["analyze", "weights"],
        ["analyze", "heatmaps"], ["bench", "tiny", "64", "64", "--iters", "0"],
        ["bench", "tiny", "64", "64", "--warmup", "-1"]])
    def test_missing_input_exit_2(self, tmp_path, capsys, argv):
        from dwrseg import network as N
        cfg = N.preset("tiny", num_classes=4)
        ckpt = tmp_path / "c.dwck"
        N.save_checkpoint(N.build(cfg, rng_seed=0), cfg, ckpt)
        assert main([a.format(ckpt=ckpt) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_weights_bins_below_one_exit_2(self, tmp_path, capsys, bins):
        from dwrseg import network as N
        cfg = N.preset("tiny", num_classes=4, probe=True)
        ckpt = tmp_path / "probe.dwck"
        N.save_checkpoint(N.build(cfg, rng_seed=0), cfg, ckpt)
        assert main(["analyze", "weights", "--checkpoint", str(ckpt), "--bins", bins]) == 2
        assert capsys.readouterr().err.startswith("error: bins must be >= 1")

    def test_negative_iters_override_exit_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--iters", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: iters must be >= 0")

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not (tmp_path / "run").exists()

    def test_bad_checkpoint_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dwck"
        bad.write_bytes(b"garbage")
        assert main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "--checkpoint", "{dir}", "--data", "{dir}"],
                     id="eval-checkpoint-dir"),
        pytest.param(["predict", "--checkpoint", "{ckpt}", "--image", "{dir}",
                      "--out", "{dir}/p.pgm"], id="predict-image-dir"),
        pytest.param(["predict", "--checkpoint", "{ckpt}", "--image", "{image}",
                      "--out", "{dir}"], id="predict-out-dir"),
        pytest.param(["analyze", "erf", "--checkpoint", "{ckpt}", "--image", "{dir}"],
                     id="erf-image-dir"),
        pytest.param(["train", "--config", "{config}", "--out", "{config}"],
                     id="train-out-file")])
    def test_directory_or_file_where_a_path_goes_exit_2(self, tmp_path, capsys, argv):
        net_cfg = network.preset("tiny", num_classes=3)
        ckpt, image = tmp_path / "c.dwck", tmp_path / "a.ppm"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        D.write_ppm(image, D.generate(D.ShapesSpec(canvas=(32, 32), num_classes=3), 0).image)
        config, _ = write_config(tmp_path)
        paths = {"dir": tmp_path, "ckpt": ckpt, "image": image, "config": config}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, work", [
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--data", "{data}", "--out", "{dir}"],
                     (training, "evaluate"), id="eval-out-dir"),
        pytest.param(["predict", "--checkpoint", "{ckpt}", "--image", "{image}",
                      "--out", "{dir}"], (network, "predict_labels"), id="predict-out-dir"),
        pytest.param(["predict", "--checkpoint", "{ckpt}", "--image", "{image}",
                      "--out", "{image}/p.pgm"], (network, "predict_labels"),
                     id="predict-out-under-a-file"),
        pytest.param(["predict", "--checkpoint", "{ckpt}", "--image", "{image}",
                      "--out", "{dir}/missing/p.pgm"], (network, "predict_labels"),
                     id="predict-out-in-a-missing-dir"),
        pytest.param(["count", "tiny", "--out", "{dir}"], (network, "count_params"),
                     id="count-out-dir"),
        pytest.param(["analyze", "rf", "--variant", "tiny", "--out", "{dir}"],
                     (analysis, "network_rf_report"), id="rf-out-dir"),
        pytest.param(["analyze", "weights", "--checkpoint", "{ckpt}", "--out", "{dir}"],
                     (analysis, "branch_weight_stats"), id="weights-out-dir"),
        pytest.param(["analyze", "erf", "--checkpoint", "{ckpt}", "--out", "{dir}"],
                     (analysis, "erf_map"), id="erf-out-dir"),
        pytest.param(["analyze", "erf", "--checkpoint", "{ckpt}", "--out", "{dir}/e.nt"],
                     (analysis, "erf_map"), id="erf-preview-dir"),
        pytest.param(["analyze", "heatmaps", "--checkpoint", "{ckpt}", "--out", "{image}"],
                     (analysis, "dump_feature_heatmaps"), id="heatmaps-out-file")])
    def test_bad_out_path_exit_2_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                  argv, work):
        net_cfg = network.preset("tiny", num_classes=3)
        ckpt, image, ddir = tmp_path / "c.dwck", tmp_path / "a.ppm", tmp_path / "ds"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        s = D.generate(D.ShapesSpec(canvas=(32, 32), num_classes=3), 0)
        D.write_ppm(image, s.image)
        ddir.mkdir()
        D.write_ppm(ddir / "a.ppm", s.image)
        D.write_pgm(ddir / "a_mask.pgm", s.mask)
        (tmp_path / "e.pgm").mkdir()  # where the preview of an e.nt goes

        def refuse(*args, **kwargs):
            raise AssertionError("the work ran before the out path was checked")

        for module, name in (work, (network, "load_checkpoint")):
            monkeypatch.setattr(module, name, refuse)
        paths = {"dir": tmp_path, "ckpt": ckpt, "image": image, "data": ddir}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_erf_out_its_own_preview_exit_2_before_the_work(self, tmp_path, capsys,
                                                              monkeypatch):
        # the .pgm preview goes to out with the suffix .pgm: the tensor's own path
        def refuse(*args, **kwargs):
            raise AssertionError("the checkpoint was read before the out path was checked")

        monkeypatch.setattr(network, "load_checkpoint", refuse)
        out = tmp_path / "e.pgm"
        assert main(["analyze", "erf", "--checkpoint", str(tmp_path / "c.dwck"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analyze erf --out ") and err.count("\n") == 1
        assert not out.exists()

    def test_short_checkpoint_predict_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "short.dwck"
        bad.write_bytes(b"DWCK\x01\x00")
        image = tmp_path / "in.ppm"
        D.write_ppm(image, np.zeros((1, 3, 32, 32), np.float32))
        assert main(["predict", "--checkpoint", str(bad), "--image", str(image),
                     "--out", str(tmp_path / "out.pgm")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda c: c["switches"].update(rr_relu=False), id="rr_relu_off"),
        pytest.param(lambda c: c["stages"][1].update(dilations=[1, 5]), id="dilations"),
        pytest.param(lambda c: c["stages"][2].update(rr_expansion=2.0), id="rr_expansion"),
        pytest.param(lambda c: c.update(dropout=0.1), id="unknown_key"),
        # stages that break a StageSpec check
        pytest.param(lambda c: c["stages"][2].update(channels=100), id="dwr_ratio"),
        pytest.param(lambda c: c["stages"][1].update(channels=33), id="dwr_odd_width"),
        pytest.param(lambda c: c["stages"][2].update(kind="probe", channels=33,
                                                     dilations=[1, 3, 5]), id="probe_odd_width"),
        pytest.param(lambda c: c["stages"][2].update(branch_count=4), id="branch_count_4"),
        pytest.param(lambda c: c["stages"][1].update(kind="aspp"), id="stage_kind"),
        pytest.param(lambda c: c["stages"][2].update(repeats=0), id="repeats_0"),
        pytest.param(lambda c: c["stages"].pop(), id="two_stages"),
        pytest.param(lambda c: c["stages"][0].update(expansion=0), id="sir_expansion_0"),
        # a value in a field the stage's kind ignores
        pytest.param(lambda c: c["stages"][0].update(branch_count=10 ** 12),
                     id="sir_branch_count"),
        pytest.param(lambda c: c["stages"][2].update(expansion="2"), id="dwr_expansion"),
        # 3.0 == 3, but a float is no block or branch count
        pytest.param(lambda c: c["stages"][0].update(branch_count=3.0),
                     id="sir_branch_count_float"),
        pytest.param(lambda c: c["stages"][2].update(expansion=3.0), id="dwr_expansion_float"),
        pytest.param(lambda c: c["stages"][2].update(branch_count=3.0),
                     id="dwr_branch_count_float"),
        # networks too large to build
        pytest.param(lambda c: c["stages"][0].update(channels=10 ** 8), id="channels"),
        pytest.param(lambda c: c["stages"][0].update(repeats=10 ** 9), id="repeats"),
        pytest.param(lambda c: c.update(num_classes=10 ** 12), id="num_classes"),
        pytest.param(lambda c: c.update(stem_channels=4 * 10 ** 9), id="stem_channels"),
    ])
    def test_checkpoint_of_unbuilt_variant_exit_2(self, tmp_path, capsys, edit):
        net_cfg = network.preset("tiny", num_classes=3)
        ckpt = tmp_path / "tiny.dwck"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        buf = ckpt.read_bytes()
        end = 12 + int.from_bytes(buf[8:12], "little")
        header = json.loads(buf[12:end])
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        assert buf[12:end] == blob  # the header re-encodes as the writer wrote it
        edit(header["config"])
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        ckpt.write_bytes(buf[:8] + len(blob).to_bytes(4, "little") + blob + buf[end:])
        with pytest.raises(FormatError):
            network.load_checkpoint(ckpt)
        image = tmp_path / "in.ppm"
        D.write_ppm(image, np.zeros((1, 3, 32, 32), np.float32))
        assert main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                     "--out", str(tmp_path / "out.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda buf: buf[:4] + (2).to_bytes(4, "little") + buf[8:],
                     "unsupported checkpoint version 2$", id="version_2"),
        pytest.param(lambda buf: buf + b"\x00", ": 1 trailing byte\\(s\\)$", id="trailing"),
        # the first tensor's .nt dims (16, 3, 3, 3) read as (3, 16, 3, 3): the
        # same payload size, so only the manifest's shape can tell them apart
        pytest.param(lambda buf: _swap_first_dims(buf),
                     ": shape mismatch for stem.conv1.weight$", id="nt_dims"),
    ])
    def test_malformed_checkpoint_exit_2(self, tmp_path, capsys, corrupt, message):
        net_cfg = network.preset("tiny", num_classes=3)
        ckpt = tmp_path / "c.dwck"
        network.save_checkpoint(network.build(net_cfg, rng_seed=0), net_cfg, ckpt)
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        with pytest.raises(FormatError, match=message):
            network.load_checkpoint(ckpt)
        image = tmp_path / "in.ppm"
        D.write_ppm(image, np.zeros((1, 3, 32, 32), np.float32))
        assert main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                     "--out", str(tmp_path / "out.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("section, message", [
        ({"kind": "coco"}, "config.data.kind must be 'shapes' or 'manifest'"),
        ({"kind": "manifest"}, "config.data.dir is required for manifest datasets"),
    ])
    def test_data_kind_and_manifest_dir_exit_2(self, tmp_path, capsys, section, message):
        cfg_path, _ = write_config(tmp_path, data=section)
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["count", "tiny", "--classes", str(10 ** 12)],
        ["train", "--config", "{cfg}"],
    ])
    def test_sizes_that_cannot_be_allocated_exit_2(self, tmp_path, capsys, argv):
        cfg_path, _ = write_config(tmp_path, data={"canvas": [10 ** 6, 10 ** 6]})
        assert main([a.format(cfg=cfg_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_nan_checkpoint_predict_exit_3_names_layer(self, tmp_path, capsys):
        net_cfg = network.preset("tiny", num_classes=3)
        params = network.build(net_cfg, rng_seed=0)
        params["s3.0.merge.weight"][0, 0, 0, 0] = np.nan
        ckpt = tmp_path / "nan.dwck"
        network.save_checkpoint(params, net_cfg, ckpt)
        image = tmp_path / "in.ppm"
        D.write_ppm(image, np.zeros((1, 3, 32, 32), np.float32))
        assert main(["predict", "--checkpoint", str(ckpt), "--image", str(image),
                     "--out", str(tmp_path / "out.pgm")]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: s3.0.merge: ")

    def test_preset_round_trips(self, capsys):
        assert main(["preset", "desk"]) == 0
        doc = json.loads(capsys.readouterr().out)
        parse_run_config(doc)
        assert main(["preset", "full"]) == 0
        json.loads(capsys.readouterr().out)


def _swap_first_dims(buf: bytes) -> bytes:
    """A checkpoint's bytes with the first two dims of its first .nt record swapped."""
    dims = 12 + int.from_bytes(buf[8:12], "little") + 12  # past the header and .nt's own
    return buf[:dims] + buf[dims + 4:dims + 8] + buf[dims:dims + 4] + buf[dims + 8:]


def readme_commands():
    """The `dwrseg` lines of README's CLI block as argument lists: comments
    stripped, lines ending in a backslash joined, a `> file` redirect dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["dwrseg"]:
            commands.append(argv[1:argv.index(">")] if ">" in argv else argv[1:])
    return commands


class TestReadme:
    def test_cli_block_has_every_subcommand(self):
        assert {argv[0] for argv in readme_commands()} == {
            "preset", "train", "eval", "predict", "count", "bench", "analyze"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_cli_block_command_parses(self, argv):
        build_parser().parse_args(argv)
