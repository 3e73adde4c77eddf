"""Command-line interface: every subcommand, exit codes, artifact layout."""

import json

import numpy as np
import pytest

from dwrseg import data as D
from dwrseg import network, training
from dwrseg.cli import (
    DESK_PRESET,
    FULL_PRESET,
    ConfigError,
    RunConfig,
    blas_threads,
    main,
    parse_run_config,
    set_blas_threads,
)


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
        cfg = parse_run_config(json.loads(json.dumps(DESK_PRESET)))
        assert cfg.variant == "tiny" and cfg.num_classes == 4
        assert cfg.train.iters == 2000 and cfg.train.batch_size == 4

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
        assert cfg.train.augment.ignore_label == FULL_PRESET["ohem"]["ignore_label"]


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
        assert json.loads(capsys.readouterr().out)["blas_threads"] == blas_threads()

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

    def test_threads_option_sets_blas_workers(self, capsys):
        try:
            assert main(["--threads", "2", "bench", "tiny", "64", "64", "--classes", "4",
                         "--warmup", "0", "--iters", "1"]) == 0
            captured = capsys.readouterr()
            doc = json.loads(captured.out)
            if blas_threads() is None:  # no OpenBLAS thread API: said so, not skipped
                assert "warning: cannot set BLAS threads to 2" in captured.err
            else:
                assert doc["blas_threads"] == 2
        finally:
            set_blas_threads(1)
        assert main(["bench", "tiny", "64", "64", "--classes", "4",
                     "--warmup", "0", "--iters", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["blas_threads"] in (1, None)

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
        ({"iters": -1}, "iters"), ({"iters": 4, "eval_every": -2}, "eval_every")])
    def test_out_of_range_train_config_exit_2(self, tmp_path, capsys, train, field):
        cfg_path, _ = write_config(tmp_path, train=train)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be >= ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"data": {"val_count": 0}}, "val_count"), ({"data": {"train_count": 0}}, "train_count"),
        ({"data": {"canvas": [0, 0]}}, "canvas"), ({"augment": {"crop": [0, 0]}}, "crop"),
        ({"data": {"shapes_per_image": [3, 1]}}, "shapes_per_image"),
        ({"data": {"size_range": [1, 1]}}, "size_range")])
    def test_out_of_range_data_config_exit_2(self, tmp_path, capsys, overrides, field):
        cfg_path, _ = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "{ckpt}"], ["analyze", "erf"], ["analyze", "weights"],
        ["analyze", "heatmaps"], ["bench", "tiny", "64", "64", "--iters", "0"]])
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

    def test_bad_checkpoint_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dwck"
        bad.write_bytes(b"garbage")
        assert main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path)]) == 2

    def test_short_checkpoint_predict_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "short.dwck"
        bad.write_bytes(b"DWCK\x01\x00")
        image = tmp_path / "in.ppm"
        D.write_ppm(image, np.zeros((1, 3, 32, 32), np.float32))
        assert main(["predict", "--checkpoint", str(bad), "--image", str(image),
                     "--out", str(tmp_path / "out.pgm")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
