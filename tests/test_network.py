"""Network-level contracts: build, shapes, counting, checkpoints, benchmark."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dwrseg import network as N
from dwrseg.engine import FLOAT, ConvSpec, FormatError, NumericError, ShapeError, Tape, Var
from dwrseg.engine import ops
from dwrseg.engine import tape as tape_module
from dwrseg.network import NetworkConfig, StageSpec
from dwrseg.params import ParamStore, ParamVars, zero_init


@pytest.fixture(scope="module")
def tiny():
    cfg = N.preset("tiny", num_classes=4)
    return cfg, N.build(cfg, rng_seed=0)


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        cfg = N.preset("tiny", num_classes=4)
        a = N.build(cfg, rng_seed=7)
        b = N.build(cfg, rng_seed=7)
        assert a.names() == b.names()
        for name, arr in a.items():
            np.testing.assert_array_equal(arr, b[name])

    def test_parameter_read_twice_in_one_forward_raises(self, tiny):
        # each parameter is one tape leaf: a second read of a name is a bug
        _, store = tiny
        pv = ParamVars(Tape(), store)
        pv("head.pred.bias")
        with pytest.raises(ValueError, match="duplicate leaf name 'head.pred.bias'"):
            pv("head.pred.bias")

    def test_astype_same_dtype_copies(self):
        store = N.build(N.preset("tiny", num_classes=4), rng_seed=0)
        before = store["stem.conv1.weight"].copy()
        copy = store.astype(np.float32)
        copy["stem.conv1.weight"][...] = 123.0
        copy["stem.conv1.bn.gamma"][...] = 123.0
        copy.stat("stem.conv1.bn.running_var")[...] = 123.0
        np.testing.assert_array_equal(store["stem.conv1.weight"], before)
        assert not (store["stem.conv1.bn.gamma"] == 123.0).any()
        assert not (store.stat("stem.conv1.bn.running_var") == 123.0).any()
        assert (dict(copy.stat_items())["stem.conv1.bn.running_var"] == 123.0).all()

    def test_stats_follow_the_bn_layers_in_parameter_order(self, tiny):
        _, store = tiny
        layers = [n[:-len(".gamma")] for n in store.names() if n.endswith(".gamma")]
        assert len(layers) == 16
        assert [n for n, _ in store.stat_items()] == [
            f"{layer}.{stat}" for layer in layers for stat in ("running_mean", "running_var")]

    @pytest.mark.parametrize("name", ["stem.conv1.bn.gamma", "stem.conv1.bn.eps"])
    def test_set_stat_takes_only_statistics(self, name):
        store = N.build(N.preset("tiny", num_classes=4), rng_seed=0)
        before = {n: a.copy() for n, a in [*store.items(), *store.stat_items()]}
        with pytest.raises(KeyError):
            store.set_stat_(name, np.full_like(store["stem.conv1.bn.gamma"], 7.0))
        for n, a in [*store.items(), *store.stat_items()]:
            np.testing.assert_array_equal(a, before[n])

    def test_different_seeds_differ(self):
        cfg = N.preset("tiny", num_classes=4)
        a = N.build(cfg, rng_seed=1)
        b = N.build(cfg, rng_seed=2)
        assert any(not np.array_equal(arr, b[name]) for name, arr in a.items())

    def test_stage_list_matches_reference_table(self):
        for variant, repeats in (("B", (7, 3, 3)), ("L", (8, 8, 3))):
            cfg = N.preset(variant)
            assert cfg.stem_channels == 64
            assert tuple(s.repeats for s in cfg.stages) == repeats
            assert tuple(s.channels for s in cfg.stages) == (64, 128, 128)
            assert tuple(s.kind for s in cfg.stages) == ("sir", "dwr", "dwr")
            assert (cfg.stages[1].branch_count, cfg.stages[2].branch_count) == (2, 3)
            assert cfg.decoder_width == 320
            assert cfg.head_width == 128

    def test_bn_init(self, tiny):
        _, store = tiny
        np.testing.assert_array_equal(store["s2.0.rr.bn.gamma"],
                                      np.ones_like(store["s2.0.rr.bn.gamma"]))
        np.testing.assert_array_equal(store["s2.0.rr.bn.beta"],
                                      np.zeros_like(store["s2.0.rr.bn.beta"]))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ShapeError):
            N.preset("XL")


class TestForward:
    def test_shape_contract_b_and_l(self):
        x = np.random.default_rng(0).random((1, 3, 64, 64), dtype=np.float32)
        for variant in ("B", "L"):
            cfg = N.preset(variant, num_classes=19)
            store = N.build(cfg, rng_seed=3)
            logits, taps = N.infer(store, cfg, x)
            assert logits.shape == (1, 19, 64, 64)
            assert taps["s2"].shape == (1, 64, 8, 8)
            assert taps["s3"].shape == (1, 128, 4, 4)
            assert taps["s4"].shape == (1, 128, 2, 2)

    def test_eval_forward_is_pure(self, tiny):
        cfg, store = tiny
        x = np.full((1, 3, 64, 64), 0.5, np.float32)
        a, _ = N.infer(store, cfg, x)
        stats_before = {n: v.copy() for n, v in store.stat_items()}
        b, _ = N.infer(store, cfg, x)
        np.testing.assert_array_equal(a, b)
        for n, v in store.stat_items():
            np.testing.assert_array_equal(v, stats_before[n])

    def test_train_mode_updates_running_stats(self, tiny):
        # the pass carries the mode to every BN, the decoder's and head's too
        cfg, _ = tiny
        store = N.build(cfg, rng_seed=5)
        before = {n: a.copy() for n, a in store.stat_items()}
        assert len(before) == 2 * 16
        assert {"decoder.bn.running_var", "head.conv.bn.running_mean"} <= set(before)
        x = np.random.default_rng(1).random((2, 3, 64, 64), dtype=np.float32)
        N.infer(store, cfg, x, mode="train")
        for n, a in store.stat_items():
            assert not np.array_equal(a, before[n]), n

    def test_divisibility_error(self, tiny):
        cfg, store = tiny
        with pytest.raises(ShapeError):
            N.infer(store, cfg, np.zeros((1, 3, 48, 64), np.float32))

    def test_predict_labels_is_the_argmax_of_infer(self, tiny):
        cfg, store = tiny
        x = np.random.default_rng(2).random((2, 3, 64, 32), dtype=np.float32)
        np.testing.assert_array_equal(N.predict_labels(store, cfg, x),
                                      N.infer(store, cfg, x)[0].argmax(axis=1))

    @pytest.mark.parametrize("h, w", [(40, 44), (1, 33), (32, 7)])
    def test_predict_labels_of_any_size_crop_the_edge_padded_labels(self, tiny, h, w):
        cfg, store = tiny
        x = np.random.default_rng(3).random((1, 3, h, w), dtype=np.float32)
        padded = N.pad_to_32(x)
        assert padded.shape[2] % 32 == 0 and padded.shape[3] % 32 == 0
        np.testing.assert_array_equal(padded[:, :, :h, :w], x)
        np.testing.assert_array_equal(padded[:, :, h:], padded[:, :, h - 1:h].repeat(
            padded.shape[2] - h, axis=2))
        labels = N.predict_labels(store, cfg, x)
        assert labels.shape == (1, h, w)
        np.testing.assert_array_equal(
            labels, N.infer(store, cfg, padded)[0].argmax(axis=1)[:, :h, :w])


class TestCounts:
    def test_conv_param_closed_form(self):
        # 3x3, 16->32, with bias, as a declaring pass creates it
        pv = ParamVars(Tape(), ParamStore(), init=zero_init)
        x = pv.tape.leaf(np.zeros((0, 16, 8, 8), FLOAT))
        pv.conv("c", x, ConvSpec(16, 32, 3, has_bias=True))
        assert sum(a.size for _, a in pv.store.items()) == 4640

    def test_param_targets_b_l(self):
        for variant in ("B", "L"):
            total, _ = N.count_params(N.preset(variant))
            target = N.PARAM_TARGETS[variant]
            assert abs(total - target) / target <= 0.15

    def test_two_block_toy_hand_count(self):
        # stem(8)=800, sir(8, lam=2)=1320, dwr(8,B2)=1124, dwr(8,B3)=1124,
        # decoder bn(24)=48, head(24->8, N=2)=1762; total 6178 (worked by hand)
        cfg = NetworkConfig(
            variant="toy", num_classes=2, stem_channels=8,
            stages=(StageSpec("sir", 1, 8, expansion=2),
                    StageSpec("dwr", 1, 8, branch_count=2),
                    StageSpec("dwr", 1, 8, branch_count=3)),
            head_width=8)
        total, items = N.count_params(cfg)
        assert total == 6178
        groups = N.breakdown_by_group(items)
        assert groups == {"stem": 800, "s2": 1320, "s3": 1124, "s4": 1124,
                          "decoder": 48, "head": 1762}

    def test_store_size_matches_count(self, tiny):
        cfg, store = tiny
        total, _ = N.count_params(cfg)
        assert sum(a.size for _, a in store.items()) == total

    def test_mac_closed_form(self):
        from dwrseg.blocks import conv_macs
        assert conv_macs(ConvSpec(192, 128, 1), (1, 128, 8, 8)) == 1_572_864

    def test_mac_targets_b_l(self):
        for variant in ("B", "L"):
            total, _ = N.count_macs(N.preset(variant), 512, 1024)
            target = N.MAC_TARGETS[variant]
            assert abs(total - target) / target <= 0.10

    def test_traced_mac_counts_pinned(self):
        # the figures of the hand-written per-block counts the trace replaced
        total, items = N.count_macs(N.preset("B"), 512, 1024)
        assert total == 13_299_777_536
        assert N.count_macs(N.preset("L"), 512, 1024)[0] == 16_840_687_616
        names = [name for name, _ in items]
        assert names[:4] == ["stem.conv1", "stem.a1", "stem.a2", "stem.fuse"]
        assert names[-2:] == ["head.conv", "head.pred"]
        assert len(names) == len(set(names))

    def test_param_counts_pinned(self):
        assert N.count_params(N.preset("B"))[0] == 2_658_131
        assert N.count_params(N.preset("L"))[0] == 4_023_379

    def test_trace_runs_no_op_kernels(self, monkeypatch):
        # every kernel runs, on empty activations only: a trace does no arithmetic
        from dwrseg.engine import ops

        kernels = ("conv2d_forward", "batchnorm_forward", "relu_forward", "add",
                   "concat_channels", "split_channels", "maxpool_forward",
                   "upsample_bilinear")
        batches: dict[str, list[int]] = {}

        def spy(name, kernel):
            def run(*args):
                data = {"concat_channels": args[0], "add": args[:2]}.get(name, args[:1])
                batches.setdefault(name, []).extend(a.shape[0] for a in data)
                return kernel(*args)
            return run

        for name in kernels:
            monkeypatch.setattr(ops, name, spy(name, getattr(ops, name)))
        for probe in (False, True):
            _, tape, taps = N.trace(N.preset("tiny", num_classes=4, probe=probe), 64, 64)
            assert taps["s4"].data.shape == (0, 32, 2, 2)
            assert tape.nodes[-1].shape == (0, 4, 64, 64)
        assert batches.keys() == set(kernels)
        assert all(n == 0 for ns in batches.values() for n in ns)

    @pytest.mark.parametrize("variant, probe", [
        pytest.param("tiny", False, id="False"), pytest.param("tiny", True, id="True"),
        pytest.param("B", False, id="B"), pytest.param("L", False, id="L")])
    def test_recording_tape_matches_trace(self, variant, probe):
        cfg = N.preset(variant, num_classes=4, probe=probe)
        mode, batch = ("train", 2) if variant == "tiny" else ("eval", 1)
        store = N.build(cfg, rng_seed=0)
        tape = Tape()
        x = np.random.default_rng(1).random((batch, 3, 64, 64), dtype=np.float32)
        N.forward(store, cfg, x, mode=mode, tape=tape)
        _, traced, _ = N.trace(cfg, 64, 64)

        def graph(t):
            return [(n.kind, n.name, n.shape[1:], n.spec, n.window, len(n.parents))
                    for n in t.nodes]

        assert graph(tape) == graph(traced)
        assert all(n.shape[0] == batch for n in tape.nodes)
        assert all(n.shape[0] == 0 for n in traced.nodes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["tiny", "B"])
    @pytest.mark.parametrize("probe", [False, True])
    def test_trace_backpropagates_to_empty_and_zero_grads(self, variant, probe):
        cfg = N.preset(variant, num_classes=4, probe=probe)
        _, tape, _ = N.trace(cfg, 64, 64)
        last = tape.nodes[-1]
        grads = tape.backward(Var(np.zeros(last.shape, FLOAT), last.out),
                              np.zeros(last.shape, FLOAT))
        assert grads[0].shape == (0, 3, 64, 64)
        named = tape.grads_by_name(grads)
        assert {n: g.shape for n, g in named.items()} == \
            {n: a.shape for n, a in N.build(cfg).items()}
        assert not any(g.any() for g in named.values())

    def test_l_strictly_larger_and_ratio(self):
        pb, _ = N.count_params(N.preset("B"))
        pl, _ = N.count_params(N.preset("L"))
        mb, _ = N.count_macs(N.preset("B"), 512, 1024)
        ml, _ = N.count_macs(N.preset("L"), 512, 1024)
        assert pl > pb and ml > mb
        ref_ratio = N.PARAM_TARGETS["L"] / N.PARAM_TARGETS["B"]
        assert abs(pl / pb - ref_ratio) / ref_ratio <= 0.15

    def test_decoder_concat_width(self):
        assert N.preset("B").decoder_width == 320
        assert N.preset("L").decoder_width == 320


def _v1_stage(kind, repeats, channels, branch_count=3, dilations=()):
    return {"kind": kind, "repeats": repeats, "channels": channels,
            "branch_count": branch_count, "dilations": list(dilations), "branch_ratio": [],
            "rr_expansion": 1.5, "expansion": 3}


def _v1_config(variant, num_classes, stem, head, stages):
    return {"variant": variant, "num_classes": num_classes, "stem_channels": stem,
            "head_width": head,
            "switches": {"rr_relu": True, "rr_bn": True, "sr_bn": True,
                         "sr_relu_after_bn": False, "bn_after_pointwise": False},
            "stages": stages}


# the v1 checkpoint config headers of the presets: a fixed data format
V1_HEADERS = {
    ("B", False): _v1_config("B", 19, 64, 128, [
        _v1_stage("sir", 7, 64), _v1_stage("dwr", 3, 128, 2), _v1_stage("dwr", 3, 128)]),
    ("L", False): _v1_config("L", 19, 64, 128, [
        _v1_stage("sir", 8, 64), _v1_stage("dwr", 8, 128, 2), _v1_stage("dwr", 3, 128)]),
    ("tiny", False): _v1_config("tiny", 19, 16, 32, [
        _v1_stage("sir", 2, 16), _v1_stage("dwr", 2, 32, 2), _v1_stage("dwr", 2, 32)]),
    ("tiny", True): _v1_config("tiny-probe", 19, 16, 32, [
        _v1_stage("probe", 2, 16, 3, (1, 3, 5)), _v1_stage("probe", 2, 32, 3, (1, 3, 5)),
        _v1_stage("probe", 2, 32, 3, (1, 3, 5))]),
}


class TestCheckpoint:
    @pytest.mark.parametrize("variant,probe", list(V1_HEADERS))
    def test_config_header_is_format_v1(self, variant, probe):
        cfg = N.preset(variant, probe=probe)
        assert N.config_to_dict(cfg) == V1_HEADERS[variant, probe]
        assert N.config_from_dict(V1_HEADERS[variant, probe]) == cfg

    def test_save_load_save_byte_identical(self, tiny, tmp_path):
        cfg, store = tiny
        probe_cfg = N.preset("tiny", num_classes=4, probe=True)
        for i, (c, params) in enumerate([(cfg, store), (probe_cfg, N.build(probe_cfg))]):
            p1, p2 = tmp_path / f"a{i}.dwck", tmp_path / f"b{i}.dwck"
            N.save_checkpoint(params, c, p1)
            loaded, c2 = N.load_checkpoint(p1)
            N.save_checkpoint(loaded, c2, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_reload_reproduces_logits(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        store = N.build(cfg, rng_seed=7)
        x = np.random.default_rng(2).random((1, 3, 64, 64), dtype=np.float32)
        ref, _ = N.infer(store, cfg, x)
        path = tmp_path / "c.dwck"
        N.save_checkpoint(store, cfg, path)
        loaded, cfg2 = N.load_checkpoint(path)
        got, _ = N.infer(loaded, cfg2, x)
        np.testing.assert_array_equal(got, ref)

    def test_truncated_rejected(self, tiny, tmp_path):
        cfg, store = tiny
        p = tmp_path / "t.dwck"
        N.save_checkpoint(store, cfg, p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(FormatError):
            N.load_checkpoint(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.dwck"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            N.load_checkpoint(p)

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "short.dwck"
        p.write_bytes(b"DWCK\x01\x00")
        with pytest.raises(FormatError):
            N.load_checkpoint(p)

    @pytest.mark.parametrize("header", [b"{}", b"[]",
                                        pytest.param(b"[" * 200_000, id="nested")])
    def test_header_without_config_rejected(self, tmp_path, header):
        p = tmp_path / "h.dwck"
        p.write_bytes(b"DWCK" + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(FormatError):
            N.load_checkpoint(p)

    def test_built_or_loaded_store_never_declares(self, tiny, tmp_path):
        cfg, built = tiny
        path = tmp_path / "n.dwck"
        N.save_checkpoint(built, cfg, path)
        s2 = cfg.stages[0]
        longer = replace(cfg, stages=(replace(s2, repeats=s2.repeats + 1), *cfg.stages[1:]))
        x = np.random.default_rng(4).random((1, 3, 32, 32), dtype=np.float32)
        for store in (built, N.load_checkpoint(path)[0]):
            names = store.names()
            with pytest.raises(KeyError, match="s2.2.rr.conv.weight"):
                N.infer(store, longer, x)
            assert store.names() == names

    def test_running_stats_round_trip(self, tmp_path):
        cfg = N.preset("tiny", num_classes=4)
        store = N.build(cfg, rng_seed=1)
        x = np.random.default_rng(3).random((2, 3, 32, 32), dtype=np.float32)
        N.infer(store, cfg, x, mode="train")  # perturb running stats
        p = tmp_path / "s.dwck"
        N.save_checkpoint(store, cfg, p)
        loaded, _ = N.load_checkpoint(p)
        for (n1, a), (n2, b) in zip(store.stat_items(), loaded.stat_items()):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)


class TestGradFlow:
    def test_grads_cover_all_params(self, tiny):
        cfg, store = tiny
        x = np.random.default_rng(4).random((1, 3, 64, 64), dtype=np.float32)
        tape = Tape()
        logits, _ = N.forward(store, cfg, x, mode="train", tape=tape)
        grads = N.grads_from_backward(tape, store, logits, np.ones_like(logits.data))
        assert set(grads) == set(store.names())
        nonzero = sum(1 for g in grads.values() if np.abs(g).sum() > 0)
        assert nonzero > 0.9 * len(grads)


class TestNumericErrors:
    def test_nan_weight_names_its_layer(self, tiny):
        cfg, store = tiny
        poisoned = store.astype(np.float32)
        poisoned["s3.0.merge.weight"][0, 0, 0, 0] = np.nan
        x = np.random.default_rng(4).random((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(NumericError, match=r"^s3\.0\.merge: conv2d output: \d+ non-finite"):
            N.forward(poisoned, cfg, x)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("probe", [False, True], ids=["tiny", "tiny-probe"])
    def test_nan_in_any_parameter_names_its_layer(self, probe, mode):
        cfg = N.preset("tiny", num_classes=4, probe=probe)
        store = N.build(cfg, rng_seed=0)
        x = np.random.default_rng(4).random((2, 3, 64, 64), dtype=np.float32)
        wrong = {}
        for name in store.names():
            poisoned = store.astype(np.float32)
            poisoned[name].reshape(-1)[0] = np.nan
            try:
                N.forward(poisoned, cfg, x, mode=mode, tape=Tape(record=mode == "train"))
                wrong[name] = "no error"
            except NumericError as exc:
                if not str(exc).startswith(name.rsplit(".", 1)[0] + ": "):
                    wrong[name] = str(exc)
        assert not wrong

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_residual_add_overflow_names_the_add(self, tiny):
        # each merge output stays finite (3e38 < float32 max); s3.1's residual
        # add overflows, and the error names it, not the next block's conv
        cfg, store = tiny
        poisoned = store.astype(np.float32)
        poisoned["s3.0.merge.bias"][...] = 3e38
        poisoned["s3.1.merge.bias"][...] = 3e38
        poisoned["s3.1.rr.conv.weight"][...] = 0
        x = np.random.default_rng(4).random((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(NumericError, match=r"^add after s3\.1\.merge: add output: \d+ "):
            N.forward(poisoned, cfg, x)

    def test_checks_only_ops_that_can_make_non_finite_values(self, tiny, monkeypatch):
        # relu, concat, split and maxpool pass their inputs' values on unchecked
        cfg, store = tiny
        checked = []
        monkeypatch.setattr(tape_module, "check_finite",
                            lambda what, data: checked.append(what.rsplit(" ", 2)[-2]))
        tape = Tape()
        x = np.random.default_rng(4).random((4, 3, 64, 64), dtype=np.float32)
        N.forward(store, cfg, x, mode="train", tape=tape)
        kinds = [node.kind for node in tape.nodes]
        assert {"relu", "concat", "split", "maxpool"} <= set(kinds)
        assert checked == [k for k in kinds if k in {"conv2d", "batchnorm", "add", "upsample"}]


class TestBatchInvariance:
    @staticmethod
    def assert_each_image_alone(monkeypatch, variant, n, h, w):
        """Eval logits of a batch of n equal each image's alone, bitwise;
        returns the matmul calls of the batch and of the last image."""
        cfg = N.preset(variant)
        params = N.build(cfg, rng_seed=0)
        x = np.random.default_rng(5).random((n, 3, h, w), dtype=np.float32)
        calls = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        batch, _ = N.infer(params, cfg, x)
        batch_calls = len(calls)
        for i in range(n):
            del calls[:]
            alone, _ = N.infer(params, cfg, x[i:i + 1])
            assert batch[i].tobytes() == alone[0].tobytes(), i
        return batch_calls, len(calls)

    @pytest.mark.parametrize("variant, h, w", [("tiny", 64, 64), ("B", 256, 512)])
    def test_eval_batch_equals_each_image_alone(self, monkeypatch, variant, h, w):
        batch_calls, image_calls = self.assert_each_image_alone(monkeypatch, variant, 3, h, w)
        if variant == "B":  # stem.fuse and head.conv run in more bands at batch 3
            assert batch_calls > image_calls

    @pytest.mark.parametrize("n", [8, 16])
    def test_tiny_eval_large_batch_equals_each_image_alone(self, monkeypatch, n):
        # conv bands are cut by one image's bytes, so a batch never shortens a
        # matmul; cut by the batch's bytes, head.conv differed by 6.7e-6 at 8
        self.assert_each_image_alone(monkeypatch, "tiny", n, 64, 64)


class TestWorkerInvariance:
    def test_b_logits_bitwise_at_any_worker_count(self):
        # at 512x1024 every forward op of B and the tape's finiteness checks
        # run in many bands
        cfg = N.preset("B")
        params = N.build(cfg, rng_seed=0)
        x = np.random.default_rng(0).random((1, 3, 512, 1024), dtype=np.float32)
        runs = []
        try:
            for n in (1, 2, 3):
                ops.set_workers(n)
                logits, taps = N.infer(params, cfg, x)
                runs.append([logits.tobytes()] + [taps[k].tobytes() for k in sorted(taps)])
        finally:
            ops.set_workers(ops.DEFAULT_WORKERS)
        assert runs[0] == runs[1] == runs[2]


class TestBenchmark:
    def test_bench_smoke(self, tiny):
        cfg, store = tiny
        stats = N.benchmark_forward(store, cfg, (1, 3, 32, 32), warmup=1, iters=4)
        assert len(stats["samples_s"]) == 4  # warmup excluded
        assert stats["mean_s"] > 0 and stats["fps"] > 0
        assert 0 < stats["peak_mb"] < 64

    def test_b_infer_traced_peak_at_512x1024(self):
        # every band's workspace is bounded by ops.BAND_BYTES, no decoder
        # feature is alive during the 38 MiB final upsample, and each of its
        # bands blends along x only the input rows it reads: 45 MiB here at two
        # workers (each running worker holds one band's workspace), where
        # whole-tensor workspaces peaked at 122 MiB (head.conv), decoder
        # features held through the upsample at 82 MiB, a full-size
        # finiteness mask of the logits at 51 MiB and the upsample's whole
        # x-blended input at 49.7 MiB
        cfg = N.preset("B")
        params = N.build(cfg, rng_seed=0)
        x = np.random.default_rng(0).random((1, 3, 512, 1024), dtype=np.float32)
        ops.set_workers(2)
        tracemalloc.start()
        try:
            N.infer(params, cfg, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ops.set_workers(ops.DEFAULT_WORKERS)
        assert peak <= 46 * 2**20, peak / 2**20
