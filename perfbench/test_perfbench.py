"""Quick test of the benchmark itself (one to two minutes on one core).

    python3 -m pytest perfbench/test_perfbench.py -q

Every correctness check must pass on the program as it is and fail when
the op it guards is deliberately broken; the metric names the benchmark
prints must be exactly those in BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from dwrseg import cli, data, network, training  # noqa: E402
from dwrseg.engine import Tape, ops  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DW = SimpleNamespace(cli=cli, data=data, network=network, training=training, ops=ops, Tape=Tape)


def _tiny_eval_captures():
    cfg = network.preset("tiny", num_classes=19)
    params = workloads.randomize_affine(network.build(cfg, rng_seed=3), 3)
    image = data.generate(data.ShapesSpec(canvas=(64, 64), num_classes=19, seed=3), 0).image
    with checks.capture_first_calls(ops) as captured:
        network.infer(params, cfg, image, mode="eval")
    return {name: ok for name, ok, _ in checks.check_op_samples(captured, seed=3)}


def _transposed_weights(x, out_h, out_w):
    """Bilinear upsample with (1 - f) where the fraction f belongs."""
    n, c, h, w = x.shape

    def axis(n_in, n_out):
        src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
        lo = np.floor(src).astype(int)
        return lo, np.minimum(lo + 1, n_in - 1), (1.0 - (src - lo)).astype(x.dtype)

    y0, y1, fy = axis(h, out_h)
    x0, x1, fx = axis(w, out_w)
    fy, fx = fy[:, None], fx[None, :]
    rows0, rows1 = x[:, :, y0], x[:, :, y1]
    top = rows0[..., x0] * (1 - fx) + rows0[..., x1] * fx
    bot = rows1[..., x0] * (1 - fx) + rows1[..., x1] * fx
    return np.ascontiguousarray(top * (1 - fy) + bot * fy)


MUTATIONS = {
    # check name -> (ops attribute, broken implementation given the original)
    "op:upsample": ("upsample_bilinear", lambda orig: _transposed_weights),
    "op:maxpool": ("maxpool_forward",
                   lambda orig: lambda x, k, s, p=0: orig(np.roll(x, 1, axis=3), k, s, p)),
    "op:conv_dilated_depthwise": (
        "conv2d_forward",
        lambda orig: lambda x, w, b, spec: orig(x, w, b, replace(
            spec, dilation=1, padding=spec.padding - spec.dilation + 1))
        if spec.dilation > 1 else orig(x, w, b, spec)),
    "op:conv_strided": ("conv2d_forward",
                        lambda orig: lambda x, w, b, spec: orig(
                            x, np.ascontiguousarray(w[:, :, ::-1, ::-1]), b, spec)),
    "op:conv_pointwise_bias": ("conv2d_forward",
                               lambda orig: lambda x, w, b, spec: orig(x, w, None, spec)
                               if b is not None else orig(x, w, b, spec)),
    "op:batchnorm_eval": ("batchnorm_forward",
                          lambda orig: lambda x, st, mode: orig(
                              x, replace(st, running_mean=np.zeros_like(st.running_mean)),
                              mode)),
    "op:relu": ("relu_forward", lambda orig: lambda x: np.where(x > 0, x, 0.01 * x)),
    "op:concat": ("concat_channels", lambda orig: lambda xs: orig(list(xs)[::-1])),
    "op:add": ("add", lambda orig: lambda x, y: x - y),
}


def test_op_checks_pass_on_the_program():
    results = _tiny_eval_captures()
    assert set(results) == set(MUTATIONS)
    assert all(results.values()), results


@pytest.mark.parametrize("check", sorted(MUTATIONS))
def test_op_check_fails_on_a_broken_op(check, monkeypatch):
    attr, make = MUTATIONS[check]
    monkeypatch.setattr(ops, attr, make(getattr(ops, attr)))
    results = _tiny_eval_captures()
    assert not results[check], f"{check} passed with {attr} broken"


def _tiny_gradient_check():
    cfg = network.preset("tiny", num_classes=4)
    return checks.gradient_check(DW, network.build(cfg, rng_seed=1), cfg, seed=1)


def test_gradient_check_passes_on_the_program():
    ok, detail = _tiny_gradient_check()
    assert ok, detail


@pytest.mark.parametrize("attr,make", [
    ("conv2d_backward",
     lambda orig: lambda x, w, spec, go: tuple(
         g * 1.1 if i == 1 else g for i, g in enumerate(orig(x, w, spec, go)))),
    ("batchnorm_backward",
     lambda orig: lambda x, st, go, mode="train": orig(x, st, go, "eval")),
    ("upsample_bilinear_backward",
     lambda orig: lambda shape, h, w, go: orig(shape, h, w, go[:, :, ::-1, ::-1].copy())),
], ids=["conv_grad_w_scaled", "bn_backward_without_batch_terms", "upsample_backward_flipped"])
def test_gradient_check_fails_on_a_broken_backward(attr, make, monkeypatch):
    monkeypatch.setattr(ops, attr, make(getattr(ops, attr)))
    ok, detail = _tiny_gradient_check()
    assert not ok, detail


def _short_desk_round(monkeypatch):
    monkeypatch.setattr(workloads.TinyTrain, "ITERS", 60)
    wl = workloads.TinyTrain(DW, seed=5, work=None)
    wl.setup()
    wl.run(0, Tracer())
    return {name.split(": ", 1)[-1]: ok for name, ok, _ in wl.checks()}


def test_training_checks_pass_on_the_program(monkeypatch):
    results = _short_desk_round(monkeypatch)
    assert results["mean loss of the last tenth below the first tenth"]
    assert results["own confusion-matrix mIoU equals the logged miou"]


def test_loss_check_fails_when_sgd_climbs(monkeypatch):
    original = training.sgd_step
    monkeypatch.setattr(training, "sgd_step",
                        lambda params, grads, state, lr: original(params, grads, state, -lr))
    assert not _short_desk_round(monkeypatch)["mean loss of the last tenth below the first tenth"]


def test_miou_check_fails_when_the_logged_miou_is_miscounted(monkeypatch):
    original = training.confusion_matrix
    monkeypatch.setattr(training, "confusion_matrix",
                        lambda pred, gt, c, ignore=255: original((pred + 1) % c, gt, c, ignore))
    assert not _short_desk_round(monkeypatch)["own confusion-matrix mIoU equals the logged miou"]


def test_tracer_metric_names_match_benchmark_json():
    names = set(Tracer().metrics(1))
    assert names == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "b_eval_512x1024",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == expected
    assert result["correct"] and result["failed"] == 0
    assert "blas_threads 1 " in proc.stdout
    for name in expected:
        assert any(line.startswith(f"{name} ") for line in lines)
