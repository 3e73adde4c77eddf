"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the desk-scale training criterion dominates the runtime (a couple
of minutes on a laptop CPU).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dwrseg import analysis as A
from dwrseg import blocks as B
from dwrseg import data as D
from dwrseg import engine as E
from dwrseg import network as N
from dwrseg import training as T
from dwrseg.cli import DESK_PRESET
from dwrseg.engine.gradcheck import finite_diff_check
from dwrseg.params import ParamStore, ParamVars, zero_init

SEED = 20240917


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def rnd(shape, seed):
    return np.random.default_rng([SEED, seed]).standard_normal(shape)


def test_criterion_1_parameter_counts(capsys):
    t0 = time.perf_counter()
    results = {}
    for variant in ("B", "L"):
        total, items = N.count_params(N.preset(variant))
        target = N.PARAM_TARGETS[variant]
        results[variant] = (total, 100.0 * (total - target) / target)
        assert len(items) > 50  # per-layer breakdown exists
    elapsed = time.perf_counter() - t0
    ok = all(abs(dev) <= 15.0 for _, dev in results.values()) and elapsed < 1.0
    with capsys.disabled():
        report("1. parameter counts within +/-15% of 2.54M / 3.53M", ok,
               f"B={results['B'][0]:,} ({results['B'][1]:+.1f}%), "
               f"L={results['L'][0]:,} ({results['L'][1]:+.1f}%), {elapsed:.2f}s")


def test_criterion_2_mac_counts(capsys):
    t0 = time.perf_counter()
    results = {}
    for variant in ("B", "L"):
        total, _ = N.count_macs(N.preset(variant), 512, 1024)
        target = N.MAC_TARGETS[variant]
        results[variant] = (total, 100.0 * (total - target) / target)
    elapsed = time.perf_counter() - t0
    ok = all(abs(dev) <= 10.0 for _, dev in results.values()) and elapsed < 1.0
    with capsys.disabled():
        report("2. MAC counts at 3x512x1024 within +/-10% of 13.62G / 16.42G", ok,
               f"B={results['B'][0] / 1e9:.2f}G ({results['B'][1]:+.1f}%), "
               f"L={results['L'][0] / 1e9:.2f}G ({results['L'][1]:+.1f}%), {elapsed:.2f}s")


def _per_op_checks():
    checks = []
    x = rnd((1, 2, 4, 4), 0)
    w = rnd((3, 2, 3, 3), 1)
    b = rnd((3,), 2)
    spec = E.ConvSpec(2, 3, 3, padding=1, has_bias=True)
    checks.append(("conv2d dense", finite_diff_check(
        lambda x, w, b: E.conv2d_forward(x, w, b, spec),
        lambda x, w, b, go: E.conv2d_backward(x, w, spec, go), [x, w, b])))
    spec_d = E.ConvSpec(3, 3, 3, padding=2, dilation=2, groups=3)
    xd, wd = rnd((1, 3, 5, 5), 3), rnd((3, 1, 3, 3), 4)
    checks.append(("conv2d depthwise dilated", finite_diff_check(
        lambda x, w: E.conv2d_forward(x, w, None, spec_d),
        lambda x, w, go: E.conv2d_backward(x, w, spec_d, go)[:2], [xd, wd])))
    spec_g = E.ConvSpec(4, 6, 3, padding=1, groups=2, stride=2)
    xg, wg = rnd((2, 4, 6, 6), 5), rnd((6, 2, 3, 3), 6)
    checks.append(("conv2d grouped strided", finite_diff_check(
        lambda x, w: E.conv2d_forward(x, w, None, spec_g),
        lambda x, w, go: E.conv2d_backward(x, w, spec_g, go)[:2], [xg, wg])))

    xb = rnd((2, 3, 2, 2), 7)

    def bn_fwd(x, g, b):
        return E.batchnorm_forward(x, E.BatchNormState(g, b, np.zeros(3), np.ones(3)),
                                   "train")

    def bn_bwd(x, g, b, go):
        return E.batchnorm_backward(x, E.BatchNormState(g, b, np.zeros(3), np.ones(3)),
                                    go, "train")

    checks.append(("batchnorm train", finite_diff_check(
        bn_fwd, bn_bwd, [xb, rnd((3,), 8), rnd((3,), 9)])))

    xr = rnd((1, 2, 3, 3), 10)
    xr[np.abs(xr) < 0.05] = 0.2
    checks.append(("relu", finite_diff_check(
        lambda x: E.relu_forward(x), lambda x, go: (E.relu_backward(x, go),), [xr])))
    xp = rnd((1, 2, 5, 5), 11)
    checks.append(("maxpool", finite_diff_check(
        lambda x: E.maxpool_forward(x, 3, 2, 1),
        lambda x, go: (E.maxpool_backward(x, 3, 2, 1, go),), [xp])))
    xu = rnd((1, 2, 3, 4), 12)
    checks.append(("upsample bilinear", finite_diff_check(
        lambda x: E.upsample_bilinear(x, 6, 9),
        lambda x, go: (E.upsample_bilinear_backward(x.shape, 6, 9, go),), [xu])))
    a, c = rnd((1, 2, 2, 2), 13), rnd((1, 3, 2, 2), 14)
    checks.append(("concat", finite_diff_check(
        lambda a, c: E.concat_channels([a, c]),
        lambda a, c, go: tuple(E.split_channels(go, [2, 3])), [a, c])))
    checks.append(("add", finite_diff_check(
        lambda x, y: E.add(x, y), lambda x, y, go: (go, go),
        [rnd((1, 2, 2, 2), 15), rnd((1, 2, 2, 2), 16)])))
    return checks


def _end_to_end_check(n_weights=110):
    """Central differences (eps=1e-3) on sampled weights of a float64 tiny net.

    The composite loss is piecewise smooth (ReLU kinks, pool argmax
    switches), so a secant across a kink does not estimate the derivative
    at the point.  Each probe is validated by step-halving consistency:
    the secants at eps and eps/2 must agree, which holds on any smooth
    segment and fails when the band crosses a kink.  Invalid probes are
    replaced so at least `n_weights` valid comparisons are made at the
    pinned eps.
    """
    cfg = N.preset("tiny", num_classes=3)
    store = N.build(cfg, rng_seed=1).astype(np.float64)
    x = np.random.default_rng([SEED, 17]).random((1, 3, 64, 64))
    labels = np.random.default_rng([SEED, 18]).integers(0, 3, (1, 64, 64))
    # keep every valid pixel so the kept set cannot flip under perturbation
    ohem = T.OhemConfig(prob_threshold=0.99, min_kept_fraction=1.0)

    def loss_value():
        logits, _ = N.infer(store, cfg, x, mode="train")
        return T.ohem_ce_loss(logits, labels, ohem)[0]

    tape = E.Tape()
    logits, _ = N.forward(store, cfg, x, mode="train", tape=tape)
    _, dlogits = T.ohem_ce_loss(logits.data, labels, ohem)
    grads = N.grads_from_backward(tape, store, logits, dlogits)

    entries = [(name, i) for name, arr in store.items() for i in
               range(0, arr.size, max(1, arr.size // 4))]
    picker = np.random.default_rng([SEED, 19])
    pool = [entries[i] for i in picker.permutation(len(entries))]

    def secant(flat, idx, orig, eps):
        flat[idx] = orig + eps
        lp = loss_value()
        flat[idx] = orig - eps
        lm = loss_value()
        flat[idx] = orig
        return (lp - lm) / (2 * eps)

    eps, worst, valid, skipped = 1e-3, 0.0, 0, 0
    for name, idx in pool:
        if valid >= n_weights:
            break
        flat = store[name].reshape(-1)
        orig = flat[idx]
        s1 = secant(flat, idx, orig, eps)
        s_half = secant(flat, idx, orig, eps / 2)
        if abs(s1 - s_half) > max(1e-5, 1e-3 * max(abs(s1), abs(s_half))):
            skipped += 1  # probe band crosses a kink; not a derivative estimate
            continue
        valid += 1
        analytic = float(grads[name].reshape(-1)[idx])
        err = abs(analytic - s1)
        if err > 1e-6:  # absolute floor below differencing noise
            worst = max(worst, err / max(abs(analytic), abs(s1), 1e-8))
    return worst, valid, skipped


def test_criterion_3_gradient_suite(capsys):
    t0 = time.perf_counter()
    per_op = _per_op_checks()
    op_ok = all(rep.passed for _, rep in per_op)
    worst_op = max(rep.max_rel_err for _, rep in per_op)
    e2e_err, n_sampled, skipped = _end_to_end_check()
    elapsed = time.perf_counter() - t0
    ok = op_ok and e2e_err <= 1e-2 and n_sampled >= 100 and elapsed < 300
    with capsys.disabled():
        for name, rep in per_op:
            if not rep.passed:
                print(f"    gradient check failed for {name}: {rep}")
        report("3. gradient suite (per-op 1e-3; end-to-end 1e-2 over >=100 weights)",
               ok, f"worst per-op {worst_op:.2e}, end-to-end {e2e_err:.2e} over "
                   f"{n_sampled} weights ({skipped} kink probes replaced), {elapsed:.1f}s")


def test_criterion_4_residual_identity(capsys):
    results = []
    x = rnd((2, 16, 10, 10), 20).astype(np.float32)
    for kind, cfg, fwd in (
        ("DWR", B.StageSpec("dwr", 1, 16, branch_count=3), B.dwr_forward),
        ("SIR", B.StageSpec("sir", 1, 16), B.sir_forward),
    ):
        # a declaring pass creates zero conv weights as it runs
        pv = ParamVars(E.Tape(record=False), ParamStore(), "train", init=zero_init)
        out = fwd(pv, "blk", pv.tape.leaf(x), cfg, 1)
        results.append((kind, np.array_equal(out.data, x)))
    ok = all(flag for _, flag in results)
    with capsys.disabled():
        report("4. zero-initialized stride-1 DWR/SIR blocks are the identity (bitwise)",
               ok, ", ".join(f"{k}={'exact' if f else 'MISMATCH'}" for k, f in results))


def test_criterion_5_dilation_tap_windows(capsys):
    details = []
    ok = True
    for d, expected in ((1, 3), (3, 7), (5, 11)):
        g, size = 6, 35
        spec = E.ConvSpec(g, g, 3, padding=d, dilation=d, groups=g)
        w = (np.abs(rnd((g, 1, 3, 3), 21 + d)) + 0.1).astype(np.float32)
        x = np.zeros((1, g, size, size), np.float32)
        x[0, :, size // 2, size // 2] = 1.0
        out = E.conv2d_forward(x, w, None, spec)
        nz = np.argwhere(np.abs(out[0]).sum(axis=0) > 0)
        span = (nz.max(axis=0) - nz.min(axis=0) + 1).tolist()
        centered = (nz.min(axis=0) == size // 2 - (expected - 1) // 2).all()
        ok &= span == [expected, expected] and bool(centered)
        details.append(f"d={d}: {span[0]}x{span[1]}")
    with capsys.disabled():
        report("5. SR delta responses confined to 3x3 / 7x7 / 11x11 windows",
               ok, ", ".join(details))


def test_criterion_6_shape_contract(capsys):
    x = np.random.default_rng([SEED, 22]).random((1, 3, 64, 64), dtype=np.float32)
    ok = True
    for variant in ("B", "L"):
        cfg = N.preset(variant, num_classes=19)
        store = N.build(cfg, rng_seed=4)
        logits, taps = N.infer(store, cfg, x)
        ok &= logits.shape == (1, 19, 64, 64)
        ok &= taps["s2"].shape == (1, 64, 8, 8)
        ok &= taps["s3"].shape == (1, 128, 4, 4)
        ok &= taps["s4"].shape == (1, 128, 2, 2)
    with capsys.disabled():
        report("6. B/L forward: 1x3x64x64 -> 1x19x64x64 logits; taps 1/8 1/16 1/32",
               ok, "channels 64/128/128")


def test_criterion_7_desk_scale_training(capsys, tmp_path):
    # two seed-0 desk runs of the CLI at once, each in its own process and out dir
    t0 = time.perf_counter()
    config = tmp_path / "desk.json"
    config.write_text(json.dumps(DESK_PRESET), encoding="utf-8")
    path = [str(Path(N.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = [subprocess.Popen([sys.executable, "-m", "dwrseg.cli", "--threads", "1", "train",
                              "--config", str(config), "--seed", "0",
                              "--out", str(tmp_path / run)],
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            for run in ("a", "b")]
    try:
        errors = [run.communicate(timeout=30 * 60)[1].decode() for run in runs]
    finally:
        for run in runs:
            run.kill()
    elapsed = (time.perf_counter() - t0) / 60.0
    assert [run.returncode for run in runs] == [0, 0], errors
    files = ("metrics.jsonl", "eval.json", "checkpoint.dwck")
    same = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    miou = json.loads((tmp_path / "a" / "eval.json").read_text(encoding="utf-8"))["miou"]
    ok = miou >= 0.80 and same and elapsed <= 30.0
    with capsys.disabled():
        report("7. tiny desk training (4 classes, 256/64, 2000 iters, batch 4): "
               "val mIoU >= 0.80, seeded runs identical", ok,
               f"mIoU={miou:.3f}, {', '.join(files)} {'identical' if same else 'DIFFER'}, "
               f"{elapsed:.1f} min")


def test_criterion_8_ohem_unit_vectors(capsys):
    checks = []
    loss, _ = T.ohem_ce_loss(np.zeros((1, 2, 1, 1), np.float32),
                             np.zeros((1, 1, 1), np.int64), T.OhemConfig())
    checks.append(abs(loss - np.log(2)) < 1e-6)

    lg = np.zeros((1, 2, 1, 4), np.float32)
    for i, p in enumerate([0.9, 0.95, 0.5, 0.6]):
        lg[0, 0, 0, i] = np.log(p / (1 - p))
    loss, grad = T.ohem_ce_loss(lg, np.zeros((1, 1, 4), np.int64),
                                T.OhemConfig(prob_threshold=0.7, min_kept_fraction=0.25))
    expected = float(np.mean([-np.log(0.5), -np.log(0.6)]))
    support = (np.abs(grad).sum(axis=1).ravel() > 0).tolist()
    checks.append(abs(loss - expected) < 1e-5 and support == [False, False, True, True])

    loss, grad = T.ohem_ce_loss(lg, np.full((1, 1, 4), 255, np.int64), T.OhemConfig())
    checks.append(loss == 0.0 and not grad.any())
    ok = all(checks)
    with capsys.disabled():
        report("8. OHEM unit vectors (ln 2 case; 4-pixel selection; all-ignore)", ok,
               f"checks={checks}")


def test_criterion_9_receptive_field_analyses(capsys):
    # (a) trace equals an independent hand-composition of the rule
    rep = A.network_rf_report(N.preset("B"))

    def compose(layers):
        rf, jump = 1, 1
        for k, s, d in layers:
            rf += (k - 1) * d * jump
            jump *= s
        return rf, jump

    stem = [(3, 2, 1), (1, 1, 1), (3, 2, 1), (3, 1, 1)]
    s2 = [(3, 2, 1), (1, 1, 1)] + [(3, 1, 1), (1, 1, 1)] * 6
    s3 = [(3, 2, 1), (3, 1, 3), (1, 1, 1)] + [(3, 1, 1), (3, 1, 3), (1, 1, 1)] * 2
    s4 = [(3, 2, 1), (3, 1, 5), (1, 1, 1)] + [(3, 1, 1), (3, 1, 5), (1, 1, 1)] * 2
    hand_rf, hand_jump = compose(stem + s2 + s3 + s4)
    trace_ok = rep["final_rf"] == hand_rf == 1607 and rep["final_jump"] == hand_jump == 32

    # (b) ERF is zero outside the theoretical window
    cfg = N.preset("tiny", num_classes=4)
    params = N.build(cfg, rng_seed=5)
    x = np.random.default_rng([SEED, 23]).random((1, 3, 64, 64), dtype=np.float32)
    tiny_rep = A.network_rf_report(cfg)
    trace_by_layer = {row["layer"]: row for row in tiny_rep["trace"]}
    erf_ok = True
    for stage, last_layer, unit in (("s2", "s2.1.proj", (4, 3)),
                                    ("s3", "s3.1.merge", (2, 1)),
                                    ("s4", "s4.1.merge", (1, 1))):
        heat = A.erf_map(params, cfg, x, unit, stage=stage)
        rf, jump = trace_by_layer[last_layer]["rf"], trace_by_layer[last_layer]["jump"]
        lo_y, hi_y = A.rf_window(rf, jump, unit[0], 64)
        lo_x, hi_x = A.rf_window(rf, jump, unit[1], 64)
        outside = heat.copy()
        outside[lo_y:hi_y + 1, lo_x:hi_x + 1] = 0.0
        erf_ok &= not outside.any() and heat.any()

    # (c) PMF/CDF invariants on a probe-trained tiny model
    probe_cfg = N.preset("tiny", num_classes=4, probe=True)
    probe_params = N.build(probe_cfg, rng_seed=6)
    spec = D.ShapesSpec(canvas=(32, 32), num_classes=4, size_range=(8, 14), seed=8)
    ds = D.make_dataset(spec, 24)
    T.train_loop(probe_params, probe_cfg, ds,
                 T.TrainConfig(iters=60, batch_size=2, seed=1, log_every=0))
    stats = A.branch_weight_stats(probe_params, probe_cfg, bins=16)
    pmf_ok = all(
        abs(p.sum() - 1.0) < 1e-9 and (np.diff(c) >= -1e-12).all()
        and abs(c[-1] - 1.0) < 1e-9
        for s in stats for p, c in zip(s.pmf, s.cdf))

    ok = trace_ok and erf_ok and pmf_ok
    with capsys.disabled():
        report("9. RF analyses: pinned trace, ERF confinement, probe PMF/CDF", ok,
               f"trace rf={rep['final_rf']} (hand {hand_rf}), erf_ok={erf_ok}, "
               f"pmf_ok={pmf_ok}")


def test_criterion_10_persistence(capsys, tmp_path):
    cfg = N.preset("tiny", num_classes=4)
    store = N.build(cfg, rng_seed=7)
    N.infer(store, cfg, np.random.default_rng(0).random((2, 3, 32, 32),
                                                        dtype=np.float32), mode="train")
    p1, p2 = tmp_path / "a.dwck", tmp_path / "b.dwck"
    N.save_checkpoint(store, cfg, p1)
    loaded, cfg2 = N.load_checkpoint(p1)
    N.save_checkpoint(loaded, cfg2, p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    img8 = np.random.default_rng(1).integers(0, 256, (1, 3, 6, 7)).astype(np.float32) / 255
    D.write_ppm(tmp_path / "i.ppm", img8.astype(np.float32))
    ppm_ok = np.array_equal(D.read_ppm(tmp_path / "i.ppm"), img8.astype(np.float32))
    mask = np.array([[0, 3], [255, 1]], np.int32)
    D.write_pgm(tmp_path / "m.pgm", mask)
    pgm_ok = np.array_equal(D.read_pgm(tmp_path / "m.pgm"), mask)
    arr = np.random.default_rng(2).standard_normal((2, 3, 4, 5)).astype(np.float32)
    E.write_nt(tmp_path / "t.nt", arr)
    nt_ok = np.array_equal(E.read_nt(tmp_path / "t.nt"), arr)

    ok = ckpt_ok and ppm_ok and pgm_ok and nt_ok
    with capsys.disabled():
        report("10. persistence: checkpoint byte-identical; PPM/PGM/.nt lossless", ok,
               f"ckpt={ckpt_ok}, ppm={ppm_ok}, pgm={pgm_ok}, nt={nt_ok}")
