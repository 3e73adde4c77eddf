"""Correctness checks, each against an independent computation.

Nothing here compares with a stored copy of earlier output.  The op checks
recompute sampled output elements in float64 straight from each op's
definition (README "Conventions"); the training checks count mIoU with
their own confusion matrix and compare gradients with central finite
differences.  Every check returns `(name, ok, detail)`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

EPS32 = float(np.finfo(np.float32).eps)

def _conv_kind(spec):
    if spec.stride > 1 and spec.groups == 1:
        return "conv_strided"
    if spec.dilation > 1 and spec.groups > 1:
        return "conv_dilated_depthwise"
    if spec.kernel == 1 and spec.has_bias:
        return "conv_pointwise_bias"
    return None


@contextmanager
def capture_first_calls(ops):
    """Wrap the forward ops of `ops` and keep the first call of each kind.

    Yields a dict kind -> (args, output); arguments and outputs are copied
    so later in-place work cannot change them.
    """
    seen: dict = {}

    def keep(kind, args, out):
        if kind is not None and kind not in seen:
            copied = tuple([a.copy() for a in x] if isinstance(x, list)
                           else x.copy() if isinstance(x, np.ndarray) else x for x in args)
            seen[kind] = (copied, out.copy())

    originals = {}

    def patch(name, classify):
        fn = getattr(ops, name)
        originals[name] = fn

        def wrapper(*args):
            out = fn(*args)
            keep(classify(args), args, out)
            return out

        setattr(ops, name, wrapper)

    patch("conv2d_forward", lambda a: _conv_kind(a[3]))
    patch("batchnorm_forward", lambda a: "batchnorm_eval" if a[2] == "eval" else None)
    patch("upsample_bilinear", lambda a: "upsample")
    patch("maxpool_forward", lambda a: "maxpool")
    patch("relu_forward", lambda a: "relu")
    patch("concat_channels", lambda a: "concat")
    patch("add", lambda a: "add")
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(ops, name, fn)


def _sample_positions(shape, rng, count):
    """Random output positions plus every corner of the spatial plane."""
    n, c, h, w = shape
    pos = [(int(rng.integers(n)), int(rng.integers(c)), y, x)
           for y in (0, h - 1) for x in (0, w - 1)]
    pos += [tuple(int(rng.integers(d)) for d in shape) for _ in range(count)]
    return pos


def _ref_conv(args, p):
    x, w, b, spec = args
    n, o, oy, ox = p
    k, s, d, pad = spec.kernel, spec.stride, spec.dilation, spec.padding
    cg = spec.in_channels // spec.groups
    g = o // (spec.out_channels // spec.groups)
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    rows, cols = oy * s - pad + ii * d, ox * s - pad + jj * d
    inside = (rows >= 0) & (rows < x.shape[2]) & (cols >= 0) & (cols < x.shape[3])
    window = np.zeros((cg, k, k))
    window[:, inside] = x[n, g * cg:(g + 1) * cg][:, rows[inside], cols[inside]]
    terms = window * w[o].astype(np.float64)
    bias = float(b[o]) if b is not None else 0.0
    return terms.sum() + bias, np.abs(terms).sum() + abs(bias), terms.size + 1


def _ref_batchnorm(args, p):
    x, st, _ = args
    n, c, y, xx = p
    scale = float(st.gamma[c]) / np.sqrt(float(st.running_var[c]) + st.eps)
    centered = float(x[n, c, y, xx]) - float(st.running_mean[c])
    return centered * scale + float(st.beta[c]), abs(centered * scale) + abs(float(st.beta[c])), 8


def _half_pixel(dst, n_in, n_out):
    src = min(max((dst + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
    lo = int(np.floor(src))
    return lo, min(lo + 1, n_in - 1), src - lo


def _ref_upsample(args, p):
    x, out_h, out_w = args
    n, c, y, xx = p
    y0, y1, fy = _half_pixel(y, x.shape[2], out_h)
    x0, x1, fx = _half_pixel(xx, x.shape[3], out_w)
    terms = np.array([(1 - fy) * (1 - fx) * float(x[n, c, y0, x0]),
                      (1 - fy) * fx * float(x[n, c, y0, x1]),
                      fy * (1 - fx) * float(x[n, c, y1, x0]),
                      fy * fx * float(x[n, c, y1, x1])])
    return terms.sum(), np.abs(terms).sum(), 8


def _ref_maxpool(args, p):
    x, k, s, pad = args
    n, c, oy, ox = p
    best = -np.inf
    for i in range(k):
        for j in range(k):
            r, q = oy * s - pad + i, ox * s - pad + j
            if 0 <= r < x.shape[2] and 0 <= q < x.shape[3]:
                best = max(best, float(x[n, c, r, q]))
    return best, 0.0, 0


def _ref_relu(args, p):
    return max(float(args[0][p]), 0.0), 0.0, 0


def _ref_concat(args, p):
    n, c, y, xx = p
    for part in args[0]:
        if c < part.shape[1]:
            return float(part[n, c, y, xx]), 0.0, 0
        c -= part.shape[1]
    raise IndexError("channel beyond the concatenated inputs")


def _ref_add(args, p):
    a, b = float(args[0][p]), float(args[1][p])
    return a + b, abs(a) + abs(b), 1


REFERENCES = {
    "conv_strided": _ref_conv,
    "conv_dilated_depthwise": _ref_conv,
    "conv_pointwise_bias": _ref_conv,
    "batchnorm_eval": _ref_batchnorm,
    "upsample": _ref_upsample,
    "maxpool": _ref_maxpool,
    "relu": _ref_relu,
    "concat": _ref_concat,
    "add": _ref_add,
}


def check_op_samples(captured: dict, seed: int, count: int = 256) -> list:
    """Recompute sampled outputs of each captured op in float64.

    An element passes when it is within float32 rounding of the reference:
    |out - ref| <= terms * eps32 * sum|terms|, the worst-case bound of a
    float32 sum of that many terms.  Max, ReLU and concat must be exact.
    """
    rng = np.random.default_rng([seed, 0xC4EC])
    results = []
    for kind, ref in REFERENCES.items():
        if kind not in captured:
            results.append((f"op:{kind}", False, "op kind never called"))
            continue
        args, out = captured[kind]
        worst, bad = 0.0, 0
        for p in _sample_positions(out.shape, rng, count):
            value, scale, terms = ref(args, p)
            err = abs(float(out[p]) - value)
            tol = terms * EPS32 * scale
            if err > tol:
                bad += 1
            if scale:
                worst = max(worst, err / scale)
        results.append((f"op:{kind}", bad == 0,
                        f"{bad} bad of {count + 4} samples, worst |err|/scale {worst:.2e}"))
    return results


def confusion_miou(preds, masks, num_classes: int, ignore_label: int) -> float:
    """Mean IoU over classes that occur, from a confusion matrix counted here."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred, gt in zip(preds, masks):
        keep = gt != ignore_label
        np.add.at(cm, (gt[keep].astype(np.int64), pred[keep].astype(np.int64)), 1)
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float(np.mean(tp[present] / union[present]))


def finite_difference_grads(loss_at, store, grads, groups, per_group: int, seed: int,
                            eps: float = 1e-6, tolerance: float = 1e-2) -> tuple:
    """Central differences at sampled weights of every group, vs analytic grads.

    `loss_at()` evaluates the loss at the current values of `store` (a
    float64 copy).  Each probe is kept only when the secants at eps and
    eps/2 agree (step-halving filter): a secant across a ReLU or pooling
    kink is not a derivative estimate.  The step is below the 1e-3 of the
    acceptance gate because a stem weight feeds every ReLU and pooling
    unit downstream: in B at 64x64 (about 2e5 units) a step of 1e-3
    crosses dozens of kinks and almost every stem probe is filtered out.
    In float64 the differencing noise at 1e-6 stays below 1e-8.
    Returns (ok, detail).
    """
    rng = np.random.default_rng([seed, 0xFD])
    worst, valid, skipped, short = 0.0, 0, 0, []

    def secant(flat, idx, orig, h):
        flat[idx] = orig + h
        lp = loss_at()
        flat[idx] = orig - h
        lm = loss_at()
        flat[idx] = orig
        return (lp - lm) / (2 * h)

    for group in groups:
        names = [n for n in store.names() if n.split(".", 1)[0] == group]
        got, tries = 0, 0
        while got < per_group and tries < 4 * per_group:
            tries += 1
            name = names[int(rng.integers(len(names)))]
            flat = store[name].reshape(-1)
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            s1, s_half = secant(flat, idx, orig, eps), secant(flat, idx, orig, eps / 2)
            if abs(s1 - s_half) > max(1e-5, 1e-3 * max(abs(s1), abs(s_half))):
                skipped += 1
                continue
            got += 1
            analytic = float(grads[name].reshape(-1)[idx])
            err = abs(analytic - s1)
            if err > 1e-6:
                worst = max(worst, err / max(abs(analytic), abs(s1), 1e-8))
        valid += got
        if got < per_group:
            short.append(group)
    ok = worst <= tolerance and not short
    detail = (f"worst rel err {worst:.2e} over {valid} weights in {len(groups)} groups "
              f"({skipped} kink probes skipped)")
    if short:
        detail += f"; too few smooth probes in {short}"
    return ok, detail


def gradient_check(dw, params, net_cfg, seed: int, per_group: int = 10) -> tuple:
    """Backprop gradient of the OHEM loss vs central differences, in float64.

    Runs on a float64 copy of `params` and one 64x64 shapes image, with the
    calls `training.train_loop` makes (forward, OHEM loss, backward).  The
    OHEM config keeps every valid pixel, so the kept set cannot flip under
    a perturbation; the sampled weights cover every top-level group
    (stem, s2, s3, s4, decoder, head).
    """
    store = params.astype(np.float64)
    sample = dw.data.generate(dw.data.ShapesSpec(canvas=(64, 64),
                                                 num_classes=net_cfg.num_classes,
                                                 seed=seed), 0)
    x, labels = sample.image.astype(np.float64), sample.mask[None]
    ohem = dw.training.OhemConfig(prob_threshold=0.99, min_kept_fraction=1.0)

    def loss_at():
        logits, _ = dw.network.infer(store, net_cfg, x, mode="train")
        return dw.training.ohem_ce_loss(logits, labels, ohem)[0]

    tape = dw.Tape()
    logits, _ = dw.network.forward(store, net_cfg, x, mode="train", tape=tape)
    _, dlogits = dw.training.ohem_ce_loss(logits.data, labels, ohem)
    grads = dw.network.grads_from_backward(tape, store, logits, dlogits)
    groups = sorted({n.split(".", 1)[0] for n in store.names()})
    return finite_difference_grads(loss_at, store, grads, groups, per_group, seed)
