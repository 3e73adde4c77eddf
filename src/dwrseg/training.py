"""Optimization recipe: SGD + momentum + weight decay, poly LR schedule,
cross-entropy with online hard example mining, mIoU, augmentation, and the
training loop.

Hard-example mining keeps the pixels whose true-class probability falls
below a threshold; if that set is smaller than a floor (a fraction of the
valid pixels) the hardest pixels are kept up to the floor, ties broken by
pixel index.  The loss is the mean over kept pixels and the gradient is
zero everywhere else.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .data import IGNORE_LABEL, Sample
from .engine import NumericError, ShapeError, Tape, ops
from .network import NetworkConfig, forward, grads_from_backward, predict_labels
from .params import ParamStore


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """The momentum buffers of one run, beside the recipe they follow."""
    cfg: TrainConfig
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """lr_base * (1 - iter/iters) ** poly_power, clamped at the end."""
    if cfg.iters == 0:  # a schedule of no iterations is at its end
        return 0.0
    frac = min(max(iteration / cfg.iters, 0.0), 1.0)
    return cfg.lr_base * (1.0 - frac) ** cfg.poly_power


def _decay_exempt(name: str) -> bool:
    # batch-norm affine parameters are not weight-decayed
    return name.endswith((".bn.gamma", ".bn.beta"))


def sgd_step(params: ParamStore, grads: dict[str, np.ndarray],
             state: OptimizerState, lr: float) -> None:
    """v <- momentum*v + grad + wd*param;  param <- param - lr*v  (in place)."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, param {p.shape}")
        wd = 0.0 if _decay_exempt(name) else state.cfg.weight_decay
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            state.velocity[name] = v
        v *= state.cfg.momentum
        v += g
        if wd:
            v += wd * p
        p -= (lr * v).astype(p.dtype)


# ---------------------------------------------------------------------------
# OHEM cross-entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OhemConfig:
    prob_threshold: float = 0.7
    min_kept_fraction: float = 1.0 / 16.0
    ignore_label: int = IGNORE_LABEL

    def __post_init__(self):
        if not 0.0 < self.prob_threshold < 1.0:
            raise ValueError(f"prob_threshold must be in (0,1), got {self.prob_threshold}")
        if not 0.0 < self.min_kept_fraction <= 1.0:
            raise ValueError(f"min_kept_fraction must be in (0,1], got {self.min_kept_fraction}")


def ohem_ce_loss(logits: np.ndarray, labels: np.ndarray, cfg: OhemConfig):
    """(scalar loss, dL/dlogits) of mean cross-entropy over the kept pixels."""
    if logits.ndim != 4:
        raise ShapeError(f"logits must be (n, classes, h, w), got {logits.shape}")
    n, num_classes, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} != ({n}, {h}, {w})")
    labels = labels.astype(np.int64)
    valid = labels != cfg.ignore_label
    bad = valid & ((labels < 0) | (labels >= num_classes))
    if bad.any():
        raise ValueError(f"{int(bad.sum())} label(s) outside [0, {num_classes})")

    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(logits)

    # stable log-softmax over the class axis
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp

    safe_labels = np.where(valid, labels, 0)
    logp_true = np.take_along_axis(logp, safe_labels[:, None], axis=1)[:, 0]
    p_true = np.exp(logp_true)

    kept = valid & (p_true < cfg.prob_threshold)
    min_kept = min(math.ceil(cfg.min_kept_fraction * n_valid), n_valid)
    if int(kept.sum()) < min_kept:
        # hardest = lowest true-class probability, ties by flat pixel index as
        # a stable argsort takes them: every pixel below the min_kept-th
        # lowest probability, then the first ones at it
        flat_p = np.where(valid, p_true, np.inf).reshape(-1)
        floor = np.partition(flat_p, min_kept - 1)[min_kept - 1]
        kept = flat_p < floor
        kept[np.flatnonzero(flat_p == floor)[:min_kept - int(kept.sum())]] = True
        kept = kept.reshape(valid.shape)

    k = int(kept.sum())
    loss = float(-logp_true[kept].sum() / k)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite OHEM loss ({loss})")

    # softmax minus the one-hot label, masked: s - 1 at the label, s elsewhere
    grad = np.exp(logp)
    label_idx = safe_labels[:, None]
    np.put_along_axis(grad, label_idx, np.take_along_axis(grad, label_idx, axis=1) - 1,
                      axis=1)
    grad *= (kept.astype(logits.dtype) / k)[:, None]
    return loss, grad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def confusion_matrix(pred: np.ndarray, gt: np.ndarray, num_classes: int,
                     ignore_label: int) -> np.ndarray:
    keep = gt != ignore_label
    gt = gt[keep].astype(np.int64)
    bad = np.count_nonzero((gt < 0) | (gt >= num_classes))
    if bad:
        raise ValueError(f"{bad} label(s) outside [0, {num_classes})")
    idx = num_classes * gt + pred[keep].astype(np.int64)
    return np.bincount(idx, minlength=num_classes ** 2).reshape(num_classes, num_classes)


def iou_from_confusion(cm: np.ndarray):
    """(per-class IoU with NaN for absent classes, mean over present classes)."""
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    iou = np.full(len(cm), np.nan)
    present = union > 0
    iou[present] = tp[present] / union[present]
    mean = float(np.nanmean(iou)) if present.any() else float("nan")
    return iou, mean


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentConfig:
    scale_range: tuple[float, float] = (1.0, 1.0)
    crop: tuple[int, int] = (640, 1280)  # (h, w)
    hflip_prob: float = 0.5
    brightness: float = 0.0
    contrast: float = 0.0
    saturation: float = 0.0

    def __post_init__(self):
        if not 0 < self.scale_range[0] <= self.scale_range[1] < math.inf:
            raise ValueError(f"scale_range {self.scale_range} must be (min, max) with "
                             f"0 < min <= max < inf")
        if min(self.crop) < 1:
            raise ValueError(f"crop must be two sizes >= 1, got {self.crop}")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError(f"hflip_prob must be in [0, 1], got {self.hflip_prob}")
        for name in ("brightness", "contrast", "saturation"):
            v = getattr(self, name)
            # augment draws from uniform(1 - v, 1 + v), which needs a finite width
            if not (v >= 0 and math.isfinite((1 + v) - (1 - v))):
                raise ValueError(f"{name} must be >= 0 with 1 +- {name} a finite range, got {v}")


def resize_image_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel bilinear resize for (1,3,h,w) images (up or down)."""
    if img.shape[2:] == (out_h, out_w):
        return img
    out = ops.resize_bilinear(img, out_h, out_w)
    # memory order (w, h, n, c), so the jitter and pad-fill means sum as they always have
    return np.ascontiguousarray(out.transpose(3, 2, 0, 1)).transpose(2, 3, 1, 0)


def resize_mask_nearest(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = mask.shape
    if (out_h, out_w) == (h, w):
        return mask
    ys = np.clip(np.floor((np.arange(out_h) + 0.5) * (h / out_h)), 0, h - 1).astype(np.int64)
    xs = np.clip(np.floor((np.arange(out_w) + 0.5) * (w / out_w)), 0, w - 1).astype(np.int64)
    return mask[ys][:, xs]


def augment(sample: Sample, cfg: AugmentConfig, rng: np.random.Generator,
            ignore_label: int) -> Sample:
    """Random resample, pad (masks with ignore_label), crop, horizontal flip,
    color jitter (image only).

    Deterministic for a given RNG state.  Transforms that would be identity
    (unit scale, full crop, zero jitter) leave the arrays bitwise unchanged.
    """
    img, mask = sample.image, sample.mask
    ch, cw = cfg.crop

    lo, hi = cfg.scale_range
    scale = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    if scale != 1.0:
        h, w = mask.shape
        if not math.isfinite(max(h, w) * scale):
            raise ValueError(f"scale {scale} resamples a {h}x{w} image to an unbounded size")
        nh, nw = max(1, round(h * scale)), max(1, round(w * scale))
        img = resize_image_bilinear(img, nh, nw)
        mask = resize_mask_nearest(mask, nh, nw)

    h, w = mask.shape
    pad_h, pad_w = max(0, ch - h), max(0, cw - w)
    if pad_h or pad_w:
        fill = img.mean(axis=(0, 2, 3), keepdims=True)
        padded = np.broadcast_to(fill, (1, 3, h + pad_h, w + pad_w)).astype(img.dtype).copy()
        padded[:, :, :h, :w] = img
        img = padded
        mask = np.pad(mask, ((0, pad_h), (0, pad_w)), constant_values=ignore_label)
        h, w = mask.shape

    if (h, w) != (ch, cw):
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        img = np.ascontiguousarray(img[:, :, top:top + ch, left:left + cw])
        mask = np.ascontiguousarray(mask[top:top + ch, left:left + cw])

    if cfg.hflip_prob > 0 and rng.uniform() < cfg.hflip_prob:
        img = np.ascontiguousarray(img[:, :, :, ::-1])
        mask = np.ascontiguousarray(mask[:, ::-1])

    if cfg.brightness > 0:
        img = img * np.float32(rng.uniform(1 - cfg.brightness, 1 + cfg.brightness))
    if cfg.contrast > 0:
        c = np.float32(rng.uniform(1 - cfg.contrast, 1 + cfg.contrast))
        mean = img.mean(dtype=np.float32)
        img = (img - mean) * c + mean
    if cfg.saturation > 0:
        s = np.float32(rng.uniform(1 - cfg.saturation, 1 + cfg.saturation))
        luma = (0.299 * img[:, 0] + 0.587 * img[:, 1] + 0.114 * img[:, 2])[:, None]
        img = img * s + luma * (1 - s)
    if cfg.brightness > 0 or cfg.contrast > 0 or cfg.saturation > 0:
        img = np.clip(img, 0.0, 1.0)

    return Sample(image=np.ascontiguousarray(img, dtype=np.float32),
                  mask=np.ascontiguousarray(mask))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    iters: int = 2000
    batch_size: int = 4
    seed: int = 0
    lr_base: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0005
    poly_power: float = 0.9
    ohem: OhemConfig = field(default_factory=OhemConfig)
    augment: AugmentConfig | None = None
    log_every: int = 50
    eval_every: int = 0  # 0 = only at the end

    def __post_init__(self):
        for name, low in (("iters", 0), ("batch_size", 1), ("seed", 0), ("log_every", 0),
                          ("eval_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # SGD scales by lr_base and weight_decay, and poly_lr raises 0.0 to
        # poly_power at the end of the schedule
        for name in ("lr_base", "weight_decay", "poly_power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")
        if not 0 <= self.momentum < 1:  # the velocity would not decay
            raise ValueError(f"momentum must be >= 0 and < 1, got {self.momentum}")


def _batch_order(size: int, cfg: TrainConfig):
    """The dataset indices of each iteration's batch: the samples in
    seeded permutations, one after another."""
    order_rng = np.random.default_rng([cfg.seed, 0xD5EC])
    order: list[int] = []
    for _ in range(cfg.iters):
        while len(order) < cfg.batch_size:
            order.extend(order_rng.permutation(size).tolist())
        indices, order = order[:cfg.batch_size], order[cfg.batch_size:]
        yield indices


def _assemble_batch(dataset, indices, cfg: TrainConfig, iteration):
    imgs, masks = [], []
    for slot, idx in enumerate(indices):
        s = dataset[idx]
        if cfg.augment is not None:
            rng = np.random.default_rng([cfg.seed, iteration, slot])
            s = augment(s, cfg.augment, rng, cfg.ohem.ignore_label)
        imgs.append(s.image)
        masks.append(s.mask[None])
    return np.concatenate(imgs, axis=0), np.concatenate(masks, axis=0)


def _widen_pipe(write_fd: int) -> None:
    """Give the pipe room for a few desk batches (1 MiB, an unprivileged
    process's limit).

    With the default 64 KiB, each desk batch (256 KiB) took several reads
    and writes that waited on each other: on a 2-core host, taking a batch
    cost the parent about 0.5 ms instead of 0.2 ms.  It is a hint, so where
    the host refuses it (or is not Linux) the batches only come later.
    """
    import fcntl  # POSIX, as os.fork is

    with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux only
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)


def _batches(dataset, cfg: TrainConfig):
    """Each iteration's (images, labels), as `_assemble_batch` makes them.

    At more than one worker and more than one batch, a forked child
    assembles batches 1, 2, ... ahead and writes them to a pipe while this
    process assembles batch 0 and trains: augmentation is Python and numpy
    that the interpreter lock would serialize with training on a thread.
    The child's bands run inline (`ops` drops the pool in a forked child),
    so its batches are bitwise the ones made here.  An exception the child
    raises on batch k is raised here, with its type and message, when batch
    k is due.  The child is killed and reaped when this generator ends or
    is closed, so no child outlives a caller that closes it.
    """
    order = _batch_order(len(dataset), cfg)
    if ops.workers() == 1 or cfg.iters < 2 or not hasattr(os, "fork"):
        for it, indices in enumerate(order):
            yield _assemble_batch(dataset, indices, cfg, it)
        return
    first = next(order)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        code = 1
        try:
            os.close(read_fd)
            _widen_pipe(write_fd)
            with open(write_fd, "wb") as pipe:
                for it, indices in enumerate(order, start=1):
                    try:
                        batch = _assemble_batch(dataset, indices, cfg, it)
                    except Exception as exc:  # raised in the parent at batch it
                        pickle.dump(exc, pipe)
                        break
                    pickle.dump(batch, pipe, protocol=5)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)  # so no cleanup of the parent's (atexit, finalizers) runs twice
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            yield _assemble_batch(dataset, first, cfg, 0)
            for _ in range(1, cfg.iters):
                try:
                    got = pickle.load(pipe)  # written by the child above
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError("the batch process ended before sending "
                                            "its next batch") from None
                if isinstance(got, BaseException):
                    raise got
                yield got
    finally:
        os.kill(pid, signal.SIGKILL)  # not reaped yet, so pid is still this child
        os.waitpid(pid, 0)


def evaluate(params: ParamStore, net_cfg: NetworkConfig, dataset,
             ignore_label: int) -> dict:
    """Eval-mode mIoU / pixel accuracy over a dataset of samples of any size."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    n_classes = net_cfg.num_classes
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for s in dataset:
        pred = predict_labels(params, net_cfg, s.image)[0]
        cm += confusion_matrix(pred, s.mask, n_classes, ignore_label)
    iou, mean = iou_from_confusion(cm)
    total = cm.sum()
    return {
        "miou": mean,
        "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
        "pixel_accuracy": float(np.trace(cm) / total) if total else float("nan"),
        "confusion_matrix": cm.tolist(),
        "num_samples": len(dataset),
    }


def train_loop(params: ParamStore, net_cfg: NetworkConfig, dataset,
               cfg: TrainConfig, val_dataset=None, log_path=None,
               callbacks=()) -> list[dict]:
    """Deterministic SGD training; returns the metric log (one dict per record).

    An iteration is recorded every `log_every` iterations and at the last,
    and with `val_dataset` every `eval_every` iterations (not at 0), with
    the validation mIoU; 0 turns either schedule off.  With `val_dataset`
    the last record holds the final validation mIoU, and the whole
    `evaluate` report under "eval", which `log_path` leaves out.
    At more than one worker the batches come from one forked child (see
    `_batches`), which has ended when this returns or raises.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    opt = OptimizerState(cfg)
    log: list[dict] = []

    def record(entry):
        log.append(entry)
        for cb in callbacks:
            cb(entry)

    with contextlib.closing(_batches(dataset, cfg)) as batches:
        for it, (images, labels) in enumerate(batches):
            tape = Tape()
            logits, _ = forward(params, net_cfg, images, mode="train", tape=tape)
            loss, dlogits = ohem_ce_loss(logits.data, labels, cfg.ohem)
            grads = grads_from_backward(tape, params, logits, dlogits)
            lr = poly_lr(it, cfg)
            sgd_step(params, grads, opt, lr)

            evaluating = (val_dataset is not None and cfg.eval_every and it
                          and it % cfg.eval_every == 0)
            if evaluating or (cfg.log_every
                              and (it % cfg.log_every == 0 or it == cfg.iters - 1)):
                entry = {"iter": it, "lr": lr, "loss": loss}
                if evaluating:
                    entry["miou"] = evaluate(params, net_cfg, val_dataset,
                                             cfg.ohem.ignore_label)["miou"]
                record(entry)

    if val_dataset is not None:
        final = evaluate(params, net_cfg, val_dataset, cfg.ohem.ignore_label)
        record({"iter": cfg.iters, "lr": poly_lr(cfg.iters, cfg), "loss": None,
                "miou": final["miou"], "eval": final})

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as f:
            for entry in log:
                scalars = {k: v for k, v in entry.items() if k != "eval"}
                f.write(json.dumps(scalars, separators=(",", ":")) + "\n")
    return log
