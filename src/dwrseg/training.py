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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Sample
from .engine import NumericError, ShapeError, Tape, ops
from .network import NetworkConfig, forward, grads_from_backward, infer
from .params import ParamStore


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    lr_base: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0005
    poly_power: float = 0.9
    max_iters: int = 1000
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def poly_lr(iteration: int, state: OptimizerState) -> float:
    """lr_base * (1 - iter/max_iters) ** poly_power, clamped at the end."""
    frac = min(max(iteration / state.max_iters, 0.0), 1.0)
    return state.lr_base * (1.0 - frac) ** state.poly_power


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
        wd = 0.0 if _decay_exempt(name) else state.weight_decay
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            state.velocity[name] = v
        v *= state.momentum
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
    ignore_label: int = 255

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

    grad = np.zeros_like(logits)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, grad

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
        # hardest = lowest true-class probability; ties by flat pixel index
        flat_p = np.where(valid, p_true, np.inf).reshape(-1)
        order = np.argsort(flat_p, kind="stable")
        kept = np.zeros(flat_p.shape, dtype=bool)
        kept[order[:min_kept]] = True
        kept = kept.reshape(valid.shape)

    k = int(kept.sum())
    loss = float(-logp_true[kept].sum() / k)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite OHEM loss ({loss})")

    softmax = np.exp(logp)
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, safe_labels[:, None], 1.0, axis=1)
    mask = (kept.astype(logits.dtype) / k)[:, None]
    grad = (softmax - onehot) * mask
    return loss, grad.astype(logits.dtype)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def confusion_matrix(pred: np.ndarray, gt: np.ndarray, num_classes: int,
                     ignore_label: int = 255) -> np.ndarray:
    keep = gt != ignore_label
    idx = num_classes * gt[keep].astype(np.int64) + pred[keep].astype(np.int64)
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


def miou(pred: np.ndarray, gt: np.ndarray, num_classes: int, ignore_label: int = 255):
    """(per-class IoU with NaN for absent classes, mean over present classes)."""
    return iou_from_confusion(confusion_matrix(pred, gt, num_classes, ignore_label))


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
    ignore_label: int = 255

    def __post_init__(self):
        if self.scale_range[0] > self.scale_range[1]:
            raise ValueError(f"scale range {self.scale_range} must be (min, max)")
        if min(self.crop) < 1:
            raise ValueError(f"crop must be two sizes >= 1, got {self.crop}")


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


def augment(sample: Sample, cfg: AugmentConfig, rng: np.random.Generator) -> Sample:
    """Random resample, pad, crop, horizontal flip, color jitter (image only).

    Deterministic for a given RNG state.  Transforms that would be identity
    (unit scale, full crop, zero jitter) leave the arrays bitwise unchanged.
    """
    img, mask = sample.image, sample.mask
    ch, cw = cfg.crop

    lo, hi = cfg.scale_range
    scale = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    if scale != 1.0:
        h, w = mask.shape
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
        mask = np.pad(mask, ((0, pad_h), (0, pad_w)), constant_values=cfg.ignore_label)
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
        for name, low in (("iters", 0), ("batch_size", 1), ("log_every", 0), ("eval_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def _assemble_batch(dataset, indices, aug_cfg, seed, iteration):
    imgs, masks = [], []
    for slot, idx in enumerate(indices):
        s = dataset[idx]
        if aug_cfg is not None:
            rng = np.random.default_rng([seed, iteration, slot])
            s = augment(s, aug_cfg, rng)
        imgs.append(s.image)
        masks.append(s.mask[None])
    return np.concatenate(imgs, axis=0), np.concatenate(masks, axis=0)


def evaluate(params: ParamStore, net_cfg: NetworkConfig, dataset,
             ignore_label: int = 255) -> dict:
    """Eval-mode mIoU / pixel accuracy over a dataset of samples."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    n_classes = net_cfg.num_classes
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for s in dataset:
        logits, _ = infer(params, net_cfg, s.image, mode="eval")
        pred = logits.argmax(axis=1)[0]
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

    With `val_dataset` the last record holds the final validation mIoU, and
    the whole `evaluate` report under "eval", which `log_path` leaves out.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    opt = OptimizerState(lr_base=cfg.lr_base, momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay, poly_power=cfg.poly_power,
                         max_iters=cfg.iters)
    order_rng = np.random.default_rng([cfg.seed, 0xD5EC])
    order: list[int] = []
    log: list[dict] = []

    def record(entry):
        log.append(entry)
        for cb in callbacks:
            cb(entry)

    for it in range(cfg.iters):
        while len(order) < cfg.batch_size:
            order.extend(order_rng.permutation(len(dataset)).tolist())
        indices, order = order[:cfg.batch_size], order[cfg.batch_size:]
        images, labels = _assemble_batch(dataset, indices, cfg.augment, cfg.seed, it)

        tape = Tape()
        logits, _ = forward(params, net_cfg, images, mode="train", tape=tape)
        loss, dlogits = ohem_ce_loss(logits.data, labels, cfg.ohem)
        grads = grads_from_backward(tape, params, logits, dlogits)
        lr = poly_lr(it, opt)
        sgd_step(params, grads, opt, lr)

        if cfg.log_every and (it % cfg.log_every == 0 or it == cfg.iters - 1):
            entry = {"iter": it, "lr": lr, "loss": loss}
            if val_dataset is not None and cfg.eval_every and it and it % cfg.eval_every == 0:
                entry["miou"] = evaluate(params, net_cfg, val_dataset,
                                         cfg.ohem.ignore_label)["miou"]
            record(entry)

    if val_dataset is not None:
        final = evaluate(params, net_cfg, val_dataset, cfg.ohem.ignore_label)
        record({"iter": cfg.iters, "lr": poly_lr(cfg.iters, opt), "loss": None,
                "miou": final["miou"], "eval": final})

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as f:
            for entry in log:
                scalars = {k: v for k, v in entry.items() if k != "eval"}
                f.write(json.dumps(scalars, separators=(",", ":")) + "\n")
    return log
