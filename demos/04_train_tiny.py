"""Train the tiny variant on synthetic shapes, evaluate, and export
predictions as PGM masks.

This is a shortened version of the desk-scale recipe (400 iterations
instead of 2000) so it finishes in well under a minute; expect a val mIoU
around 0.85 (the full run reaches ~0.90).

Run:  python demos/04_train_tiny.py
"""

import tempfile
from pathlib import Path

import numpy as np

from dwrseg import data as D
from dwrseg import network as N
from dwrseg import training as T

print("=== 1. synthetic dataset: colored shapes, one class per geometry ===")
spec = D.ShapesSpec(canvas=(64, 64), num_classes=4, shapes_per_image=(1, 3),
                    size_range=(12, 28), noise=0.04, seed=7)
train_set = D.make_dataset(spec, 256, start=0)
val_set = D.make_dataset(spec, 64, start=256)
sample = train_set[0]
print(f"{len(train_set)} train / {len(val_set)} val samples, "
      f"canvas {spec.canvas}, classes present in sample 0: "
      f"{sorted(int(c) for c in np.unique(sample.mask))}\n")

print("=== 2. deterministic training: SGD + momentum, poly LR, OHEM CE ===")
net_cfg = N.preset("tiny", num_classes=4)
params = N.build(net_cfg, rng_seed=0)
aug = T.AugmentConfig(scale_range=(0.75, 1.25), crop=(64, 64), hflip_prob=0.5,
                      brightness=0.15, contrast=0.15, saturation=0.15)
cfg = T.TrainConfig(iters=400, batch_size=4, seed=0, augment=aug, log_every=100)
log = T.train_loop(params, net_cfg, train_set, cfg, val_dataset=val_set)
for entry in log:
    loss = "-" if entry["loss"] is None else f"{entry['loss']:.3f}"
    miou = f"  mIoU={entry['miou']:.3f}" if "miou" in entry else ""
    print(f"    iter {entry['iter']:>4d}  lr={entry['lr']:.4f}  loss={loss}{miou}")
print()

print("=== 3. evaluation report ===")
report = T.evaluate(params, net_cfg, val_set, cfg.ohem.ignore_label)
print(f"val mIoU {report['miou']:.3f}, pixel accuracy {report['pixel_accuracy']:.3f}")
print("per-class IoU:", ["-" if v is None else f"{v:.3f}"
                         for v in report["per_class_iou"]], "\n")

print("=== 4. export a prediction next to its ground truth ===")
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    s = val_set[0]
    pred = N.predict_labels(params, net_cfg, s.image)[0]
    D.write_ppm(out / "image.ppm", s.image)
    D.write_pgm(out / "pred.pgm", pred)
    D.write_pgm(out / "truth.pgm", s.mask)
    cm = T.confusion_matrix(pred, s.mask, 4, cfg.ohem.ignore_label)
    iou, mean = T.iou_from_confusion(cm)
    print(f"wrote {sorted(p.name for p in out.iterdir())}")
    print(f"this sample: mIoU {mean:.3f}")
    back = D.read_pgm(out / "pred.pgm")
    print("PGM round trip lossless:", np.array_equal(back, pred))
