"""Receptive fields, theoretical and effective.

The theoretical trace composes rf <- rf + (k-1)*d*jump through the whole
encoder, read off a shape-only trace of the network's forward pass (concat
and add keep the widest input, so a DWR block follows its largest
dilation); the effective receptive field (ERF) backpropagates a unit
gradient from one stage-output unit and maps where input pixels actually
influence it.  The ERF is always contained in (and much smaller than) the
theoretical window.

Run:  python demos/05_receptive_fields.py
"""

import numpy as np

from dwrseg import analysis as A
from dwrseg import network as N

print("=== 1. theoretical receptive field through DWRSeg-B ===")
report = A.network_rf_report(N.preset("B"))
landmarks = ("stem.fuse", "s2.6.rr.conv", "s3.2.sr.b1", "s3.2.merge", "s4.2.sr.b0",
             "s4.2.sr.b2", "s4.2.merge")
for row in report["trace"]:
    if row["layer"] in landmarks:
        print(f"    {row['layer']:<16s} rf={row['rf']:>5d}  jump={row['jump']}")
print(f"    final: rf={report['final_rf']} at 1/{report['final_jump']} resolution\n")

print("=== 2. each DWR branch contributes a different receptive field ===")
for block in ("s3.0", "s4.0", "s4.2"):
    per = ", ".join(f"{k}={v}" for k, v in report["branches"][block].items())
    print(f"    {block}: {per}")
print()

print("=== 3. effective receptive field of a tiny network ===")
cfg = N.preset("tiny", num_classes=4)
params = N.build(cfg, rng_seed=3)
x = np.random.default_rng(0).random((1, 3, 64, 64), dtype=np.float32)
tiny_trace = {row["layer"]: row for row in A.network_rf_report(cfg)["trace"]}

for stage, last in (("s2", "s2.1.proj"), ("s3", "s3.1.merge"), ("s4", "s4.1.merge")):
    unit = (1, 1)
    heat = A.erf_map(params, cfg, x, unit, stage=stage)
    rf, jump = tiny_trace[last]["rf"], tiny_trace[last]["jump"]
    lo_y, hi_y = A.rf_window(rf, jump, unit[0], 64)
    lo_x, hi_x = A.rf_window(rf, jump, unit[1], 64)
    support = np.argwhere(heat > 0)
    span = (support.max(axis=0) - support.min(axis=0) + 1) if support.size else (0, 0)
    inside = not heat[np.ix_(
        [r for r in range(64) if not lo_y <= r <= hi_y],
        range(64))].any()
    print(f"    {stage}: theoretical window {hi_y - lo_y + 1}x{hi_x - lo_x + 1}, "
          f"ERF support {span[0]}x{span[1]}, confined: {inside}")

print("\n    (the ERF support can be smaller than the theoretical window --")
print("     gradient magnitude decays with path length -- but never larger)")
