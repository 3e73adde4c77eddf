"""Anatomy of the building blocks: DWR, SIR, stem, and the probe variant.

Run:  python demos/02_blocks.py
"""

import numpy as np

from dwrseg import blocks as B
from dwrseg import engine as E
from dwrseg.params import ParamStore, ParamVars, he_normal, zero_init


def run(forward, x, *args, seed=0, zero=False, capture=None):
    """Run a block forward in a pass that creates each parameter as it is asked for."""
    init = zero_init if zero else he_normal(np.random.default_rng(seed))
    pv = ParamVars(E.Tape(record=False), ParamStore(), capture=capture, init=init)
    return forward(pv, "blk", pv.tape.leaf(x), *args)


print("=== 1. DWR channel accounting ===")
cfg = B.StageSpec("dwr", 1, 128, branch_count=3)
print(f"c=128, 3 branches: region width {cfg.rr_width} "
      f"split {cfg.group_widths} with dilations {cfg.dilations}")
cfg2 = B.StageSpec("dwr", 1, 128, branch_count=2)
print(f"c=128, 2 branches: region width {cfg2.rr_width} "
      f"split {cfg2.group_widths} with dilations {cfg2.dilations}\n")

print("=== 2. zero weights -> the block is exactly the identity ===")
small = B.StageSpec("dwr", 1, 16, branch_count=3)
x = np.random.default_rng(3).standard_normal((1, 16, 8, 8)).astype(np.float32)
out = run(B.dwr_forward, x, small, 1, zero=True)
print("dwr(x) == x bitwise:", np.array_equal(out.data, x))

sir = B.StageSpec("sir", 1, 16)
out = run(B.sir_forward, x, sir, 1, zero=True)
print("sir(x) == x bitwise:", np.array_equal(out.data, x), "\n")

print("=== 3. one dilation rate per group of region features ===")
cap = {}
run(B.dwr_forward, x, small, 1, seed=5, capture=cap)
print("region map (post-ReLU) shape:", cap["blk.rr"].shape,
      "min:", float(cap["blk.rr"].min()))
print("filtered map (post-BN) shape:", cap["blk.sr"].shape, "\n")

print("=== 4. the stem downsamples 4x through conv and pool paths ===")
img = np.random.default_rng(7).random((1, 3, 64, 64), dtype=np.float32)
out = run(B.stem_forward, img, 64, seed=6)
print("input", img.shape, "->", out.data.shape, "\n")

print("=== 5. the probe block gives every branch the whole region map ===")
probe = B.StageSpec("probe", 1, 64, branch_count=3)
split = B.StageSpec("dwr", 1, 64, branch_count=3)
print(f"c=64: region width {probe.rr_width}; branch inputs {probe.group_widths} "
      f"(split DWR: {split.group_widths})")
print(f"merge weight slices per branch: {probe.branch_slices()} "
      f"(split DWR: {split.branch_slices()})")
print("(the merge weights over those slices are what the receptive-field")
print(" demand study histograms, see demos/06_probe_weights.py)")
