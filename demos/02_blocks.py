"""Anatomy of the building blocks: DWR, SIR, stem, and the probe variant.

Run:  python demos/02_blocks.py
"""

import numpy as np

from dwrseg import blocks as B
from dwrseg import engine as E
from dwrseg.params import ParamStore, ParamVars


def build(decls, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for d in decls:
        if isinstance(d, B.ConvDecl):
            shape = d.spec.weight_shape
            store.add(f"{d.name}.weight",
                      np.zeros(shape, np.float32) if zero
                      else rng.normal(0, 0.1, shape).astype(np.float32))
            if d.spec.has_bias:
                store.add(f"{d.name}.bias", np.zeros(d.spec.out_channels, np.float32))
        else:
            store.add_bn(d.name, d.channels)
    return store


print("=== 1. DWR channel accounting ===")
cfg = B.DWRConfig(channels=128, in_channels=128, branch_count=3)
print(f"c=128, 3 branches: region width {cfg.rr_width} "
      f"split {cfg.group_widths} with dilations {cfg.dilations}")
cfg2 = B.DWRConfig(channels=128, in_channels=128, branch_count=2)
print(f"c=128, 2 branches: region width {cfg2.rr_width} "
      f"split {cfg2.group_widths} with dilations {cfg2.dilations}\n")

print("=== 2. zero weights -> the block is exactly the identity ===")
small = B.DWRConfig(channels=16, in_channels=16, branch_count=3)
store = build(B.dwr_decls("blk", small), zero=True)
x = np.random.default_rng(3).standard_normal((1, 16, 8, 8)).astype(np.float32)
tape = E.Tape(record=False)
out = B.dwr_forward(tape, ParamVars(tape, store), "blk", tape.leaf(x), small, "eval")
print("dwr(x) == x bitwise:", np.array_equal(out.data, x))

sir = B.SIRConfig(channels=16, in_channels=16)
store = build(B.sir_decls("blk", sir), zero=True)
tape = E.Tape(record=False)
out = B.sir_forward(tape, ParamVars(tape, store), "blk", tape.leaf(x), sir, "eval")
print("sir(x) == x bitwise:", np.array_equal(out.data, x), "\n")

print("=== 3. one dilation rate per group of region features ===")
store = build(B.dwr_decls("blk", small), seed=5)
tape = E.Tape(record=False)
cap = {}
B.dwr_forward(tape, ParamVars(tape, store), "blk", tape.leaf(x), small, "eval",
              capture=cap)
print("region map (post-ReLU) shape:", cap["blk.rr"].shape,
      "min:", float(cap["blk.rr"].min()))
print("filtered map (post-BN) shape:", cap["blk.sr"].shape, "\n")

print("=== 4. the stem downsamples 4x through conv and pool paths ===")
store = build(B.stem_decls("stem", 64), seed=6)
tape = E.Tape(record=False)
img = np.random.default_rng(7).random((1, 3, 64, 64), dtype=np.float32)
out = B.stem_forward(tape, ParamVars(tape, store), "stem", tape.leaf(img), 64, "eval")
print("input", img.shape, "->", out.data.shape, "\n")

print("=== 5. the probe block gives every branch the whole region map ===")
probe = B.DWRConfig(channels=64, in_channels=64, branch_count=3, broadcast=True)
split = B.DWRConfig(channels=64, in_channels=64, branch_count=3)
print(f"c=64: region width {probe.rr_width}; branch inputs {probe.group_widths} "
      f"(split DWR: {split.group_widths})")
print(f"merge weight slices per branch: {probe.branch_slices()} "
      f"(split DWR: {split.branch_slices()})")
print("(the merge weights over those slices are what the receptive-field")
print(" demand study histograms, see demos/06_probe_weights.py)")
