"""Network building blocks.

A DWR (dilation-wise residual) block extracts multi-scale context in two
steps: a 3x3 conv + BN + ReLU produces "region" features 1.5x as wide as
the block, which are split into groups at a fixed ratio and filtered by
depthwise 3x3 convolutions with one dilation rate per group (1, 3 in s3;
1, 3, 5 in s4), then concatenated, normalized, merged back down by a
pointwise conv and added to the block input.  That is the one DWR design:
its rates and ratios are the constants DILATIONS and BRANCH_RATIO.  An SIR
(simple inverted residual) block keeps only the expand conv + BN + ReLU +
pointwise projection for the low stage.  The probe block is the
receptive-field demand variant of DWR (a "probe" stage): every dilation
branch consumes the entire region output so the pointwise merge weights
reveal how much each receptive field is used.

`StageSpec` is the one record of a stage and of each block in it: the
paper fixes kind, width, branch count and dilations per stage.  A block
forward takes the stage and its stride; it reads its input width from its
input and adds the residual exactly when the stride is 1.

Every block is a stateless function of (pass, input) composed of engine
ops, and its forward is the block's only declaration: each conv call names
its ConvSpec and each BN takes its width from its input.  The pass
(params.ParamVars) carries the tape, the store, the BN mode and the
capture; running a forward in a declaring pass builds the parameters.
Parameter and MAC counts and the receptive-field trace are read off a
recorded run at batch 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .engine import ConvSpec, ShapeError, Var
from .params import ParamVars


# per branch count: one dilation rate per branch, and the branches' shares
# of the region width
DILATIONS = {2: (1, 3), 3: (1, 3, 5)}
BRANCH_RATIO = {2: (2, 1), 3: (2, 1, 1)}


@dataclass(frozen=True)
class StageSpec:
    """One network stage: every block in it has this kind, width and branch count."""

    kind: str                   # "sir" | "dwr" | "probe"
    repeats: int
    channels: int
    branch_count: int = 3       # DWR and probe only; SIR keeps the default
    expansion: int = 3          # SIR only; DWR and probe keep the default

    def __post_init__(self):
        if self.kind not in ("sir", "dwr", "probe"):
            raise ShapeError(f"unknown stage kind {self.kind!r}")
        for name in ("repeats", "channels", "branch_count", "expansion"):
            value = getattr(self, name)
            # 3.0 == 3, so a float would pass every check below and be saved back
            if isinstance(value, bool) or not isinstance(value, int):
                raise ShapeError(f"{name} must be an integer, got {value!r}")
        if self.repeats < 1:
            raise ShapeError(f"stage needs >= 1 block, got {self.repeats}")
        ignored = "branch_count" if self.kind == "sir" else "expansion"
        if getattr(self, ignored) != 3:
            raise ShapeError(f"a {self.kind} stage ignores {ignored}, which must keep "
                             f"its default 3, got {getattr(self, ignored)!r}")
        if self.kind == "sir":
            if self.expansion < 1:
                raise ShapeError(f"expansion must be >= 1, got {self.expansion}")
            return
        if self.branch_count not in DILATIONS:
            raise ShapeError(f"branch_count must be 2 or 3, got {self.branch_count}")
        if self.channels % 2:
            raise ShapeError(f"region width 1.5 * {self.channels} is not integral")
        ratio = BRANCH_RATIO[self.branch_count]
        if self.kind == "dwr" and self.rr_width % sum(ratio):
            raise ShapeError(f"width {self.rr_width} not divisible into ratio {ratio}")

    @property
    def dilations(self) -> tuple[int, ...]:
        return DILATIONS[self.branch_count]

    @property
    def rr_width(self) -> int:
        return 3 * self.channels // 2

    @property
    def hidden_width(self) -> int:
        return self.expansion * self.channels

    @property
    def group_widths(self) -> tuple[int, ...]:
        """Input width of each dilation branch; a probe branch sees the whole region."""
        if self.kind == "probe":
            return (self.rr_width,) * self.branch_count
        ratio = BRANCH_RATIO[self.branch_count]
        return tuple(self.rr_width // sum(ratio) * r for r in ratio)

    def branch_slices(self) -> list[tuple[int, int]]:
        """Input-axis partition of the merge weight, one slice per branch."""
        ends = [0, *accumulate(self.group_widths)]
        return list(zip(ends, ends[1:]))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _in_width(prefix: str, x: Var, stage: StageSpec, stride: int) -> int:
    """Input width of a block; only a stride-2 block may change the width."""
    c = x.data.shape[1]
    if stride == 1 and c != stage.channels:
        raise ShapeError(f"{prefix}: input has {c} channels, "
                         f"a stride-1 block needs {stage.channels}")
    return c


def dwr_forward(pv: ParamVars, prefix: str, x: Var, stage: StageSpec, stride: int) -> Var:
    tape = pv.tape
    cin = _in_width(prefix, x, stage, stride)
    t = pv.conv(f"{prefix}.rr.conv", x, ConvSpec(cin, stage.rr_width, 3, stride=stride, padding=1))
    t = tape.relu(pv.bn(f"{prefix}.rr.bn", t))
    pv.keep(f"{prefix}.rr", t)
    widths = stage.group_widths
    groups = ([t] * stage.branch_count if stage.kind == "probe"
              else tape.split(t, list(widths)))
    t = tape.concat([pv.conv(f"{prefix}.sr.b{i}", g,
                             ConvSpec(c, c, 3, padding=d, dilation=d, groups=c))
                     for i, (g, c, d) in enumerate(zip(groups, widths, stage.dilations))])
    t = pv.bn(f"{prefix}.sr.bn", t)
    pv.keep(f"{prefix}.sr", t)
    t = pv.conv(f"{prefix}.merge", t, ConvSpec(sum(widths), stage.channels, 1, has_bias=True))
    if stride == 1:
        t = tape.add(x, t)
    return t


def sir_forward(pv: ParamVars, prefix: str, x: Var, stage: StageSpec, stride: int) -> Var:
    cin = _in_width(prefix, x, stage, stride)
    t = pv.conv(f"{prefix}.rr.conv", x,
                ConvSpec(cin, stage.hidden_width, 3, stride=stride, padding=1))
    t = pv.tape.relu(pv.bn(f"{prefix}.rr.bn", t))
    pv.keep(f"{prefix}.rr", t)
    t = pv.conv(f"{prefix}.proj", t,
                ConvSpec(stage.hidden_width, stage.channels, 1, has_bias=True))
    if stride == 1:
        t = pv.tape.add(x, t)
    return t


def stem_forward(pv: ParamVars, prefix: str, x: Var, stem_channels: int) -> Var:
    """Initial 4x downsampling: strided conv, then a conv path and a pool path."""
    n, c, h, w = x.data.shape
    if c != 3:
        raise ShapeError(f"stem expects 3 input channels, got {c}")
    if h % 4 or w % 4:
        raise ShapeError(f"stem input size {h}x{w} must be divisible by 4")
    s = stem_channels
    if s % 4:
        raise ShapeError(f"stem channels must be divisible by 4, got {s}")
    tape = pv.tape
    t = pv.conv(f"{prefix}.conv1", x, ConvSpec(3, s // 2, 3, stride=2, padding=1))
    t = pv.bn(f"{prefix}.conv1.bn", t)  # deliberately no activation
    a = pv.conv(f"{prefix}.a1", t, ConvSpec(s // 2, s // 4, 1))
    a = tape.relu(pv.bn(f"{prefix}.a1.bn", a))
    a = pv.conv(f"{prefix}.a2", a, ConvSpec(s // 4, s // 2, 3, stride=2, padding=1))
    a = tape.relu(pv.bn(f"{prefix}.a2.bn", a))
    b = tape.maxpool(t, 3, 2, 1)
    t = tape.concat([a, b])
    t = pv.conv(f"{prefix}.fuse", t, ConvSpec(s, s, 3, padding=1))
    return tape.relu(pv.bn(f"{prefix}.fuse.bn", t))


def seghead_forward(pv: ParamVars, prefix: str, x: Var, in_channels: int, head_width: int,
                    num_classes: int, out_h: int, out_w: int) -> Var:
    """3x3 conv + BN + ReLU, 1x1 class conv, bilinear upsample to out_h x out_w.

    `x` is released after the first conv: when the caller holds no other
    reference (the network forward passes the decoder output in directly), an
    eval forward frees it before the large final upsample.
    """
    t = pv.conv(f"{prefix}.conv", x, ConvSpec(in_channels, head_width, 3, padding=1))
    del x
    t = pv.tape.relu(pv.bn(f"{prefix}.conv.bn", t))
    t = pv.conv(f"{prefix}.pred", t, ConvSpec(head_width, num_classes, 1, has_bias=True))
    return pv.tape.upsample(t, out_h, out_w)


# ---------------------------------------------------------------------------
# MAC count of one convolution (network.count_macs sums it over a trace)
# ---------------------------------------------------------------------------

def conv_macs(spec: ConvSpec, out_shape: tuple[int, ...]) -> int:
    """Multiplies of one conv producing `out_shape` (the whole batch)."""
    return prod(out_shape) * spec.kernel * spec.kernel * (spec.in_channels // spec.groups)
