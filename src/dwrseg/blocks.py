"""Network building blocks.

A DWR (dilation-wise residual) block extracts multi-scale context in two
steps: a 3x3 conv + BN + ReLU produces widened "region" features, which
are split into groups and filtered by depthwise 3x3 convolutions with one
dilation rate per group, then concatenated, normalized, merged back down
by a pointwise conv and added to the block input.  An SIR (simple inverted
residual) block keeps only the expand conv + BN + ReLU + pointwise
projection for the low stage.  The probe block is the receptive-field
demand variant of DWR (`DWRConfig.broadcast`): every dilation branch
consumes the entire region output so the pointwise merge weights reveal
how much each receptive field is used.

Every block is a stateless function of (params, input) composed of engine
ops, and its forward is the block's only declaration: each conv call names
its ConvSpec and each BN takes its width from its input.  Running the
forward on a declaring ParamStore builds the parameters; parameter and
MAC counts and the receptive-field trace are read off a recorded run at
batch 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import prod

from .engine import ConvSpec, ShapeError, Tape, Var
from .params import ParamVars


@dataclass(frozen=True)
class NonlinearitySwitches:
    """Ablation toggles for the DWR/probe pipeline; defaults are the baseline."""

    rr_relu: bool = True            # off = "sitch 1"
    rr_bn: bool = True              # off = "sitch 2"
    sr_bn: bool = True              # off = "sitch 3"
    sr_relu_after_bn: bool = False  # on = "sitch 4"
    bn_after_pointwise: bool = False  # on = "sitch 5"


DEFAULT_DILATIONS = {2: (1, 3), 3: (1, 3, 5)}
DEFAULT_BRANCH_RATIO = {2: (2, 1), 3: (2, 1, 1)}


def _split_by_ratio(total: int, ratio: tuple[int, ...]) -> tuple[int, ...]:
    denom = sum(ratio)
    if total % denom:
        raise ShapeError(f"width {total} not divisible into ratio {ratio}")
    unit = total // denom
    return tuple(unit * r for r in ratio)


@dataclass(frozen=True)
class DWRConfig:
    channels: int
    in_channels: int
    branch_count: int = 3
    dilations: tuple[int, ...] = ()
    branch_ratio: tuple[int, ...] = ()
    rr_expansion: float = 1.5
    stride: int = 1
    switches: NonlinearitySwitches = field(default_factory=NonlinearitySwitches)
    broadcast: bool = False  # every branch sees the whole region output (the probe block)

    def __post_init__(self):
        if self.branch_count not in (2, 3):
            raise ShapeError(f"branch_count must be 2 or 3, got {self.branch_count}")
        if not self.dilations:
            object.__setattr__(self, "dilations", DEFAULT_DILATIONS[self.branch_count])
        if not self.branch_ratio:
            object.__setattr__(self, "branch_ratio", DEFAULT_BRANCH_RATIO[self.branch_count])
        if len(self.dilations) != self.branch_count or len(self.branch_ratio) != self.branch_count:
            raise ShapeError("dilations/branch_ratio length must equal branch_count")
        if self.stride not in (1, 2):
            raise ShapeError(f"stride must be 1 or 2, got {self.stride}")
        if self.stride == 1 and self.in_channels != self.channels:
            raise ShapeError("in_channels may differ from channels only when stride == 2")
        rw = self.rr_expansion * self.channels
        if abs(rw - round(rw)) > 1e-9:
            raise ShapeError(f"rr_expansion {self.rr_expansion} * {self.channels} is not integral")
        if not self.broadcast:
            _split_by_ratio(int(round(rw)), self.branch_ratio)

    @property
    def rr_width(self) -> int:
        return int(round(self.rr_expansion * self.channels))

    @property
    def group_widths(self) -> tuple[int, ...]:
        """Input width of each dilation branch."""
        if self.broadcast:
            return (self.rr_width,) * self.branch_count
        return _split_by_ratio(self.rr_width, self.branch_ratio)

    def branch_slices(self) -> list[tuple[int, int]]:
        """Input-axis partition of the merge weight, one slice per branch."""
        ends = [0, *accumulate(self.group_widths)]
        return list(zip(ends, ends[1:]))


@dataclass(frozen=True)
class SIRConfig:
    channels: int
    in_channels: int
    expansion: int = 3
    stride: int = 1

    def __post_init__(self):
        if self.expansion < 1:
            raise ShapeError(f"expansion must be >= 1, got {self.expansion}")
        if self.stride not in (1, 2):
            raise ShapeError(f"stride must be 1 or 2, got {self.stride}")
        if self.stride == 1 and self.in_channels != self.channels:
            raise ShapeError("in_channels may differ from channels only when stride == 2")

    @property
    def hidden_width(self) -> int:
        return self.expansion * self.channels


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _conv(tape: Tape, pv: ParamVars, name: str, x: Var, spec: ConvSpec) -> Var:
    weight, bias = pv.conv(name, spec)
    return tape.conv2d(x, weight, bias, spec)


def _bn(tape: Tape, pv: ParamVars, name: str, x: Var, mode: str) -> Var:
    gamma, beta, state = pv.bn(name, x.shape[1])
    return tape.batchnorm(x, gamma, beta, state, mode)


def dwr_forward(tape: Tape, pv: ParamVars, prefix: str, x: Var, cfg: DWRConfig,
                mode: str, capture: dict | None = None) -> Var:
    sw = cfg.switches
    if x.data.shape[1] != cfg.in_channels:
        raise ShapeError(f"{prefix}: input has {x.data.shape[1]} channels, "
                         f"config wants {cfg.in_channels}")
    t = _conv(tape, pv, f"{prefix}.rr.conv", x,
              ConvSpec(cfg.in_channels, cfg.rr_width, 3, stride=cfg.stride, padding=1))
    if sw.rr_bn:
        t = _bn(tape, pv, f"{prefix}.rr.bn", t, mode)
    if sw.rr_relu:
        t = tape.relu(t)
    if capture is not None:
        capture[f"{prefix}.rr"] = t.data
    widths = cfg.group_widths
    groups = [t] * cfg.branch_count if cfg.broadcast else tape.split(t, list(widths))
    t = tape.concat([_conv(tape, pv, f"{prefix}.sr.b{i}", g,
                           ConvSpec(c, c, 3, padding=d, dilation=d, groups=c))
                     for i, (g, c, d) in enumerate(zip(groups, widths, cfg.dilations))])
    if sw.sr_bn:
        t = _bn(tape, pv, f"{prefix}.sr.bn", t, mode)
    if sw.sr_relu_after_bn:
        t = tape.relu(t)
    if capture is not None:
        capture[f"{prefix}.sr"] = t.data
    t = _conv(tape, pv, f"{prefix}.merge", t,
              ConvSpec(sum(widths), cfg.channels, 1, has_bias=True))
    if sw.bn_after_pointwise:
        t = _bn(tape, pv, f"{prefix}.merge.bn", t, mode)
    if cfg.stride == 1 and cfg.in_channels == cfg.channels:
        t = tape.add(x, t)
    return t


def sir_forward(tape: Tape, pv: ParamVars, prefix: str, x: Var, cfg: SIRConfig,
                mode: str, capture: dict | None = None) -> Var:
    if x.data.shape[1] != cfg.in_channels:
        raise ShapeError(f"{prefix}: input has {x.data.shape[1]} channels, "
                         f"config wants {cfg.in_channels}")
    t = _conv(tape, pv, f"{prefix}.rr.conv", x,
              ConvSpec(cfg.in_channels, cfg.hidden_width, 3, stride=cfg.stride, padding=1))
    t = _bn(tape, pv, f"{prefix}.rr.bn", t, mode)
    t = tape.relu(t)
    if capture is not None:
        capture[f"{prefix}.rr"] = t.data
    t = _conv(tape, pv, f"{prefix}.proj", t,
              ConvSpec(cfg.hidden_width, cfg.channels, 1, has_bias=True))
    if cfg.stride == 1 and cfg.in_channels == cfg.channels:
        t = tape.add(x, t)
    return t


def stem_forward(tape: Tape, pv: ParamVars, prefix: str, x: Var, stem_channels: int,
                 mode: str) -> Var:
    """Initial 4x downsampling: strided conv, then a conv path and a pool path."""
    n, c, h, w = x.data.shape
    if c != 3:
        raise ShapeError(f"stem expects 3 input channels, got {c}")
    if h % 4 or w % 4:
        raise ShapeError(f"stem input size {h}x{w} must be divisible by 4")
    s = stem_channels
    if s % 4:
        raise ShapeError(f"stem channels must be divisible by 4, got {s}")
    t = _conv(tape, pv, f"{prefix}.conv1", x, ConvSpec(3, s // 2, 3, stride=2, padding=1))
    t = _bn(tape, pv, f"{prefix}.conv1.bn", t, mode)  # deliberately no activation
    a = _conv(tape, pv, f"{prefix}.a1", t, ConvSpec(s // 2, s // 4, 1))
    a = tape.relu(_bn(tape, pv, f"{prefix}.a1.bn", a, mode))
    a = _conv(tape, pv, f"{prefix}.a2", a, ConvSpec(s // 4, s // 2, 3, stride=2, padding=1))
    a = tape.relu(_bn(tape, pv, f"{prefix}.a2.bn", a, mode))
    b = tape.maxpool(t, 3, 2, 1)
    t = tape.concat([a, b])
    t = _conv(tape, pv, f"{prefix}.fuse", t, ConvSpec(s, s, 3, padding=1))
    return tape.relu(_bn(tape, pv, f"{prefix}.fuse.bn", t, mode))


def seghead_forward(tape: Tape, pv: ParamVars, prefix: str, x: Var, in_channels: int,
                    head_width: int, num_classes: int, out_h: int, out_w: int,
                    mode: str) -> Var:
    t = _conv(tape, pv, f"{prefix}.conv", x, ConvSpec(in_channels, head_width, 3, padding=1))
    t = tape.relu(_bn(tape, pv, f"{prefix}.conv.bn", t, mode))
    t = _conv(tape, pv, f"{prefix}.pred", t, ConvSpec(head_width, num_classes, 1, has_bias=True))
    return tape.upsample(t, out_h, out_w)


# ---------------------------------------------------------------------------
# MAC count of one convolution (network.count_macs sums it over a trace)
# ---------------------------------------------------------------------------

def conv_macs(spec: ConvSpec, out_shape: tuple[int, ...]) -> int:
    """Multiplies of one conv producing `out_shape` (the whole batch)."""
    return prod(out_shape) * spec.kernel * spec.kernel * (spec.in_channels // spec.groups)
