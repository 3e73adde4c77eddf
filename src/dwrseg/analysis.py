"""Receptive-field analyses and weight/feature-map statistics.

Theoretical receptive fields compose per layer as

    rf   <- rf + (kernel - 1) * dilation * jump
    jump <- jump * stride

where jump is the cumulative stride product.  Effective receptive fields
(ERF) are measured empirically: backpropagate a unit gradient from one
output unit (summed over channels) and take the per-pixel absolute input
gradient, summed over RGB.  The branch-weight study histograms the
absolute pointwise-merge weights of probe blocks, partitioned by which
dilation branch each input channel came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import write_pgm
from .engine import ShapeError, Tape, write_nt
from .network import NetworkConfig, _block_config, forward, trace
from .params import ParamStore


# ---------------------------------------------------------------------------
# Theoretical receptive field
# ---------------------------------------------------------------------------

@dataclass
class RfState:
    rf: int = 1
    jump: int = 1
    trace: list[tuple[str, int, int]] = field(default_factory=list)  # (name, rf, jump)

    def apply(self, name: str, kernel: int, stride: int = 1, dilation: int = 1) -> "RfState":
        self.rf += (kernel - 1) * dilation * self.jump
        self.jump *= stride
        self.trace.append((name, self.rf, self.jump))
        return self


def rf_window(rf: int, jump: int, unit: int, size: int) -> tuple[int, int]:
    """Inclusive input-pixel range a unit can see along one axis.

    Every layer here pads symmetrically (padding 1 for 3x3 convs and the
    pool, padding = dilation for dilated depthwise convs), which keeps the
    window of output unit u centered at input pixel u * jump.
    """
    center = unit * jump
    half = (rf - 1) // 2
    return max(0, center - half), min(size - 1, center + half)


def network_rf_report(config: NetworkConfig) -> dict:
    """Per-layer RF trace through the encoder plus per-branch RFs per block.

    Read from a batch-0 trace of `forward`: conv and pool nodes apply the
    composition rule to their input, concat and add take the max over their
    inputs, and every other op passes its input through.  So the running
    value follows the widest path, and `branches` holds the RF of each
    dilation branch (`<block>.sr.b<i>`) at its depth.
    """
    tape, taps = trace(config, 32, 32)
    end = taps[config.stage_names[-1]].idx
    rf_at: dict[int, tuple[int, int]] = {}  # var index -> (rf, jump)
    rows, branches = [], {}
    for node in tape.nodes:
        if node.out > end:
            break
        inputs = [rf_at.get(p, (1, 1)) for p in node.parents]
        if node.window is not None:
            state = RfState(*inputs[0]).apply(node.name, *node.window)
            rf_at[node.out] = (state.rf, state.jump)
            if node.name is None:  # a pool: moves rf and jump, adds no row
                continue
            rows.append({"layer": node.name, "rf": state.rf, "jump": state.jump})
            block, _, branch = node.name.rpartition(".sr.")
            if block:
                branches.setdefault(block, {})[f"{branch}(d={node.spec.dilation})"] = state.rf
        elif node.kind in ("concat", "add"):
            rf_at[node.out] = tuple(map(max, zip(*inputs)))
        else:
            rf_at[node.out] = inputs[0]
    final_rf, final_jump = rf_at[end]
    return {"trace": rows, "branches": branches, "final_rf": final_rf,
            "final_jump": final_jump}


# ---------------------------------------------------------------------------
# Effective receptive field
# ---------------------------------------------------------------------------

def erf_from_tape(tape: Tape, output, input_var, cy: int, cx: int) -> np.ndarray:
    """|d sum_c output[:, c, cy, cx] / d input|, summed over input channels."""
    _, _, oh, ow = output.data.shape
    if not (0 <= cy < oh and 0 <= cx < ow):
        raise ShapeError(f"center unit ({cy},{cx}) outside output {oh}x{ow}")
    seed = np.zeros_like(output.data)
    seed[:, :, cy, cx] = 1.0
    grads = tape.backward(output, seed)
    gin = grads[input_var.idx]
    if gin is None:
        return np.zeros(input_var.data.shape[2:], dtype=np.float64)
    return np.abs(gin).sum(axis=(0, 1))


def erf_map(params: ParamStore, config: NetworkConfig, x: np.ndarray,
            center_unit: tuple[int, int], stage: str = "s4") -> np.ndarray:
    """ERF heatmap of one unit of a stage output w.r.t. the network input."""
    tape = Tape()
    xv = tape.leaf(np.ascontiguousarray(x))
    _, taps = forward(params, config, xv, mode="eval", tape=tape)
    if stage not in taps:
        raise ShapeError(f"unknown stage {stage!r}; have {sorted(taps)}")
    return erf_from_tape(tape, taps[stage], xv, *center_unit)


# ---------------------------------------------------------------------------
# Probe branch-weight statistics
# ---------------------------------------------------------------------------

@dataclass
class BranchWeightStats:
    stage: str
    dilations: tuple[int, ...]
    bin_edges: np.ndarray           # shared across branches of the stage
    pmf: list[np.ndarray]           # one per branch, sums to 1
    cdf: list[np.ndarray]           # one per branch, non-decreasing, ends at 1
    counts: list[int]

    def to_json(self) -> list[dict]:
        return [
            {
                "stage": self.stage,
                "branch": i,
                "dilation": int(d),
                "bin_edges": [float(v) for v in self.bin_edges],
                "pmf": [float(v) for v in self.pmf[i]],
                "cdf": [float(v) for v in self.cdf[i]],
                "count": self.counts[i],
            }
            for i, d in enumerate(self.dilations)
        ]


def branch_weight_stats(params: ParamStore, config: NetworkConfig,
                        bins: int = 24) -> list[BranchWeightStats]:
    """Per-stage PMF/CDF of |pointwise merge weights| grouped by source branch.

    Requires a probe-stage network (every dilation branch occupies a known
    slice of the merge weight's input axis).
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    out = []
    prev = config.stem_channels
    for name, stage in zip(config.stage_names, config.stages):
        if stage.kind != "probe":
            raise ShapeError(f"branch_weight_stats needs probe stages; {name} is {stage.kind!r}")
        cfg0 = _block_config(stage, 0, prev, config.switches)
        slices = cfg0.branch_slices()
        pooled: list[list[np.ndarray]] = [[] for _ in slices]
        for j in range(stage.repeats):
            wname = f"{name}.{j}.merge.weight"
            w = np.abs(params[wname][:, :, 0, 0])  # (out, B*rr_width)
            for i, (lo, hi) in enumerate(slices):
                pooled[i].append(w[:, lo:hi].reshape(-1))
        branch_vals = [np.concatenate(v) for v in pooled]
        top = max(float(v.max()) for v in branch_vals if v.size) or 1.0
        edges = np.linspace(0.0, top, bins + 1)
        pmf, cdf, counts = [], [], []
        for vals in branch_vals:
            hist, _ = np.histogram(vals, bins=edges)
            p = hist.astype(np.float64) / max(1, vals.size)
            pmf.append(p)
            cdf.append(np.cumsum(p))
            counts.append(int(vals.size))
        out.append(BranchWeightStats(stage=name, dilations=tuple(cfg0.dilations),
                                     bin_edges=edges, pmf=pmf, cdf=cdf, counts=counts))
        prev = stage.channels
    return out


# ---------------------------------------------------------------------------
# Feature-map heatmap export
# ---------------------------------------------------------------------------

def signed_to_bytes(channel: np.ndarray) -> np.ndarray:
    """Map signed values to gray: negative dark, zero mid (128), positive bright."""
    peak = float(np.abs(channel).max())
    if peak == 0.0:
        return np.full(channel.shape, 128, dtype=np.int32)
    return np.clip(np.rint(128.0 + 127.0 * channel / peak), 0, 255).astype(np.int32)


def dump_feature_heatmaps(params: ParamStore, config: NetworkConfig, x: np.ndarray,
                          block_id: str, out_dir) -> dict:
    """Export one block's region (post-ReLU) and filtered (post-BN) maps.

    Writes raw ".nt" tensors plus one PGM per channel with the signed gray
    mapping; returns {"rr": array, "sr": array, "files": [paths]}.
    """
    from pathlib import Path

    capture: dict = {}
    forward(params, config, x, mode="eval", capture=capture)
    rr_key, sr_key = f"{block_id}.rr", f"{block_id}.sr"
    if rr_key not in capture:
        raise ShapeError(f"unknown block {block_id!r}; captured {sorted(capture)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    result = {"files": files}
    for tag, key in (("rr", rr_key), ("sr", sr_key)):
        if key not in capture:
            continue
        fmap = capture[key]
        result[tag] = fmap
        nt_path = out / f"{block_id}.{tag}.nt"
        write_nt(nt_path, fmap)
        files.append(str(nt_path))
        for c in range(fmap.shape[1]):
            pgm_path = out / f"{block_id}.{tag}.c{c:03d}.pgm"
            write_pgm(pgm_path, signed_to_bytes(fmap[0, c]))
            files.append(str(pgm_path))
    return result
