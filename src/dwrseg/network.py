"""Full network assembly: build, run, count, checkpoint, benchmark.

Stage layout (output scale / channels / block kind):

    stem   1/4   C_stem     strided conv + conv/pool paths
    s2     1/8   C2         SIR blocks
    s3     1/16  C3         DWR blocks, 2 branches
    s4     1/32  C4         DWR blocks, 3 branches
    decoder 1/8  C2+C3+C4   upsample s3/s4, concat, BN, SegHead

Downsampling lives inside each stage's first block: its 3x3 conv runs with
stride 2 from the previous stage's width and the residual shortcut is
omitted there.  The "B" and "L" presets differ only in repeat counts; the
"tiny" preset keeps every structural ratio but shrinks widths so tests and
demos run in seconds.
"""

from __future__ import annotations

import json
import statistics
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .blocks import DWRConfig, NonlinearitySwitches, SIRConfig
from .engine import FLOAT, FormatError, ShapeError, Tape, Var, nt_bytes, nt_from_bytes
from .params import ParamStore, ParamVars, he_normal, zero_init

CHECKPOINT_MAGIC = b"DWCK"
CHECKPOINT_VERSION = 1

# published reference budgets for the two full-size variants
PARAM_TARGETS = {"B": 2.54e6, "L": 3.53e6}
MAC_TARGETS = {"B": 13.62e9, "L": 16.42e9}  # at 3x512x1024


@dataclass(frozen=True)
class StageSpec:
    kind: str                   # "sir" | "dwr" | "probe"
    repeats: int
    channels: int
    branch_count: int = 3
    dilations: tuple[int, ...] = ()
    branch_ratio: tuple[int, ...] = ()
    rr_expansion: float = 1.5
    expansion: int = 3          # SIR only

    def __post_init__(self):
        if self.kind not in ("sir", "dwr", "probe"):
            raise ShapeError(f"unknown stage kind {self.kind!r}")
        if self.repeats < 1:
            raise ShapeError(f"stage needs >= 1 block, got {self.repeats}")


@dataclass(frozen=True)
class NetworkConfig:
    variant: str
    num_classes: int
    stem_channels: int
    stages: tuple[StageSpec, StageSpec, StageSpec]
    head_width: int
    switches: NonlinearitySwitches = field(default_factory=NonlinearitySwitches)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ShapeError(f"need >= 2 classes, got {self.num_classes}")
        if len(self.stages) != 3:
            raise ShapeError("exactly three stages (s2, s3, s4) expected")

    @property
    def decoder_width(self) -> int:
        return sum(s.channels for s in self.stages)

    @property
    def stage_names(self) -> tuple[str, str, str]:
        return ("s2", "s3", "s4")


_PRESETS = {
    # stem, (s2 repeats, s2 ch), (s3 repeats, s3 ch), (s4 repeats, s4 ch), head
    "B": (64, (7, 64), (3, 128), (3, 128), 128),
    "L": (64, (8, 64), (8, 128), (3, 128), 128),
    "tiny": (16, (2, 16), (2, 32), (2, 32), 32),
}

VARIANTS = tuple(_PRESETS)


def preset(variant: str, num_classes: int = 19, deltas: tuple[int, int, int] = (0, 0, 0),
           switches: NonlinearitySwitches | None = None, sir_expansion: int = 3,
           rr_expansion: float = 1.5, branch_ratio: tuple[int, ...] = (),
           probe: bool = False) -> NetworkConfig:
    """Named configuration with the ablation knobs exposed.

    `deltas` offsets the per-stage block counts; `sir_expansion`,
    `rr_expansion` and `branch_ratio` override the width ratios; `probe`
    swaps every block for the receptive-field demand variant.
    """
    if variant not in _PRESETS:
        raise ShapeError(f"unknown variant {variant!r}; expected one of {sorted(_PRESETS)}")
    stem, (r2, c2), (r3, c3), (r4, c4), head = _PRESETS[variant]
    reps = [max(1, r + d) for r, d in zip((r2, r3, r4), deltas)]
    sw = switches or NonlinearitySwitches()
    if probe:
        stages = tuple(
            StageSpec("probe", reps[i], ch, branch_count=3, dilations=(1, 3, 5),
                      rr_expansion=rr_expansion)
            for i, ch in enumerate((c2, c3, c4)))
        variant = f"{variant}-probe"
    else:
        stages = (
            StageSpec("sir", reps[0], c2, expansion=sir_expansion),
            StageSpec("dwr", reps[1], c3, branch_count=2, rr_expansion=rr_expansion,
                      branch_ratio=branch_ratio[:2]),
            StageSpec("dwr", reps[2], c4, branch_count=3, rr_expansion=rr_expansion,
                      branch_ratio=branch_ratio),
        )
    return NetworkConfig(variant=variant, num_classes=num_classes, stem_channels=stem,
                         stages=stages, head_width=head, switches=sw)


def _block_config(stage: StageSpec, block_idx: int, in_channels: int,
                  switches: NonlinearitySwitches):
    stride = 2 if block_idx == 0 else 1
    cin = in_channels if block_idx == 0 else stage.channels
    if stage.kind == "sir":
        return SIRConfig(channels=stage.channels, in_channels=cin,
                         expansion=stage.expansion, stride=stride)
    return DWRConfig(channels=stage.channels, in_channels=cin,
                     branch_count=stage.branch_count, dilations=stage.dilations,
                     branch_ratio=stage.branch_ratio, rr_expansion=stage.rr_expansion,
                     stride=stride, switches=switches, broadcast=stage.kind == "probe")


_BLOCK_FORWARD = {"sir": blocks.sir_forward, "dwr": blocks.dwr_forward,
                  "probe": blocks.dwr_forward}


def _declare(config: NetworkConfig, init, input_h: int = 32, input_w: int = 32):
    """One recorded run of `forward` at batch 0 on a store declaring with `init`.

    Every kernel and shape check runs as in a real forward, on empty
    activations, and each parameter is created the first time the forward
    asks for it, so the store holds them in call order.  Returns (store,
    tape, taps); node shapes have batch 0 and the store is no longer
    declaring.
    """
    store = ParamStore(init)
    tape = Tape()
    x = tape.leaf(np.zeros((0, 3, input_h, input_w), FLOAT))
    _, taps = forward(store, config, x, tape=tape)
    store.init = None
    return store, tape, taps


def build(config: NetworkConfig, rng_seed: int = 0) -> ParamStore:
    """Initialize all parameters (normal conv init with std sqrt(2/fan_in))."""
    return _declare(config, he_normal(np.random.default_rng(rng_seed)))[0]


def forward(params: ParamStore, config: NetworkConfig, x, mode: str = "eval",
            tape: Tape | None = None, capture: dict | None = None):
    """Run the network; returns (logits, taps) as tape vars.

    With the default tape=None a non-recording tape is used (no gradient
    storage).  `taps` maps stage names to their output feature maps.
    """
    if tape is None:
        tape = Tape(record=False)
    if not isinstance(x, Var):
        x = tape.leaf(np.ascontiguousarray(x))
    n, c, h, w = x.data.shape
    if h % 32 or w % 32:
        raise ShapeError(f"input size {h}x{w} must be divisible by 32")
    pv = ParamVars(tape, params)

    t = blocks.stem_forward(tape, pv, "stem", x, config.stem_channels, mode)
    taps: dict[str, Var] = {}
    prev = config.stem_channels
    for name, stage in zip(config.stage_names, config.stages):
        for j in range(stage.repeats):
            cfg = _block_config(stage, j, prev, config.switches)
            t = _BLOCK_FORWARD[stage.kind](tape, pv, f"{name}.{j}", t, cfg, mode,
                                           capture=capture)
        taps[name] = t
        prev = stage.channels

    h8, w8 = h // 8, w // 8
    up3 = tape.upsample(taps["s3"], h8, w8)
    up4 = tape.upsample(taps["s4"], h8, w8)
    cat = tape.concat([taps["s2"], up3, up4])
    gamma, beta, state = pv.bn("decoder.bn", cat.shape[1])
    cat = tape.batchnorm(cat, gamma, beta, state, mode)
    logits = blocks.seghead_forward(tape, pv, "head", cat, config.decoder_width,
                                    config.head_width, config.num_classes, h, w, mode)
    return logits, taps


def trace(config: NetworkConfig, input_h: int, input_w: int):
    """Recorded run of `forward` on a batch of zero 3 x input_h x input_w images.

    Returns (tape, taps): `tape.nodes` is the op graph, in call order, that
    MAC counts and the receptive-field trace are read from; every shape has
    batch 0.
    """
    _, tape, taps = _declare(config, zero_init, input_h, input_w)
    return tape, taps


def infer(params: ParamStore, config: NetworkConfig, x, mode: str = "eval"):
    """Array-level forward: (logits ndarray, {stage: ndarray})."""
    logits, taps = forward(params, config, x, mode=mode)
    return logits.data, {k: v.data for k, v in taps.items()}


def grads_from_backward(tape: Tape, params: ParamStore, root: Var,
                        seed_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Backprop and project onto parameter names (zeros where unreached)."""
    raw = tape.backward(root, seed_grad)
    named = tape.grads_by_name(raw)
    out = {}
    for name, arr in params.items():
        g = named.get(name)
        out[name] = g if g is not None else np.zeros_like(arr)
    return out


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def count_params(config: NetworkConfig):
    """(total, [(layer, count)]) over the parameters one trace declares.

    Layers are parameter names without their last field, in call order; BN
    counts gamma+beta, running stats excluded.
    """
    store, _, _ = _declare(config, zero_init)
    counts: dict[str, int] = {}
    for name, arr in store.items():
        layer = name.rsplit(".", 1)[0]
        counts[layer] = counts.get(layer, 0) + arr.size
    return sum(counts.values()), list(counts.items())


def count_macs(config: NetworkConfig, input_h: int, input_w: int):
    """(total, [(name, macs)]) for a 3 x input_h x input_w input.

    Convention: one MAC per multiply in a convolution, i.e. out_elements *
    k^2 * in_channels/groups; BN, ReLU, pooling and upsampling excluded.
    """
    tape, _ = trace(config, input_h, input_w)
    items = [(node.name, blocks.conv_macs(node.spec, (1, *node.shape[1:])))
             for node in tape.nodes if node.kind == "conv2d"]
    return sum(n for _, n in items), items


def _group_of(name: str) -> str:
    return name.split(".", 1)[0]


def breakdown_by_group(items) -> dict[str, int]:
    groups: dict[str, int] = {}
    for name, n in items:
        groups[_group_of(name)] = groups.get(_group_of(name), 0) + n
    return groups


def format_count_report(title: str, total: int, items, target: float | None = None) -> str:
    lines = [title, "-" * len(title)]
    for name, n in items:
        lines.append(f"  {name:<28s} {n:>14,d}")
    lines.append(f"  {'TOTAL':<28s} {total:>14,d}")
    if target is not None:
        dev = 100.0 * (total - target) / target
        lines.append(f"  {'reference':<28s} {int(target):>14,d}  ({dev:+.1f}%)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "variant": config.variant,
        "num_classes": config.num_classes,
        "stem_channels": config.stem_channels,
        "head_width": config.head_width,
        "switches": vars(config.switches).copy(),
        "stages": [
            {
                "kind": s.kind, "repeats": s.repeats, "channels": s.channels,
                "branch_count": s.branch_count, "dilations": list(s.dilations),
                "branch_ratio": list(s.branch_ratio),
                "rr_expansion": s.rr_expansion, "expansion": s.expansion,
            }
            for s in config.stages
        ],
    }


def config_from_dict(d: dict) -> NetworkConfig:
    stages = tuple(
        StageSpec(kind=s["kind"], repeats=s["repeats"], channels=s["channels"],
                  branch_count=s["branch_count"], dilations=tuple(s["dilations"]),
                  branch_ratio=tuple(s["branch_ratio"]),
                  rr_expansion=s["rr_expansion"], expansion=s["expansion"])
        for s in d["stages"])
    return NetworkConfig(variant=d["variant"], num_classes=d["num_classes"],
                         stem_channels=d["stem_channels"], stages=stages,
                         head_width=d["head_width"],
                         switches=NonlinearitySwitches(**d["switches"]))


def save_checkpoint(params: ParamStore, config: NetworkConfig, path) -> None:
    header = {
        "format": "dwrseg-checkpoint",
        "config": config_to_dict(config),
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params.items()],
        "stats": [{"name": n, "shape": list(a.shape)} for n, a in params.stat_items()],
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for _, arr in params.items():
            f.write(nt_bytes(arr))
        for _, arr in params.stat_items():
            f.write(nt_bytes(arr))


def load_checkpoint(path) -> tuple[ParamStore, NetworkConfig]:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    if len(buf) < 12:
        raise FormatError(f"{path}: checkpoint header truncated at {len(buf)} bytes")
    version, hlen = struct.unpack_from("<II", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(buf[12:12 + hlen].decode("utf-8"))
        config = config_from_dict(header["config"])
        param_entries = [(e["name"], e["shape"]) for e in header["params"]]
        stat_names = [e["name"] for e in header["stats"]]
        store = _declare(config, zero_init)[0]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: corrupt header ({type(exc).__name__}: {exc})") from exc
    if [name for name, _ in param_entries] != store.names():
        raise FormatError(f"{path}: parameter manifest does not match the config")
    offset = 12 + hlen
    for name, shape in param_entries:
        arr, offset = nt_from_bytes(buf, offset)
        if list(arr.shape) != shape:
            raise FormatError(f"{path}: shape mismatch for {name}")
        store.set_(name, arr)
    if stat_names != [n for n, _ in store.stat_items()]:
        raise FormatError(f"{path}: statistics manifest does not match the config")
    for name in stat_names:
        arr, offset = nt_from_bytes(buf, offset)
        store.set_stat_(name, arr)
    if offset != len(buf):
        raise FormatError(f"{path}: {len(buf) - offset} trailing byte(s)")
    return store, config


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def benchmark_forward(params: ParamStore, config: NetworkConfig, input_shape,
                      warmup: int = 2, iters: int = 10) -> dict:
    """Wall-time stats for eval-mode forward (not comparable to GPU numbers)."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(0)
    x = rng.random(input_shape, dtype=np.float32)
    for _ in range(warmup):
        forward(params, config, x, mode="eval")
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        forward(params, config, x, mode="eval")
        samples.append(time.perf_counter() - t0)
    ordered = sorted(samples)
    p95 = ordered[min(len(ordered) - 1, int(np.ceil(0.95 * len(ordered))) - 1)]
    mean = statistics.fmean(samples)
    return {
        "input_shape": list(input_shape),
        "warmup": warmup,
        "iters": iters,
        "samples_s": samples,
        "mean_s": mean,
        "median_s": statistics.median(samples),
        "p95_s": p95,
        "fps": (1.0 / mean) if mean > 0 else float("inf"),
    }
