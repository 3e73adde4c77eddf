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
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import StageSpec
from .engine import FLOAT, FormatError, ShapeError, Tape, Var, nt_bytes, nt_from_bytes
from .params import ParamStore, ParamVars, he_normal, zero_init

CHECKPOINT_MAGIC = b"DWCK"
CHECKPOINT_VERSION = 1

# published reference budgets for the two full-size variants
PARAM_TARGETS = {"B": 2.54e6, "L": 3.53e6}
MAC_TARGETS = {"B": 13.62e9, "L": 16.42e9}  # at 3x512x1024


@dataclass(frozen=True)
class NetworkConfig:
    variant: str
    num_classes: int
    stem_channels: int
    stages: tuple[StageSpec, StageSpec, StageSpec]
    head_width: int

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


def preset(variant: str, num_classes: int = 19, probe: bool = False) -> NetworkConfig:
    """Named configuration; `probe` swaps every block for the receptive-field
    demand variant."""
    if variant not in _PRESETS:
        raise ShapeError(f"unknown variant {variant!r}; expected one of {sorted(_PRESETS)}")
    stem, (r2, c2), (r3, c3), (r4, c4), head = _PRESETS[variant]
    if probe:
        stages = tuple(StageSpec("probe", r, ch, branch_count=3)
                       for r, ch in ((r2, c2), (r3, c3), (r4, c4)))
        variant = f"{variant}-probe"
    else:
        stages = (
            StageSpec("sir", r2, c2),
            StageSpec("dwr", r3, c3, branch_count=2),
            StageSpec("dwr", r4, c4, branch_count=3),
        )
    return NetworkConfig(variant=variant, num_classes=num_classes, stem_channels=stem,
                         stages=stages, head_width=head)


_BLOCK_FORWARD = {"sir": blocks.sir_forward, "dwr": blocks.dwr_forward,
                  "probe": blocks.dwr_forward}


def trace(config: NetworkConfig, input_h: int = 32, input_w: int = 32, init=zero_init):
    """One recorded pass at batch 0 that declares with `init` into a new store.

    Every kernel and shape check runs as in a real forward, on empty
    activations, and each parameter is created the first time the pass
    asks for it, so the store holds them in call order.  Returns (store,
    tape, taps): `tape.nodes` is the op graph, in call order, that MAC
    counts and the receptive-field trace are read from; every shape has
    batch 0.  Only this pass declares: any later forward on the store needs
    every parameter to exist.
    """
    pv = ParamVars(Tape(), ParamStore(), init=init)
    x = pv.tape.leaf(np.zeros((0, 3, input_h, input_w), FLOAT))
    _, taps = _forward(pv, config, x)
    return pv.store, pv.tape, taps


def build(config: NetworkConfig, rng_seed: int = 0) -> ParamStore:
    """Initialize all parameters (normal conv init with std sqrt(2/fan_in))."""
    return trace(config, init=he_normal(np.random.default_rng(rng_seed)))[0]


def _decoder(pv: ParamVars, taps: dict[str, Var]) -> Var:
    """BN over s2 concatenated with s3 and s4 upsampled to its 1/8 scale."""
    tape = pv.tape
    h8, w8 = taps["s2"].shape[2:]
    cat = tape.concat([taps["s2"], tape.upsample(taps["s3"], h8, w8),
                       tape.upsample(taps["s4"], h8, w8)])
    return pv.bn("decoder.bn", cat)


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
    return _forward(ParamVars(tape, params, mode, capture), config, x)


def check_input_size(h: int, w: int) -> None:
    """ShapeError unless an h x w input reaches 1/32 scale in whole pixels."""
    if h % 32 or w % 32:
        raise ShapeError(f"input size {h}x{w} must be divisible by 32")


def _forward(pv: ParamVars, config: NetworkConfig, x: Var):
    n, c, h, w = x.data.shape
    check_input_size(h, w)
    t = blocks.stem_forward(pv, "stem", x, config.stem_channels)
    taps: dict[str, Var] = {}
    for name, stage in zip(config.stage_names, config.stages):
        for j in range(stage.repeats):
            t = _BLOCK_FORWARD[stage.kind](pv, f"{name}.{j}", t, stage, 2 if j == 0 else 1)
        taps[name] = t

    # the decoder output is passed on, not kept: the head drops it after its
    # first conv, so no decoder feature is alive during the final upsample
    logits = blocks.seghead_forward(
        pv, "head", _decoder(pv, taps),
        config.decoder_width, config.head_width, config.num_classes, h, w)
    return logits, taps


def infer(params: ParamStore, config: NetworkConfig, x, mode: str = "eval"):
    """Array-level forward: (logits ndarray, {stage: ndarray})."""
    logits, taps = forward(params, config, x, mode=mode)
    return logits.data, {k: v.data for k, v in taps.items()}


def pad_to_32(images: np.ndarray) -> np.ndarray:
    """(n, c, h, w) images edge-padded at the bottom and right to multiples of 32."""
    _, _, h, w = images.shape
    return np.pad(images, ((0, 0), (0, 0), (0, -h % 32), (0, -w % 32)), mode="edge")


def predict_labels(params: ParamStore, config: NetworkConfig, images: np.ndarray) -> np.ndarray:
    """Eval-mode class labels (n, h, w) of (n, 3, h, w) images of any size: the
    argmax over classes of `infer` on `pad_to_32(images)`, cropped to h x w."""
    _, _, h, w = images.shape
    logits, _ = infer(params, config, pad_to_32(images), mode="eval")
    return logits.argmax(axis=1)[:, :h, :w]


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
    store, _, _ = trace(config)
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
    _, tape, _ = trace(config, input_h, input_w)
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

# Header keys of checkpoint format v1 that no field of NetworkConfig holds
# are written at the one value the network is built with, and a header with
# any other value is rejected.
_V1_SWITCHES = {"rr_relu": True, "rr_bn": True, "sr_bn": True,
                "sr_relu_after_bn": False, "bn_after_pointwise": False}


def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "variant": config.variant,
        "num_classes": config.num_classes,
        "stem_channels": config.stem_channels,
        "head_width": config.head_width,
        "switches": dict(_V1_SWITCHES),
        "stages": [
            {
                "kind": s.kind, "repeats": s.repeats, "channels": s.channels,
                "branch_count": s.branch_count,
                "dilations": list(blocks.DILATIONS[s.branch_count]) if s.kind == "probe" else [],
                "branch_ratio": [], "rr_expansion": 1.5, "expansion": s.expansion,
            }
            for s in config.stages
        ],
    }


def config_from_dict(d: dict) -> NetworkConfig:
    """Config of a v1 header; FormatError unless `config_to_dict` gives it back."""
    stages = tuple(
        StageSpec(kind=s["kind"], repeats=s["repeats"], channels=s["channels"],
                  branch_count=s["branch_count"], expansion=s["expansion"])
        for s in d["stages"])
    config = NetworkConfig(variant=d["variant"], num_classes=d["num_classes"],
                           stem_channels=d["stem_channels"], stages=stages,
                           head_width=d["head_width"])
    if json.dumps(config_to_dict(config), sort_keys=True) != json.dumps(d, sort_keys=True):
        raise FormatError("config header describes a network this version does not build")
    return config


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
        for _, arr in [*params.items(), *params.stat_items()]:
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
        stat_entries = [(e["name"], e["shape"]) for e in header["stats"]]
        # every block declares several tensors: more blocks than manifest
        # entries is a wrong header, rejected before anything is allocated
        if sum(s.repeats for s in config.stages) > len(param_entries):
            raise FormatError("config declares more blocks than the manifest holds")
        store = trace(config)[0]
    except (KeyError, TypeError, ValueError, RecursionError, MemoryError) as exc:
        raise FormatError(f"{path}: corrupt header ({type(exc).__name__}: {exc})") from exc
    offset = 12 + hlen
    for what, entries, table, set_ in (
            ("parameter", param_entries, store.items(), store.set_),
            ("statistics", stat_entries, store.stat_items(), store.set_stat_)):
        if entries != [(name, list(a.shape)) for name, a in table]:
            raise FormatError(f"{path}: {what} manifest does not match the config")
        for name, shape in entries:
            arr, offset = nt_from_bytes(buf, offset)
            if list(arr.shape) != shape:
                raise FormatError(f"{path}: shape mismatch for {name}")
            set_(name, arr)
    if offset != len(buf):
        raise FormatError(f"{path}: {len(buf) - offset} trailing byte(s)")
    return store, config


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def benchmark_forward(params: ParamStore, config: NetworkConfig, input_shape,
                      warmup: int = 2, iters: int = 10) -> dict:
    """Wall-time stats for eval-mode forward (not comparable to GPU numbers).

    minor_faults_per_iter and system_s_per_iter are this process's minor page
    faults and system CPU seconds over the timed forwards, per forward;
    max_rss_mb is its peak resident set after them.  peak_mb is the
    tracemalloc peak (MiB) of one more forward, run after the timed ones so
    tracing does not slow them.
    """
    import resource  # Unix only

    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    rng = np.random.default_rng(0)
    x = rng.random(input_shape, dtype=np.float32)
    for _ in range(warmup):
        forward(params, config, x, mode="eval")
    samples = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(iters):
        t0 = time.perf_counter()
        forward(params, config, x, mode="eval")
        samples.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    try:
        forward(params, config, x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mean = statistics.fmean(samples)
    return {
        "input_shape": list(input_shape),
        "warmup": warmup,
        "iters": iters,
        "samples_s": samples,
        "mean_s": mean,
        "median_s": statistics.median(samples),
        "fps": (1.0 / mean) if mean > 0 else float("inf"),
        "peak_mb": peak / 2**20,
        "minor_faults_per_iter": (after.ru_minflt - before.ru_minflt) / iters,
        "system_s_per_iter": (after.ru_stime - before.ru_stime) / iters,
        "max_rss_mb": after.ru_maxrss / 1024,  # KiB on Linux
    }
