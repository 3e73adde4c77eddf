"""Command-line entry point.

Subcommands: train, eval, predict, count, bench, analyze, preset.
Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.

Run configs are strict JSON documents whose sections' keys, types and
defaults are the fields of their dataclasses (unknown keys are rejected);
use `dwrseg preset desk` to emit a fully populated starting point.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import json
import os
import reprlib
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, data, network, training
from .data import ShapesSpec
from .engine import FormatError, NumericError, ShapeError, ops, write_nt
from .training import AugmentConfig, OhemConfig, TrainConfig


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class DataSection:
    kind: str = "shapes"                 # "shapes" | "manifest"
    dir: str | None = None               # manifest only
    canvas: tuple[int, int] = (64, 64)
    shapes_per_image: tuple[int, int] = (1, 3)
    size_range: tuple[int, int] = (12, 28)
    noise: float = 0.04
    seed: int = 7
    train_count: int = 256
    val_count: int = 64

    def __post_init__(self):
        if self.kind not in ("shapes", "manifest"):
            raise ValueError("config.data.kind must be 'shapes' or 'manifest'")
        if self.kind == "manifest" and not self.dir:
            raise ValueError("config.data.dir is required for manifest datasets")
        if min(self.canvas) < 1:
            raise ValueError(f"canvas must be two sizes >= 1, got {self.canvas}")
        for name in ("train_count", "val_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def spec(self, num_classes: int) -> ShapesSpec:
        """The synthetic-shapes generator this section describes."""
        return ShapesSpec(canvas=self.canvas, num_classes=num_classes,
                          shapes_per_image=self.shapes_per_image,
                          size_range=self.size_range, noise=self.noise, seed=self.seed)


@dataclass
class RunConfig:
    variant: str = "tiny"
    num_classes: int = 4
    out_dir: str = "runs/out"
    data: DataSection = field(default_factory=DataSection)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.variant not in network.VARIANTS:
            raise ValueError(f"variant must be one of {sorted(network.VARIANTS)}")
        # class ids fit a PGM mask, and 255 stays free for the ignore label
        if not 2 <= self.num_classes <= 255:
            raise ValueError(f"num_classes must be in [2, 255], got {self.num_classes}")
        if 0 <= self.train.ohem.ignore_label < self.num_classes:
            raise ValueError(f"ohem.ignore_label {self.train.ohem.ignore_label} is a class id "
                             f"(classes are 0..{self.num_classes - 1})")
        self.data.spec(self.num_classes)  # its range checks, before anything runs


# JSON keys that differ from the field they set
_ALIASES = {"batch_size": "batch", "lr_base": "lr"}
# the JSON name and the Python types a value of each annotated scalar type may have
_SCALARS = {int: ("an integer", int), float: ("a number", (int, float)),
            str: ("a string", str)}


class _Shown(reprlib.Repr):
    """Reprs cut short for error messages, including integers too long for
    repr itself (over sys.get_int_max_str_digits(), 4300 by default)."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_shown = _Shown().repr


def _is(value, kind: type) -> bool:
    if isinstance(value, bool) or not isinstance(value, _SCALARS[kind][1]):
        return False
    # an integer beyond the float range is no number for a float field
    return not (kind is float and isinstance(value, int) and abs(value) > sys.float_info.max)


def _value(hint, value, where: str):
    """The JSON value as its field's annotated type.

    The types are int, float (which also takes an integer), str, str | None,
    and pairs of either number type, given as a two-element array.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        kind = args[0]
        if not (isinstance(value, list) and len(value) == 2
                and all(_is(v, kind) for v in value)):
            raise ConfigError(
                f"{where} must be an array of two {kind.__name__}s, got {_shown(value)}")
        return tuple(map(kind, value))
    if value is None and type(None) in args:
        return None
    kind = args[0] if args else hint
    if not _is(value, kind):
        raise ConfigError(f"{where} must be {_SCALARS[kind][0]}, got {_shown(value)}")
    return kind(value)


def _section(cls, doc, where: str, **given):
    """A `cls` built from the JSON object doc, whose keys are cls's fields.

    Fields in given are set by the parser and are not keys; a missing key
    takes its field's default, and cls's own ValueError becomes a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {_shown(doc)}")
    hints = typing.get_type_hints(cls)
    names = {_ALIASES.get(f.name, f.name): f.name for f in fields(cls) if f.name not in given}
    unknown = set(doc) - set(names)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    values = {names[k]: _value(hints[names[k]], v, f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_run_config(doc: dict) -> RunConfig:
    """The RunConfig of a JSON document.

    The train section's seed, OHEM and augmentation come from the top-level
    keys `seed`, `ohem` and `augment`; the augment crop defaults to the canvas.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be an object, got {_shown(doc)}")
    top = dict(doc)
    seed = _value(int, top.pop("seed", TrainConfig.seed), "config.seed")
    data_sec = _section(DataSection, top.pop("data", {}), "config.data")
    ohem = _section(OhemConfig, top.pop("ohem", {}), "config.ohem")
    aug = top.pop("augment", None)
    if aug is not None:  # null, or no key, means no augmentation
        a = _section(AugmentConfig, aug, "config.augment")
        aug = a if "crop" in aug else replace(a, crop=data_sec.canvas)
    train = _section(TrainConfig, top.pop("train", {}), "config.train",
                     seed=seed, ohem=ohem, augment=aug)
    return _section(RunConfig, top, "config", data=data_sec, train=train)


def _doc(cfg):
    """The JSON document `parse_run_config` reads back as cfg: field names
    under their `_ALIASES`, the train section's seed, OHEM and augmentation
    at the top level, and pairs as arrays."""
    if isinstance(cfg, tuple):
        return list(cfg)
    if not is_dataclass(cfg):
        return cfg
    doc = {_ALIASES.get(f.name, f.name): _doc(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, RunConfig):
        doc.update((key, doc["train"].pop(key)) for key in ("seed", "ohem", "augment"))
    return doc


def load_run_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(doc)


def _check_train_size(train_set, cfg: TrainConfig) -> None:
    """The input size of every training step, checked as the forward checks it:
    the crop with augment, else the one size all training images share.  A
    batch must also give train-mode batch norm two values per channel at the
    network's 1/32 scale."""
    if cfg.augment is not None:
        sizes = {cfg.augment.crop}
    else:
        sizes = {s.image.shape[2:] for s in train_set}
    if len(sizes) > 1:
        raise ConfigError(f"without augment every training image needs one size, "
                          f"got {sorted(sizes)}")
    h, w = sizes.pop()
    network.check_input_size(h, w)
    ops.check_bn_count(cfg.batch_size * (h // 32) * (w // 32))


def _check_out(path, directory: bool = False) -> None:
    """Fail before any work where `path` (if given) cannot take a command's
    output: an output file must not be a directory, and its parent must be
    one; an output directory must not be a file.  The error is the OSError
    the write would raise."""
    if not path:
        return
    path = Path(path)
    if directory:
        code = errno.EEXIST if path.exists() and not path.is_dir() else 0
    elif path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        code = 0
    if code:
        raise OSError(code, os.strerror(code), str(path))


def _report(doc, out, text=None) -> None:
    """Write doc as JSON to `out` if one is given, then print `text`, or the
    JSON when there is no text."""
    js = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(js, encoding="utf-8")
    print(js if text is None else text)


def _load_datasets(cfg: RunConfig):
    if cfg.data.kind == "manifest":
        samples = data.load_manifest(cfg.data.dir)
        split = max(1, int(0.8 * len(samples)))
        return samples[:split], samples[split:] or samples[:1]
    spec = cfg.data.spec(cfg.num_classes)
    train = data.make_dataset(spec, cfg.data.train_count, start=0)
    val = data.make_dataset(spec, cfg.data.val_count, start=cfg.data.train_count)
    return train, val


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    overrides = {"seed": args.seed, "iters": args.iters}
    cfg.train = replace(cfg.train, **{k: v for k, v in overrides.items() if v is not None})
    train_set, val_set = _load_datasets(cfg)
    if cfg.train.iters > 0:
        _check_train_size(train_set, cfg.train)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    net_cfg = network.preset(cfg.variant, num_classes=cfg.num_classes)
    params = network.build(net_cfg, rng_seed=cfg.train.seed)

    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.dwck"
    if cfg.train.iters > 0:
        log = training.train_loop(params, net_cfg, train_set, cfg.train,
                                  val_dataset=val_set, log_path=metrics_path)
        report = log[-1]["eval"]
    else:
        metrics_path.write_text("", encoding="utf-8")
        report = training.evaluate(params, net_cfg, val_set, cfg.train.ohem.ignore_label)
    network.save_checkpoint(params, net_cfg, ckpt_path)
    (out_dir / "eval.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps({"checkpoint": str(ckpt_path), "metrics": str(metrics_path),
                      "eval": str(out_dir / "eval.json"), "miou": report["miou"],
                      "workers": ops.workers(), "blas_threads": blas_threads()}))
    return 0


def cmd_eval(args) -> int:
    if not (args.data or args.config):
        raise ConfigError("eval needs --config or --data for its validation samples")
    _check_out(args.out)
    params, net_cfg = network.load_checkpoint(args.checkpoint)
    cfg = load_run_config(args.config) if args.config else None
    samples = data.load_manifest(args.data) if args.data else _load_datasets(cfg)[1]
    ignore_label = cfg.train.ohem.ignore_label if cfg else data.IGNORE_LABEL
    _report(training.evaluate(params, net_cfg, samples, ignore_label), args.out)
    return 0


def cmd_predict(args) -> int:
    _check_out(args.out)
    params, net_cfg = network.load_checkpoint(args.checkpoint)
    pred = network.predict_labels(params, net_cfg, data.read_ppm(args.image))[0]
    h, w = pred.shape
    data.write_pgm(args.out, pred)
    print(json.dumps({"out": str(args.out), "height": h, "width": w,
                      "classes_present": sorted(int(c) for c in np.unique(pred))}))
    return 0


def cmd_count(args) -> int:
    _check_out(args.out)
    cfg = network.preset(args.variant, num_classes=args.classes)
    p_total, p_items = network.count_params(cfg)
    m_total, m_items = network.count_macs(cfg, args.height, args.width)
    result = {
        "variant": args.variant,
        "num_classes": args.classes,
        "params": p_total,
        "macs": m_total,
        "mac_input": [3, args.height, args.width],
        "param_breakdown": network.breakdown_by_group(p_items),
        "mac_breakdown": network.breakdown_by_group(m_items),
        "param_layers": [{"name": n, "count": c} for n, c in p_items],
    }
    p_target = network.PARAM_TARGETS.get(args.variant)
    # the reference MACs are for the paper's input size only
    m_target = (network.MAC_TARGETS.get(args.variant)
                if (args.height, args.width) == (512, 1024) else None)
    if p_target:
        result["param_target"] = p_target
        result["param_deviation_pct"] = 100.0 * (p_total - p_target) / p_target
    if m_target:
        result["mac_target"] = m_target
        result["mac_deviation_pct"] = 100.0 * (m_total - m_target) / m_target
    text = None if args.json else "\n\n".join((
        network.format_count_report(f"parameters: {args.variant}", p_total, p_items, p_target),
        network.format_count_report(f"MACs: {args.variant} at 3x{args.height}x{args.width}",
                                    m_total, m_items, m_target)))
    _report(result, args.out, text)
    return 0


def cmd_bench(args) -> int:
    cfg = network.preset(args.variant, num_classes=args.classes)
    params = network.build(cfg, rng_seed=args.seed)
    stats = network.benchmark_forward(params, cfg, (1, 3, args.height, args.width),
                                      warmup=args.warmup, iters=args.iters)
    stats["variant"] = args.variant
    stats["workers"] = ops.workers()
    stats["blas_threads"] = blas_threads()
    print(json.dumps(stats, indent=2))
    return 0


def _analysis_image(args, net_cfg):
    """--image, or else sample 0 of the shapes generator at --seed, padded to 32."""
    if args.image:
        image = data.read_ppm(args.image)
    else:
        image = data.generate(ShapesSpec(num_classes=net_cfg.num_classes, seed=args.seed), 0).image
    return network.pad_to_32(image)


def cmd_analyze(args) -> int:
    out = args.out or {"erf": "erf.nt", "heatmaps": "heatmaps"}.get(args.what)
    _check_out(out, directory=args.what == "heatmaps")
    if args.what == "erf":  # the tensor goes to out, its preview beside it
        out, pgm = Path(out), Path(out).with_suffix(".pgm")
        if pgm == out:
            raise ConfigError(f"analyze erf --out {out}: its .pgm preview would overwrite it")
        _check_out(pgm)
    if args.what == "rf":
        report = analysis.network_rf_report(network.preset(args.variant))
        lines = [f"theoretical receptive field: {args.variant}"]
        lines += [f"  {row['layer']:<24s} rf={row['rf']:>6d} jump={row['jump']}"
                  for row in report["trace"]]
        lines += [f"  {block:<24s} " + ", ".join(f"{k}: rf={v}" for k, v in branches.items())
                  for block, branches in report["branches"].items()]
        _report(report, args.out, None if args.json else "\n".join(lines))
        return 0

    if not args.checkpoint:
        raise ConfigError(f"analyze {args.what} needs --checkpoint")
    params, net_cfg = network.load_checkpoint(args.checkpoint)
    if args.what == "erf":
        image = _analysis_image(args, net_cfg)
        tap_h, tap_w = network.trace(net_cfg, *image.shape[2:])[2][args.stage].shape[2:]
        cy = args.cy if args.cy is not None else tap_h // 2
        cx = args.cx if args.cx is not None else tap_w // 2
        heat = analysis.erf_map(params, net_cfg, image, (cy, cx), stage=args.stage)
        write_nt(out, heat.astype(np.float32))
        peak = float(heat.max()) or 1.0
        data.write_pgm(pgm, np.clip(np.rint(255 * heat / peak), 0, 255).astype(np.int32))
        nz = np.argwhere(heat > 0)
        bbox = ([int(v) for v in nz.min(axis=0)] + [int(v) for v in nz.max(axis=0)]
                if nz.size else [])
        print(json.dumps({"out": str(out), "pgm": str(pgm), "stage": args.stage,
                          "center": [cy, cx], "support_bbox": bbox}))
        return 0

    if args.what == "weights":
        stats = analysis.branch_weight_stats(params, net_cfg, bins=args.bins)
        _report([row for s in stats for row in s.to_json()], args.out)
        return 0

    # heatmaps
    result = analysis.dump_feature_heatmaps(params, net_cfg, _analysis_image(args, net_cfg),
                                            args.block, out)
    print(json.dumps({"files": result["files"]}))
    return 0


# the desk recipe: the config defaults with augmentation
DESK_PRESET = _doc(RunConfig(out_dir="runs/tiny", train=TrainConfig(augment=AugmentConfig(
    scale_range=(0.75, 1.25), crop=(64, 64), brightness=0.15, contrast=0.15,
    saturation=0.15))))

# the published full-scale recipe, kept as a reference preset (not used in tests)
FULL_PRESET = _doc(RunConfig(
    variant="B", num_classes=19, out_dir="runs/full",
    data=DataSection(kind="manifest", dir="datasets/converted"),
    train=TrainConfig(iters=185000, batch_size=16, log_every=100, eval_every=5000,
                      augment=AugmentConfig(scale_range=(0.25, 1.5), crop=(640, 1280),
                                            brightness=0.3, contrast=0.3, saturation=0.3))))


def cmd_preset(args) -> int:
    print(json.dumps(DESK_PRESET if args.name == "desk" else FULL_PRESET, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dwrseg",
        description="Train, evaluate, and analyze DWRSeg networks on the CPU.",
        epilog="Config defaults: see `dwrseg preset desk`. Exit codes: "
               "0 ok, 2 config error, 3 numeric failure.")
    p.add_argument("--threads", type=int, default=ops.DEFAULT_WORKERS,
                   help="threads that run the bands of each forward op (default: the "
                        f"{ops.DEFAULT_WORKERS} cores this process may use); BLAS runs "
                        "on one thread, and seeded runs repeat bitwise at any count")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a run config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None, help="override config seed")
    t.add_argument("--iters", type=int, default=None, help="override config iteration count")
    t.add_argument("--out", default=None, help="override config out_dir")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", help="run config providing the validation data")
    e.add_argument("--data", help="directory of .ppm/_mask.pgm pairs")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    pr = sub.add_parser("predict", help="segment one PPM image")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--image", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_predict)

    c = sub.add_parser("count", help="parameter and MAC counts")
    c.add_argument("variant", choices=list(network.VARIANTS))
    c.add_argument("--classes", type=int, default=19)
    c.add_argument("--height", type=int, default=512)
    c.add_argument("--width", type=int, default=1024)
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_count)

    b = sub.add_parser("bench", help="forward-pass wall-time benchmark")
    b.add_argument("variant", choices=list(network.VARIANTS))
    b.add_argument("height", type=int)
    b.add_argument("width", type=int)
    b.add_argument("--classes", type=int, default=19)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--warmup", type=int, default=2)
    b.add_argument("--iters", type=int, default=10)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("analyze", help="receptive fields, ERF, weights, heatmaps")
    a.add_argument("what", choices=["rf", "erf", "weights", "heatmaps"])
    a.add_argument("--variant", default="B", choices=list(network.VARIANTS))
    a.add_argument("--checkpoint")
    a.add_argument("--image")
    a.add_argument("--stage", default="s4", choices=["s2", "s3", "s4"])
    a.add_argument("--cy", type=int, default=None)
    a.add_argument("--cx", type=int, default=None)
    a.add_argument("--block", default="s4.0")
    a.add_argument("--bins", type=int, default=24)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--json", action="store_true")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("preset", help="print an example run config")
    ps.add_argument("name", choices=["desk", "full"])
    ps.set_defaults(fn=cmd_preset)
    return p


_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_fn(verb: str):
    """`<prefix>_<verb>_num_threads` of the OpenBLAS bundled with numpy, or None."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _OPENBLAS_SYMBOLS:
            fn = getattr(lib, symbol.format(verb), None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Worker threads numpy's OpenBLAS uses now; None if it cannot be read."""
    fn = _openblas_fn("get")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def set_blas_threads(n: int) -> int | None:
    """Cap numpy's OpenBLAS at max(1, n) workers; return the count read back.

    Without the OpenBLAS thread API the count is left as it is and the
    effective count is reported on stderr.
    """
    fn = _openblas_fn("set")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(max(1, n))
    threads = blas_threads()
    if fn is None:
        print(f"warning: cannot set BLAS threads to {n} (numpy's OpenBLAS not found); "
              f"threads in use: {threads or 'unknown'}", file=sys.stderr)
    return threads


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    set_blas_threads(1)
    try:
        ops.set_workers(args.threads)
        return args.fn(args)
    except (ConfigError, FormatError, ShapeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
