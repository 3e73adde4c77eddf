"""Malformed inputs: every reader of outside bytes or JSON fails with a
FormatError or a ConfigError (exit code 2), never with another exception,
and every command run on drawn configs, images and paths of the wrong kind
(a directory for a file, a file for the out directory) ends in exit code 0,
2 or 3."""

import contextlib
import dataclasses
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwrseg import data as D
from dwrseg import network as N
from dwrseg.cli import (
    DESK_PRESET,
    ConfigError,
    DataSection,
    RunConfig,
    _doc,
    main,
    parse_run_config,
)
from dwrseg.engine import FormatError, nt_bytes, nt_from_bytes, read_nt
from dwrseg.training import AugmentConfig, OhemConfig, TrainConfig

FUZZ = settings(max_examples=60, deadline=None)

NT = nt_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))
PPM = b"P6\n# c\n2 1\n255\n" + bytes(range(6))
PGM = b"P5 2 1 255\n\x07\x08"


def corrupted(valid: bytes, span: int | None = None):
    """Arbitrary bytes, or `valid` cut short with up to four of its first
    `span` bytes overwritten (overwrites add no bytes, so the numbers in a
    corrupted checkpoint header stay short and never ask for a large net;
    test_checkpoint_header_values asks for one)."""
    span = len(valid) if span is None else span
    edits = st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 255)), max_size=4)

    def apply(cut, edits):
        buf = bytearray(valid[:cut])
        for i, b in edits:
            if i < len(buf):
                buf[i] = b
        return bytes(buf)

    return st.one_of(st.binary(max_size=80), st.builds(apply, st.integers(0, len(valid)), edits))


def only_typed_errors(read, *args):
    try:
        read(*args)
    except (FormatError, ConfigError):
        pass


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def checkpoint(path):
    cfg = N.preset("tiny", num_classes=4)
    N.save_checkpoint(N.build(cfg, rng_seed=0), cfg, path)
    return path.read_bytes()


@FUZZ
@given(buf=corrupted(NT))
@example(buf=b"NTSR" + struct.pack("<II", 1, 65) + struct.pack("<65I", *[1] * 65) + bytes(4))
def test_nt_bytes(path, buf):
    only_typed_errors(nt_from_bytes, buf)
    path.write_bytes(buf)
    only_typed_errors(read_nt, path)


@FUZZ
@given(buf=corrupted(PPM))
@example(buf=b"P6" + b" " * 64 + b"x")
@example(buf=b"P6 " + b"9" * 5000 + b" 1 255\n")
def test_ppm_bytes(path, buf):
    path.write_bytes(buf)
    only_typed_errors(D.read_ppm, path)


@FUZZ
@given(buf=corrupted(PGM))
@example(buf=b"P5" + b"\n" * 64 + b"#")
def test_pgm_bytes(path, buf):
    path.write_bytes(buf)
    only_typed_errors(D.read_pgm, path)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checkpoint_bytes(path, checkpoint, data):
    header_end = 12 + struct.unpack_from("<I", checkpoint, 8)[0]
    path.write_bytes(data.draw(corrupted(checkpoint, span=header_end + 16)))
    only_typed_errors(N.load_checkpoint, path)


# Config values a header may carry: sizes of the network (widths, block and
# branch counts, expansion, classes), each replaced by one of VALUES.  10**4
# and 10**5 are left out: an allocation that size may be granted, while one of
# 10**6 or more fails at once and 10**3 stays small.
HEADER_FIELDS = [("num_classes",), ("stem_channels",), ("head_width",)] + [
    ("stages", i, key) for i in range(3)
    for key in ("channels", "repeats", "branch_count", "expansion")]
VALUES = [0, -1, 15, True, 1.5, "2", 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]


@settings(max_examples=60, deadline=None)
@given(where=st.sampled_from(HEADER_FIELDS), value=st.sampled_from(VALUES))
@example(where=("stages", 0, "channels"), value=10 ** 8)
@example(where=("stages", 0, "repeats"), value=10 ** 9)
def test_checkpoint_header_values(path, checkpoint, where, value):
    end = 12 + struct.unpack_from("<I", checkpoint, 8)[0]
    header = json.loads(checkpoint[12:end])
    parent = header["config"]
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    path.write_bytes(checkpoint[:8] + struct.pack("<I", len(blob)) + blob + checkpoint[end:])
    # each value changes the network, or sits in a field its stage kind
    # ignores and must keep at its default: no such header loads
    with pytest.raises(FormatError):
        N.load_checkpoint(path)


# Keys are mostly real section and field names, so values reach the field checks.
KEYS = st.sampled_from(sorted(
    {"seed", "data", "train", "ohem", "augment", "batch", "lr"}
    | {f.name for cls in (RunConfig, DataSection, TrainConfig, OhemConfig, AugmentConfig)
       for f in dataclasses.fields(cls)})) | st.text(max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16)


@FUZZ
@given(doc=JSON | st.dictionaries(KEYS, JSON, max_size=5))
@example(doc={"train": {"lr": 10 ** 400}})
@example(doc={"variant": 10 ** 5000, "data": {"dir": 10 ** 5000}})
@example(doc={**DESK_PRESET, "data": {**DESK_PRESET["data"], "noise": -10 ** 400}})
def test_run_config_json(doc):
    parses_back(doc)


def parses_back(doc):
    """Only typed errors from parse_run_config(doc); a config that parses is
    one that `_doc` writes back as a document of the same config."""
    try:
        cfg = parse_run_config(doc)
    except (FormatError, ConfigError):
        return
    assert parse_run_config(_doc(cfg)) == cfg


# Run configs near the desk preset, small enough that one train, eval and
# predict take a fraction of a second.  Colour jitter and scale maxima include
# values too large to draw from or to resample with, and crops include sizes
# off the stride of 32.
LARGE = st.sampled_from([0.0, 0.15, 1.0, 1e308, math.inf])
AUGMENT = st.none() | st.fixed_dictionaries({}, optional={
    "scale_range": st.tuples(st.sampled_from([0.5, 1.0]),
                             st.sampled_from([1.0, 1.5, 1e308, math.inf])).map(list),
    "crop": st.lists(st.sampled_from([16, 32, 40, 64]), min_size=2, max_size=2),
    "hflip_prob": st.sampled_from([0.0, 0.5, 1.0]),
    "brightness": LARGE, "contrast": LARGE, "saturation": LARGE})
RUN = st.fixed_dictionaries({
    "variant": st.just("tiny"),
    "num_classes": st.integers(2, 5),
    "seed": st.integers(0, 3),
    "data": st.fixed_dictionaries({
        "canvas": st.just([32, 32]), "train_count": st.integers(1, 4),
        "val_count": st.integers(1, 2), "seed": st.integers(0, 3)}),
    "train": st.fixed_dictionaries({
        "iters": st.integers(0, 2), "batch": st.integers(1, 2),
        "log_every": st.integers(0, 2), "eval_every": st.integers(0, 1)}),
    "ohem": st.fixed_dictionaries({}, optional={
        "ignore_label": st.sampled_from([-1, 0, 254, 255])}),
    "augment": AUGMENT})
# image and mask sizes drawn apart, so masks of another size occur
SIZE = st.tuples(st.integers(1, 48), st.integers(1, 48))
PAIR = st.tuples(SIZE, SIZE | st.none(), st.sampled_from([0, 1, 4, 255]), st.integers(0, 9))
# paths that name a directory where a file is read or written, or an existing
# file where the out directory goes; each is run besides the valid commands
BAD_PATHS = ("eval --checkpoint", "eval --out", "predict --checkpoint", "predict --image",
             "predict --out", "count --out", "analyze rf --out", "analyze erf --image",
             "analyze heatmaps --out", "train --out")


def run_command(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    return code


@FUZZ
@given(doc=RUN, pairs=st.lists(PAIR, min_size=1, max_size=2), with_config=st.booleans(),
       bad_paths=st.sets(st.sampled_from(BAD_PATHS)))
@example(doc={**DESK_PRESET, "data": {**DESK_PRESET["data"], "canvas": [32, 32],
                                      "train_count": 2, "val_count": 1},
              "train": {"iters": 1, "batch": 2}, "augment": {"scale_range": [1.0, 1e308]}},
         pairs=[((40, 44), None, 1, 0)], with_config=False, bad_paths=set(BAD_PATHS))
def test_commands_exit_0_2_or_3(checkpoint, doc, pairs, with_config, bad_paths):
    parses_back(doc)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, ckpt, ddir = tmp / "run.json", tmp / "run" / "checkpoint.dwck", tmp / "ds"
        config.write_text(json.dumps({**doc, "out_dir": str(tmp / "run")}), encoding="utf-8")
        trained = run_command(["train", "--config", str(config)])
        assert (trained == 0) == ckpt.exists()
        if trained:  # no run: eval and predict an untrained 4-class network
            ckpt = tmp / "untrained.dwck"
            ckpt.write_bytes(checkpoint)
        ddir.mkdir()
        for i, ((h, w), mask_size, label, seed) in enumerate(pairs):
            rng = np.random.default_rng(seed)
            D.write_ppm(ddir / f"s{i}.ppm", rng.random((1, 3, h, w), dtype=np.float32))
            mask = rng.integers(0, 2, size=mask_size or (h, w)) * label
            D.write_pgm(ddir / f"s{i}_mask.pgm", mask)
        run_command(["eval", "--checkpoint", str(ckpt), "--data", str(ddir)]
                    + ["--config", str(config)] * with_config)
        out, image = tmp / "pred.pgm", str(ddir / "s0.ppm")
        predicted = run_command(["predict", "--checkpoint", str(ckpt), "--image", image,
                                 "--out", str(out)])
        if predicted == 0:
            assert D.read_pgm(out).shape == pairs[0][0]
        bad_argv = {
            "eval --checkpoint": ["eval", "--checkpoint", str(ddir), "--data", str(ddir)],
            "eval --out": ["eval", "--checkpoint", str(ckpt), "--data", str(ddir),
                           "--out", str(ddir)],
            "predict --checkpoint": ["predict", "--checkpoint", str(ddir), "--image", image,
                                     "--out", str(out)],
            "predict --image": ["predict", "--checkpoint", str(ckpt), "--image", str(ddir),
                                "--out", str(out)],
            "predict --out": ["predict", "--checkpoint", str(ckpt), "--image", image,
                              "--out", str(ddir)],
            "count --out": ["count", "tiny", "--out", str(ddir)],
            "analyze rf --out": ["analyze", "rf", "--variant", "tiny", "--out", str(ddir)],
            "analyze erf --image": ["analyze", "erf", "--checkpoint", str(ckpt),
                                    "--image", str(ddir)],
            "analyze heatmaps --out": ["analyze", "heatmaps", "--checkpoint", str(ckpt),
                                       "--out", image],
            "train --out": ["train", "--config", str(config), "--out", str(config)]}
        for name in sorted(bad_paths):
            assert run_command(bad_argv[name]) == 2, name
