"""Seeded runs pinned to the bytes they wrote when the digests were taken.

A change that keeps every tolerance but moves one rounding shows here.
The digests were taken on numpy 2.4.6 with its bundled OpenBLAS, at one
BLAS thread; a mismatch names the file and the numpy version in use.
"""

import hashlib
import json

import numpy as np
import pytest

from dwrseg.cli import DESK_PRESET, main
from dwrseg.engine import ops

# `dwrseg --threads 1|2 train --config <desk preset> --seed 0 --iters 40`
DESK_40 = {
    "checkpoint.dwck": "3185c6f4d839b8dfbaf46adb8720308c139ef4696a1e1ef2580d3a2e4a0902f5",
    "eval.json": "2ee38359d74c30ab3b78a481bf2a02a0bc9c2aa8b6df44a19e0c2ce6bfdb22f7",
    "metrics.jsonl": "06237066bed579fbd98a9c5e73340b3fae25f6e22046595577bda1f72d4ad1ca",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seeded_desk_train_files_pinned(tmp_path, capsys, threads):
    config = tmp_path / "desk.json"
    config.write_text(json.dumps(DESK_PRESET), encoding="utf-8")
    out = tmp_path / "run"
    try:
        assert main(["--threads", threads, "train", "--config", str(config), "--seed", "0",
                     "--iters", "40", "--out", str(out)]) == 0
    finally:
        ops.set_workers(ops.DEFAULT_WORKERS)
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got.keys() == DESK_40.keys()
    for name, digest in DESK_40.items():
        assert got[name] == digest, (f"{name} at --threads {threads} moved: sha256 {got[name]}, "
                                     f"pinned {digest}, numpy {np.__version__}")
