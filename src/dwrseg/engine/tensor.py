"""Dense tensor conventions and the ".nt" binary tensor format.

Throughout the engine a tensor is a plain numpy array.  Feature maps are
rank-4, float32, C-contiguous, laid out (batch, channel, height, width)
with width fastest.  Per-channel vectors (biases, batch-norm affine
parameters) are rank-1 float32 arrays.

Ops preserve the dtype of their inputs so the same code paths can be run
in float64 by the gradient-check harness; float32 is the contract for
everything that is built, stored, or trained.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FLOAT = np.float32

NT_MAGIC = b"NTSR"
NT_VERSION = 1


class ShapeError(ValueError):
    """An operand's shape violates an operation's contract."""


class NumericError(ArithmeticError):
    """A computation produced (or received) NaN/Inf values."""


class FormatError(ValueError):
    """A serialized tensor, image, or checkpoint file is malformed."""


def tensor(data, dtype=FLOAT) -> np.ndarray:
    """Materialize `data` as a contiguous array of the engine dtype."""
    return np.ascontiguousarray(np.asarray(data, dtype=dtype))


def check_4d(name: str, x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name}: expected a (n, c, h, w) tensor, got shape {x.shape}")


# ---------------------------------------------------------------------------
# ".nt" format: magic "NTSR", version u32, ndim u32, dims u32[ndim],
# payload float32 little-endian, row-major.
# ---------------------------------------------------------------------------

def nt_bytes(x: np.ndarray) -> bytes:
    """Serialize an array to ".nt" bytes (payload stored as float32 LE)."""
    arr = np.ascontiguousarray(x, dtype="<f4")
    header = NT_MAGIC + struct.pack("<II", NT_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def nt_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one ".nt" record starting at `offset`; return (array, next offset)."""
    if buf[offset:offset + 4] != NT_MAGIC:
        raise FormatError(f"bad .nt magic at offset {offset}")
    start = offset + 12
    if start > len(buf):
        raise FormatError(f".nt header truncated at offset {offset}")
    version, ndim = struct.unpack_from("<II", buf, offset + 4)
    if version != NT_VERSION:
        raise FormatError(f"unsupported .nt version {version}")
    start += 4 * ndim
    if start > len(buf):
        raise FormatError(f".nt header truncated: {ndim} dims at offset {offset}")
    dims = struct.unpack_from(f"<{ndim}I", buf, offset + 12)
    end = start + 4 * math.prod(dims)
    if end > len(buf):
        raise FormatError(".nt payload truncated")
    try:
        arr = np.frombuffer(buf[start:end], dtype="<f4").reshape(dims).astype(FLOAT)
    except ValueError as exc:  # more dims than numpy supports
        raise FormatError(f".nt record at offset {offset}: {exc}") from exc
    return np.ascontiguousarray(arr), end


def write_nt(path, x: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(nt_bytes(x))


def read_nt(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    arr, end = nt_from_bytes(buf)
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing byte(s) after payload")
    return arr
