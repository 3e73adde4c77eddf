"""Synthetic segmentation data and minimal PPM/PGM image IO.

The shapes generator renders colored geometric primitives (rectangle,
disk, triangle, ring) on a noisy background; the mask records the topmost
shape's class per pixel, with 255 reserved as the ignore label.  Every
sample is a pure function of (seed, index) so datasets never need to be
stored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import FormatError

IGNORE_LABEL = 255

SHAPE_KINDS = ("rectangle", "disk", "triangle", "ring")


@dataclass
class Sample:
    image: np.ndarray  # (1, 3, h, w) float32 in [0, 1]
    mask: np.ndarray   # (h, w) int32 in [0, num_classes) or IGNORE_LABEL


@dataclass(frozen=True)
class ShapesSpec:
    canvas: tuple[int, int] = (64, 64)           # (h, w)
    num_classes: int = 4                          # background + shape classes
    shapes_per_image: tuple[int, int] = (1, 3)
    size_range: tuple[int, int] = (12, 28)        # shape edge / diameter, pixels
    noise: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if not 0 <= self.shapes_per_image[0] <= self.shapes_per_image[1]:
            raise ValueError(f"bad shapes_per_image range {self.shapes_per_image}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.size_range[0] > self.size_range[1] or self.size_range[0] < 2:
            raise ValueError(f"bad size_range {self.size_range}")


def class_color(cls: int) -> np.ndarray:
    """Fixed, well-separated RGB color per class (class 0 = dark background)."""
    if cls == 0:
        return np.array([0.15, 0.15, 0.18], dtype=np.float32)
    angle = 2.0 * np.pi * ((cls - 1) * 0.61803398875 % 1.0)
    rgb = 0.55 + 0.38 * np.cos(angle - np.array([0.0, 2.0 * np.pi / 3, 4.0 * np.pi / 3]))
    return rgb.astype(np.float32)


def draw_rectangle(mask, top, left, height, width, cls):
    mask[top:top + height, left:left + width] = cls


def draw_disk(mask, cy, cx, radius, cls):
    h, w = mask.shape
    yy, xx = np.ogrid[:h, :w]
    mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2] = cls


def draw_triangle(mask, cy, cx, size, cls):
    """Upward isoceles triangle with a `size` x `size` bounding box."""
    h, w = mask.shape
    yy, xx = np.ogrid[:h, :w]
    top = cy - size // 2
    rel_y = yy - top
    half = np.abs(xx - cx)
    inside = (rel_y >= 0) & (rel_y < size) & (half * size <= rel_y * (size // 2 + 1))
    mask[inside] = cls


def draw_ring(mask, cy, cx, radius, cls):
    h, w = mask.shape
    yy, xx = np.ogrid[:h, :w]
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    inner = max(1, radius // 2)
    mask[(d2 <= radius ** 2) & (d2 >= inner ** 2)] = cls


def render_shape(mask, kind: str, cy: int, cx: int, size: int, cls: int) -> None:
    if kind == "rectangle":
        draw_rectangle(mask, cy - size // 2, cx - size // 2, size, size, cls)
    elif kind == "disk":
        draw_disk(mask, cy, cx, size // 2, cls)
    elif kind == "triangle":
        draw_triangle(mask, cy, cx, size, cls)
    elif kind == "ring":
        draw_ring(mask, cy, cx, size // 2, cls)
    else:
        raise ValueError(f"unknown shape kind {kind!r}")


def generate(spec: ShapesSpec, index: int) -> Sample:
    """Render sample `index`; deterministic function of (spec.seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    h, w = spec.canvas
    mask = np.zeros((h, w), dtype=np.int32)
    lo, hi = spec.shapes_per_image
    n_shapes = int(rng.integers(lo, hi + 1))
    for _ in range(n_shapes):
        cls = int(rng.integers(1, spec.num_classes))
        kind = SHAPE_KINDS[(cls - 1) % len(SHAPE_KINDS)]
        size = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
        margin = size // 2
        cy = int(rng.integers(margin, max(margin + 1, h - margin)))
        cx = int(rng.integers(margin, max(margin + 1, w - margin)))
        render_shape(mask, kind, cy, cx, size, cls)

    palette = np.stack([class_color(c) for c in range(spec.num_classes)])
    image = palette[mask].transpose(2, 0, 1)[None].astype(np.float32)
    if spec.noise > 0:
        image += (spec.noise * rng.standard_normal((1, 3, h, w))).astype(np.float32)
    np.clip(image, 0.0, 1.0, out=image)
    return Sample(image=image, mask=mask)


def make_dataset(spec: ShapesSpec, count: int, start: int = 0) -> list[Sample]:
    return [generate(spec, start + i) for i in range(count)]


# ---------------------------------------------------------------------------
# PPM (P6) / PGM (P5) binary IO, maxval 255
# ---------------------------------------------------------------------------

# One whitespace byte or one comment per repetition: the two alternatives
# start with different bytes, so a failed match backtracks in linear time.
_PNM_NUMBER = re.compile(rb"(?:\s|#[^\n]*\n)*(\d+)")


def _read_pnm_header(data: bytes, magic: bytes):
    if not data.startswith(magic):
        raise FormatError(f"expected {magic.decode()} header")
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = _PNM_NUMBER.match(data, pos)
        if m is None:
            raise FormatError("malformed PNM header")
        if len(m.group(1)) > 9:
            raise FormatError(f"PNM header number of {len(m.group(1))} digits (at most 9)")
        tokens.append(int(m.group(1)))
        pos = m.end()
    if pos >= len(data) or data[pos:pos + 1] not in (b" ", b"\t", b"\n", b"\r"):
        raise FormatError("missing whitespace after PNM maxval")
    width, height, maxval = tokens
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    return width, height, pos + 1


def write_ppm(path, image: np.ndarray) -> None:
    """(1, 3, h, w) float image in [0, 1] -> binary P6 file."""
    if image.ndim != 4 or image.shape[:2] != (1, 3):
        raise FormatError(f"expected (1, 3, h, w) image, got {image.shape}")
    _, _, h, w = image.shape
    pixels = np.clip(np.rint(image[0] * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    w, h, start = _read_pnm_header(data, b"P6")
    need = 3 * w * h
    payload = data[start:start + need]
    if len(payload) != need:
        raise FormatError(f"{path}: truncated pixel data")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return (arr.transpose(2, 0, 1)[None].astype(np.float32)) / 255.0


def write_pgm(path, mask: np.ndarray) -> None:
    """(h, w) integer mask (< 256) -> binary P5 file."""
    if mask.ndim != 2:
        raise FormatError(f"expected (h, w) mask, got {mask.shape}")
    if mask.min() < 0 or mask.max() > 255:
        raise FormatError("mask values must be in [0, 255]")
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(mask.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    w, h, start = _read_pnm_header(data, b"P5")
    need = w * h
    payload = data[start:start + need]
    if len(payload) != need:
        raise FormatError(f"{path}: truncated pixel data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).astype(np.int32)


# ---------------------------------------------------------------------------
# Directory manifests
# ---------------------------------------------------------------------------

def load_manifest(directory) -> list[Sample]:
    """The samples of a directory that pairs every "<stem>.ppm" with a
    "<stem>_mask.pgm", sorted by stem.

    An unpaired file, no pair at all, or a mask whose size is not its
    image's is a FormatError naming the directory or the mask.
    """
    d = Path(directory)
    images = {p.stem: p for p in d.glob("*.ppm")}
    masks = {p.stem[:-5]: p for p in d.glob("*_mask.pgm")}
    if images.keys() != masks.keys():
        raise FormatError(
            f"unpaired files in {directory}: "
            f"images={[str(images[s]) for s in sorted(images.keys() - masks.keys())]} "
            f"masks={[str(masks[s]) for s in sorted(masks.keys() - images.keys())]}")
    if not images:
        raise FormatError(f"no image/mask pairs found in {directory}")
    samples = []
    for stem in sorted(images):
        sample = Sample(image=read_ppm(images[stem]), mask=read_pgm(masks[stem]))
        if sample.mask.shape != sample.image.shape[2:]:
            h, w = sample.image.shape[2:]
            raise FormatError(f"{masks[stem]}: mask is {sample.mask.shape[0]}x"
                              f"{sample.mask.shape[1]}, its image {images[stem]} is {h}x{w}")
        samples.append(sample)
    return samples
