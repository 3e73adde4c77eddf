"""Synthetic shapes generator and PPM/PGM/manifest IO."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwrseg import data as D
from dwrseg.engine import FormatError


class TestGenerate:
    def test_zero_shapes_all_background(self):
        spec = D.ShapesSpec(shapes_per_image=(0, 0), seed=1)
        s = D.generate(spec, 0)
        assert (s.mask == 0).all()

    def test_same_seed_index_bitwise(self):
        spec = D.ShapesSpec(seed=42)
        a, b = D.generate(spec, 3), D.generate(spec, 3)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_different_indices_differ(self):
        spec = D.ShapesSpec(seed=42)
        a, b = D.generate(spec, 0), D.generate(spec, 1)
        assert not np.array_equal(a.image, b.image)

    def test_centered_rectangle_pixel_count(self):
        # 16x16 canvas, one 8x8 rectangle of class 1 => exactly 64 pixels
        mask = np.zeros((16, 16), np.int32)
        D.draw_rectangle(mask, 4, 4, 8, 8, 1)
        assert int((mask == 1).sum()) == 64
        assert set(np.unique(mask)) == {0, 1}

    def test_mask_matches_rendered_geometry(self):
        mask = np.zeros((32, 32), np.int32)
        D.draw_disk(mask, 16, 16, 6, 2)
        yy, xx = np.ogrid[:32, :32]
        ref = ((yy - 16) ** 2 + (xx - 16) ** 2 <= 36).astype(np.int32) * 2
        np.testing.assert_array_equal(mask, ref)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_values_always_valid(self, index):
        spec = D.ShapesSpec(num_classes=5, seed=9)
        s = D.generate(spec, index)
        assert s.image.shape == (1, 3, 64, 64) and s.image.dtype == np.float32
        assert float(s.image.min()) >= 0.0 and float(s.image.max()) <= 1.0
        vals = set(np.unique(s.mask))
        assert vals <= set(range(5)) | {D.IGNORE_LABEL}

    def test_dataset_reproducible_hash(self):
        # digests over the values and the image strides: seeded training
        # depends on the channels-last memory order of the images
        pinned = [
            # the desk preset's data: 256 training and 64 validation samples
            (D.ShapesSpec(canvas=(64, 64), num_classes=4, shapes_per_image=(1, 3),
                          size_range=(12, 28), noise=0.04, seed=7), 320,
             "ef5e7ece147eb5139794e391a0e9cbe4c3e5448fc494c4d6a6ad925533af5a30"),
            # one sample at the paper's B shape, with shapes that cross the edges
            (D.ShapesSpec(canvas=(512, 1024), num_classes=19, shapes_per_image=(3, 8),
                          size_range=(32, 256), seed=5), 1,
             "ec19d16539f059d70f1b4440e505c5ce75c6f9fd0aae8705c20a651ac47f6201"),
        ]
        for spec, count, digest in pinned:
            h = hashlib.sha256()
            for s in D.make_dataset(spec, count):
                assert s.image.dtype == np.float32 and s.mask.dtype == np.int32
                h.update(s.image.tobytes())
                h.update(repr(s.image.strides).encode())
                h.update(s.mask.tobytes())
            assert h.hexdigest() == digest, f"{spec.canvas} samples, numpy {np.__version__}"


def full_canvas(kind, mask, cy, cx, size):
    """The pixels `render_shape` sets, by each shape's formula over the
    whole canvas."""
    yy, xx = np.ogrid[:mask.shape[0], :mask.shape[1]]
    if kind == "triangle":
        rel_y, half = yy - (cy - size // 2), np.abs(xx - cx)
        return (rel_y >= 0) & (rel_y < size) & (half * size <= rel_y * (size // 2 + 1))
    radius = size // 2
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    if kind == "disk":
        return d2 <= radius ** 2
    return (d2 <= radius ** 2) & (d2 >= max(1, radius // 2) ** 2)


class TestClippedDraws:
    @given(kind=st.sampled_from(["disk", "triangle", "ring"]),
           h=st.integers(1, 40), w=st.integers(1, 40),
           cy=st.integers(-60, 100), cx=st.integers(-60, 100), size=st.integers(0, 80),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_box_draw_equals_the_full_canvas_formula(self, kind, h, w, cy, cx, size, seed):
        # centres and sizes cross every edge or leave the canvas entirely
        mask = np.random.default_rng(seed).integers(0, 4, (h, w)).astype(np.int32)
        want = np.where(full_canvas(kind, mask, cy, cx, size), 9, mask)
        D.render_shape(mask, kind, cy, cx, size, 9)
        np.testing.assert_array_equal(mask, want)


class TestDataset:
    spec = D.ShapesSpec(canvas=(32, 32), seed=17)

    def test_building_renders_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(D, "generate", lambda spec, index: calls.append(index))
        ds = D.make_dataset(self.spec, 1000, start=5)
        assert len(ds) == 1000 and calls == []

    def test_indices(self):
        ds = D.make_dataset(self.spec, 5, start=3)
        assert len(ds) == 5
        assert ds[-1] is ds[4] and ds[-5] is ds[0]
        np.testing.assert_array_equal(ds[-1].image, D.generate(self.spec, 7).image)
        for index in (5, -6):
            with pytest.raises(IndexError):
                ds[index]
        with pytest.raises(TypeError):
            ds[1:3]

    def test_second_read_is_the_same_read_only_sample(self):
        ds = D.make_dataset(self.spec, 3)
        first = ds[2]
        assert ds[2] is first
        for a in (first.image, first.mask):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_iteration_equals_generate_bitwise(self):
        ds = D.make_dataset(self.spec, 6, start=40)
        samples = list(ds)
        assert len(samples) == 6
        for i, s in enumerate(samples):
            want = D.generate(self.spec, 40 + i)
            assert s.image.strides == want.image.strides
            assert s.image.tobytes() == want.image.tobytes()
            assert s.mask.tobytes() == want.mask.tobytes()


class TestPpmPgm:
    def test_one_white_pixel_exact_bytes(self, tmp_path):
        img = np.ones((1, 3, 1, 1), np.float32)
        p = tmp_path / "w.ppm"
        D.write_ppm(p, img)
        assert p.read_bytes() == b"P6\n1 1\n255\n" + bytes([255, 255, 255])

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img8 = rng.integers(0, 256, (1, 3, 5, 7)).astype(np.float32) / 255.0
        p = tmp_path / "x.ppm"
        D.write_ppm(p, img8.astype(np.float32))
        back = D.read_ppm(p)
        np.testing.assert_array_equal(back, img8.astype(np.float32))

    def test_ppm_file_round_trip_bytes(self, tmp_path):
        # arbitrary float image: write -> read -> write reproduces identical bytes
        img = np.random.default_rng(1).random((1, 3, 4, 4), dtype=np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        D.write_ppm(p1, img)
        D.write_ppm(p2, D.read_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_round_trip_with_ignore(self, tmp_path):
        mask = np.array([[0, 1], [255, 3]], np.int32)
        p = tmp_path / "m_mask.pgm"
        D.write_pgm(p, mask)
        np.testing.assert_array_equal(D.read_pgm(p), mask)

    def test_header_comments_allowed(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# comment line\n2 1\n255\n\x07\x08")
        np.testing.assert_array_equal(D.read_pgm(p), [[7, 8]])

    def test_malformed_rejected(self, tmp_path):
        bad_magic = tmp_path / "bad1.ppm"
        bad_magic.write_bytes(b"P3\n1 1\n255\n")
        with pytest.raises(FormatError):
            D.read_ppm(bad_magic)
        bad_maxval = tmp_path / "bad2.ppm"
        bad_maxval.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(FormatError):
            D.read_ppm(bad_maxval)
        truncated = tmp_path / "bad3.ppm"
        truncated.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            D.read_ppm(truncated)

    def test_whitespace_run_rejected_in_linear_time(self, tmp_path):
        # a tokenizer that backtracks exponentially takes hours on these 67 bytes
        p = tmp_path / "ws.ppm"
        p.write_bytes(b"P6" + b" " * 64 + b"x")
        start = time.perf_counter()
        with pytest.raises(FormatError, match="malformed PNM header"):
            D.read_ppm(p)
        assert time.perf_counter() - start < 0.5

    def test_overlong_number_rejected(self, tmp_path):
        p = tmp_path / "long.ppm"
        p.write_bytes(b"P6 " + b"9" * 5000 + b" 1 255\n")
        with pytest.raises(FormatError, match="5000 digits"):
            D.read_ppm(p)

    def test_pgm_value_range_enforced(self, tmp_path):
        with pytest.raises(FormatError):
            D.write_pgm(tmp_path / "x.pgm", np.array([[300]], np.int32))


class TestManifest:
    def test_empty_dir(self, tmp_path):
        with pytest.raises(FormatError) as err:
            D.load_manifest(tmp_path)
        assert str(err.value) == f"no image/mask pairs found in {tmp_path}"

    def test_one_pair(self, tmp_path):
        D.write_ppm(tmp_path / "s0.ppm", np.zeros((1, 3, 2, 2), np.float32))
        D.write_pgm(tmp_path / "s0_mask.pgm", np.zeros((2, 2), np.int32))
        samples = D.load_manifest(tmp_path)
        assert len(samples) == 1
        assert samples[0].image.shape == (1, 3, 2, 2) and samples[0].mask.shape == (2, 2)

    def test_unpaired_reported(self, tmp_path):
        D.write_ppm(tmp_path / "a.ppm", np.zeros((1, 3, 2, 2), np.float32))
        D.write_pgm(tmp_path / "b_mask.pgm", np.zeros((2, 2), np.int32))
        with pytest.raises(FormatError) as err:
            D.load_manifest(tmp_path)
        assert str(err.value) == (f"unpaired files in {tmp_path}: "
                                  f"images={[str(tmp_path / 'a.ppm')]} "
                                  f"masks={[str(tmp_path / 'b_mask.pgm')]}")

    def test_sorted_lexicographically(self, tmp_path):
        for i, stem in enumerate(("b", "a", "c")):
            D.write_ppm(tmp_path / f"{stem}.ppm", np.full((1, 3, 2, 2), i / 4, np.float32))
            D.write_pgm(tmp_path / f"{stem}_mask.pgm", np.full((2, 2), i, np.int32))
        samples = D.load_manifest(tmp_path)
        assert [int(s.mask[0, 0]) for s in samples] == [1, 0, 2]  # a, b, c
