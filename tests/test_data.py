"""Synthetic shapes generator and PPM/PGM/manifest IO."""

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
        spec = D.ShapesSpec(canvas=(32, 32), seed=17)
        import hashlib

        def digest():
            h = hashlib.sha256()
            for s in D.make_dataset(spec, 100):
                h.update(s.image.tobytes())
                h.update(s.mask.astype(np.int32).tobytes())
            return h.hexdigest()

        assert digest() == digest()


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
