import math
import struct
import warnings

import numpy as np
import pytest

from wsmooth import (
    LabeledDataset,
    load_idx,
    make_dataset,
    synthetic_dataset,
)

from analytic import per_image_normalized, write_idx


def _idx_pair(tmp_path, images=None, labels=None):
    """Paths of an IDX image/label pair: three 2x2 images and their labels,
    unless raw bytes for either file are given."""
    paths = tmp_path / "images.idx", tmp_path / "labels.idx"
    for path, raw, default in zip(paths, (images, labels),
                                  (np.arange(12).reshape(3, 2, 2), np.array([0, 1, 0]))):
        if raw is None:
            write_idx(path, default)
        else:
            path.write_bytes(raw)
    return paths


class TestIdxFiles:
    def test_image_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        write_idx(tmp_path / "imgs.idx", images)
        write_idx(tmp_path / "labels.idx", np.zeros(5))
        got, _ = load_idx(tmp_path / "imgs.idx", tmp_path / "labels.idx")
        assert got.dtype == np.uint8 and np.array_equal(got, images)

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 1, 9, 3], dtype=np.uint8)
        write_idx(tmp_path / "imgs.idx", np.zeros((4, 1, 1)))
        write_idx(tmp_path / "labels.idx", labels)
        _, got = load_idx(tmp_path / "imgs.idx", tmp_path / "labels.idx")
        assert got.dtype == np.uint8 and np.array_equal(got, labels)

    def test_reads_hand_built_bytes(self, tmp_path):
        # 2 images of 2x2 pixels, laid out row-major.
        payload = bytes([10, 20, 30, 40, 50, 60, 70, 80])
        images, labels = load_idx(*_idx_pair(
            tmp_path, struct.pack(">iiii", 0x00000803, 2, 2, 2) + payload,
            struct.pack(">ii", 0x00000801, 2) + bytes([7, 3])))
        assert images.shape == (2, 2, 2)
        assert images[0, 0, 1] == 20
        assert images[1, 1, 0] == 70
        assert np.array_equal(labels, [7, 3])

    def test_rejects_wrong_magic(self, tmp_path):
        with pytest.raises(ValueError, match="bad magic 0x00000801 in .*, expected 0x00000803"):
            load_idx(*_idx_pair(tmp_path, images=struct.pack(">iiii", 0x00000801, 1, 1, 1) + b"\x00"))
        with pytest.raises(ValueError, match="bad magic 0x00000803 in .*, expected 0x00000801"):
            load_idx(*_idx_pair(tmp_path, labels=struct.pack(">ii", 0x00000803, 1) + b"\x00"))

    def test_rejects_truncated_payload(self, tmp_path):
        with pytest.raises(ValueError, match="expected 8 bytes of pixels, got 7"):
            load_idx(*_idx_pair(tmp_path, images=struct.pack(">iiii", 0x00000803, 2, 2, 2)
                                + b"\x00" * 7))

    @pytest.mark.parametrize("dims", [(2**31 - 1,) * 3, (2**31 - 1, 32767, 32767)])
    def test_rejects_header_larger_than_file(self, tmp_path, dims):
        # The declared size is checked before the payload is read, so a
        # header asking for exabytes fails as a short file, not as
        # OverflowError or MemoryError.
        with pytest.raises(ValueError, match=f"expected {math.prod(dims)} bytes of pixels"):
            load_idx(*_idx_pair(tmp_path, images=struct.pack(">iiii", 0x00000803, *dims)))

    def test_rejects_truncated_header(self, tmp_path):
        with pytest.raises(ValueError, match="expected 8 bytes of header, got 2"):
            load_idx(*_idx_pair(tmp_path, labels=b"\x00\x00"))

    def test_rejects_negative_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="^negative dimensions in header: 1 x -1 x 2$"):
            load_idx(*_idx_pair(tmp_path, images=struct.pack(">iiii", 0x00000803, 1, -1, 2)))
        with pytest.raises(ValueError, match="^negative dimensions in header: -3$"):
            load_idx(*_idx_pair(tmp_path, labels=struct.pack(">ii", 0x00000801, -3)))

    def test_rejects_trailing_bytes(self, tmp_path):
        with pytest.raises(ValueError, match="trailing bytes"):
            load_idx(*_idx_pair(tmp_path, labels=struct.pack(">ii", 0x00000801, 2)
                                + b"\x01\x02\x03"))

    def test_paired_load_checks_counts(self, tmp_path, rng):
        write_idx(tmp_path / "x.idx", rng.integers(0, 256, (3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "y.idx", np.array([1, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="^3 images but 2 labels$"):
            load_idx(tmp_path / "x.idx", tmp_path / "y.idx")


def _normalized(raw) -> np.ndarray:
    """One raw image, normalized the way every image enters: as a one-image
    stack through make_dataset."""
    return make_dataset(np.asarray(raw)[None], [0], num_classes=2).images[0]


class TestNormalize:
    def test_scales_to_unit_mass(self):
        img = _normalized(np.array([[0, 255], [255, 0]], dtype=np.uint8))
        assert isinstance(img, np.ndarray) and img.dtype == np.float64
        assert img.sum() == pytest.approx(1.0, abs=1e-15)
        assert img[0, 1] == pytest.approx(0.5)

    def test_already_normalized_unchanged(self):
        x = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert np.array_equal(_normalized(x), x)

    def test_rejects_negative_intensities(self):
        with pytest.raises(ValueError, match="^image 0 has a negative pixel$"):
            _normalized(np.array([[1.0, -0.5]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_intensities(self, bad):
        # Checked before dividing, so no RuntimeWarning.
        with pytest.raises(ValueError, match="finite"):
            _normalized(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="^image 0 has total mass 0.0, not positive"):
            _normalized(np.zeros((2, 2)))

    def test_rejects_wrong_rank(self):
        for bad in (np.ones(4), np.ones((1, 1, 2, 2)), np.ones((0, 2))):
            with pytest.raises(ValueError, match="images must stack nonempty 2-D or 3-D arrays"):
                _normalized(bad)

    def test_multichannel_grand_total(self):
        img = _normalized(np.ones((3, 2, 2)))
        assert img.shape == (3, 2, 2)
        assert img.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="^image 0 has total mass 0.0, not positive"):
            _normalized(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="^image 0 has total mass -4.0, not positive"):
            _normalized(-np.ones((1, 2, 2)))

    def test_overflowing_total_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^image 0 has total mass inf, not positive"):
                make_dataset(np.full((1, 2, 2), 1e308), [0], num_classes=2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(6, 4, 5), (5, 3, 4, 3)])
    def test_bit_identical_to_per_image_division(self, rng, dtype, shape):
        raw = (rng.integers(1, 256, shape) if dtype is np.uint8
               else rng.random(shape) * 1000.0).astype(dtype)
        before = raw.copy()
        x = make_dataset(raw, np.arange(shape[0]) % 2).images
        assert np.array_equal(x, per_image_normalized(raw))
        assert np.array_equal(raw, before)  # the caller's stack is not divided in place


class TestLabeledDataset:
    def images(self, k=3):
        return np.full((k, 2, 2), 0.25)

    def test_len_shape_arrays(self):
        ds = LabeledDataset(self.images(), np.array([0, 1, 0]), 2)
        assert len(ds) == 3
        assert ds.image_shape == (2, 2)
        x, y = ds.as_arrays()
        assert x.shape == (3, 2, 2)
        assert np.array_equal(y, [0, 1, 0])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match=r"^3 images but label array of shape \(2,\)$"):
            LabeledDataset(self.images(3), np.array([0, 1]), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 2\)$"):
            LabeledDataset(self.images(2), np.array([-1, 0]), 2)
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 2\)$"):
            LabeledDataset(self.images(2), np.array([0, 2]), 2)

    @pytest.mark.parametrize("bad", [0.9, 1.2, np.nan, np.inf, -np.inf, "a", None, 1j])
    def test_rejects_labels_that_are_not_integers(self, bad):
        # The cast to int would truncate 0.9 and 1.2 to classes 0 and 1; a
        # string, None or a complex number is not cast at all.
        with pytest.raises(ValueError, match=r"^labels must be integers$"):
            LabeledDataset(self.images(2), [0, bad], 2)

    def test_keeps_integer_valued_float_labels(self):
        ds = LabeledDataset(self.images(2), [1.0, 0.0], 2)
        assert ds.labels.dtype == int and np.array_equal(ds.labels, [1, 0])

    def test_rejects_mixed_image_types(self):
        mixed = [np.full((2, 2), 0.25), np.full((1, 2, 2), 0.25)]
        with pytest.raises(ValueError):
            LabeledDataset(mixed, np.array([0, 1]), 2)

    def test_rejects_images_that_are_not_unit_mass(self):
        for bad, rule in ((np.full((2, 2, 2), 0.3), "^image 0 has total mass 1.2"),
                          (np.array([[[1.5, -0.5]]]), "^image 0 has a negative pixel$"),
                          (np.full((2, 4), 0.25), "^images must stack nonempty 2-D or 3-D"),
                          (np.full((2, 1, 0), 0.25), "^images must stack nonempty 2-D or 3-D"),
                          (np.full((0, 2, 2), 0.25), "^images must stack nonempty 2-D or 3-D"),
                          (np.full((2, 1, 2), np.nan), "^image 0 has total mass nan, not 1")):
            with pytest.raises(ValueError, match=rule):
                LabeledDataset(bad, np.array([0, 1])[: len(bad)], 2)

    def test_names_the_first_bad_image(self):
        # One pass over the stack must still say which image is at fault.
        for k, broken in ((2, [[0.5, 0.6]]), (1, [[1.5, -0.5]]), (3, [[np.nan, 0.5]])):
            images = np.full((5, 1, 2), 0.5)
            images[k] = broken
            images[4] = broken
            with pytest.raises(ValueError, match=f"^image {k} "):
                LabeledDataset(images, np.ones(5, dtype=int), 2)

    def test_holds_multichannel_images(self):
        ds = LabeledDataset(np.full((2, 3, 2, 2), 1 / 12), np.array([0, 1]), 2)
        assert ds.image_shape == (3, 2, 2)
        assert ds.as_arrays()[0].shape == (2, 3, 2, 2)

    def test_as_arrays_is_read_only_and_not_restacked(self):
        source = np.full((3, 2, 2), 0.25)
        ds = LabeledDataset(source, np.array([0, 1, 0]), 2)
        x, y = ds.as_arrays()
        x_again, y_again = ds.as_arrays()
        assert x is x_again and np.shares_memory(x, source)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0
        y[0] = 1
        assert np.array_equal(y_again, [0, 1, 0]) and np.array_equal(ds.labels, [0, 1, 0])

    def test_subset_keeps_alignment(self):
        # Image k holds all its mass on pixel k, so the images are distinct.
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([0, 1, 0, 1]), 2)
        sub = ds.subset([3, 0])
        assert len(sub) == 2
        assert np.array_equal(sub.labels, [1, 0])
        assert np.array_equal(sub.as_arrays()[0], ds.as_arrays()[0][[3, 0]])

    @pytest.mark.parametrize("indices", [[True, False, True, False], [0.7, 2.2],
                                         np.array([0.0, 1.0]), ["0"]],
                             ids=["bool_mask", "fractions", "whole_floats", "strings"])
    def test_subset_refuses_indices_that_are_not_integers(self, indices):
        # A bool mask used to pick images 1, 0, 1, 0, and 0.7, 2.2 images 0 and 2.
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match="indices must be integers, got dtype"):
            ds.subset(indices)

    def test_subset_refuses_indices_that_are_not_1_d(self):
        # A (2, 2) index array used to stack two images per entry and be
        # refused as "image 0 has total mass 2.0".
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([0, 1, 0, 1]), 2)
        for indices, shape in (([[0, 1], [2, 3]], r"\(2, 2\)"), (1, r"\(\)")):
            with pytest.raises(ValueError, match=rf"^indices must be 1-D, got shape {shape}$"):
                ds.subset(indices)

    @pytest.mark.parametrize("indices, got", [([10], 10), ([-1], -1), ([0, 4], 4)])
    def test_subset_refuses_indices_outside_the_dataset(self, indices, got):
        # 10 used to raise IndexError, and -1 picked the last image.
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match=rf"^indices must be in \[0, 4\), got {got}$"):
            ds.subset(indices)

    def test_subset_takes_integer_arrays_of_any_width(self):
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([0, 1, 0, 1]), 2)
        for indices in (np.arange(3), np.array([2, 1], dtype=np.uint8), [np.int32(3)]):
            sub = ds.subset(indices)
            assert np.array_equal(sub.as_arrays()[0], ds.as_arrays()[0][np.asarray(indices)])


class TestMakeDataset:
    def test_passes_labels_through(self):
        x = np.ones((4, 2, 2), dtype=np.uint8)
        ds = make_dataset(x, np.array([0, 1, 2, 2], dtype=np.uint8))
        assert np.array_equal(ds.labels, [0, 1, 2, 2])
        assert ds.num_classes == 3

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0, np.nan], [0, np.inf], ["a", "b"],
                                        [None, None], [1j, 0]])
    def test_refuses_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError, match=r"^labels must be integers$"):
            make_dataset(np.ones((2, 2, 2)), labels)

    def test_refuses_a_label_equal_to_the_class_count(self):
        x = np.ones((3, 2, 2))
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 3\)$"):
            make_dataset(x, np.array([0, 1, 3]), num_classes=3)

    @pytest.mark.parametrize("num_classes, words", [(2.5, "an integer, got 2.5"),
                                                    (1, ">= 2, got 1")])
    def test_refuses_a_bad_class_count(self, num_classes, words):
        with pytest.raises(ValueError, match=f"^num_classes must be {words}$"):
            make_dataset(np.ones((2, 2, 2)), [0, 0], num_classes=num_classes)

    def test_degenerate_image_names_its_index(self):
        x = np.ones((3, 2, 2))
        x[1] = 0.0
        with pytest.raises(ValueError, match="^image 1 has total mass 0.0, not positive"):
            make_dataset(x, np.array([0, 0, 1]))

    @pytest.mark.parametrize("broken, needle", [
        (np.nan, "total mass nan"), (-np.inf, "total mass -inf"), (-1.0, "total mass 0.0"),
        (1e308, "total mass inf")], ids=["nan-finite", "-inf-finite", "-1.0-nonnegative",
                                         "1e+308-overflowed"])
    def test_names_the_first_bad_raw_image(self, broken, needle):
        x = np.ones((5, 2, 2))
        x[2, 0] = x[4, 0] = broken
        with pytest.raises(ValueError, match=f"^image 2 has {needle}, not positive"):
            make_dataset(x, np.zeros(5), num_classes=2)


class TestSynthetic:
    @pytest.mark.parametrize("kind,classes", [("bars", 2), ("blobs", 2), ("corners", 4)])
    def test_kinds_and_classes(self, kind, classes):
        ds = synthetic_dataset(kind, 30, shape=(6, 6), seed=1)
        assert len(ds) == 30
        assert ds.num_classes == classes
        assert set(np.unique(ds.labels)) <= set(range(classes))
        x, _ = ds.as_arrays()
        assert np.allclose(x.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a, _ = synthetic_dataset("blobs", 10, seed=5).as_arrays()
        b, _ = synthetic_dataset("blobs", 10, seed=5).as_arrays()
        assert np.array_equal(a, b)
        c, _ = synthetic_dataset("blobs", 10, seed=6).as_arrays()
        assert not np.array_equal(a, c)

    def test_bars_put_mass_on_center_lines(self):
        ds = synthetic_dataset("bars", 20, shape=(5, 5), seed=2)
        x, y = ds.as_arrays()
        for img, label in zip(x, y):
            if label == 0:
                assert img[2, :].sum() > 0.5
            else:
                assert img[:, 2].sum() > 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            synthetic_dataset("stripes", 5)
        with pytest.raises(ValueError, match=r"^kind must be a string, got \['blobs'\]$"):
            synthetic_dataset(["blobs"], 3)

    @pytest.mark.parametrize("shape, words", [
        ((6.5, 6), r"shape\[0\] must be an integer, got 6.5"),
        ((6, 6.0), r"shape\[1\] must be an integer, got 6.0"),
        ((True, 6), r"shape\[0\] must be an integer, got True"),
        ((6, 0), r"shape\[1\] must be >= 1, got 0"),
        ((6, 6, 6), r"shape must be \(rows, columns\), got \(6, 6, 6\)"),
        (6, r"shape must be \(rows, columns\), got 6"),
        (((6,), 6), r"shape\[0\] must be an integer, got \(6,\)"),
    ], ids=["float_rows", "float_columns", "bool_rows", "zero_columns", "three_sides", "scalar",
            "nested"])
    def test_rejects_bad_shapes(self, shape, words):
        with pytest.raises(ValueError, match=f"^{words}$"):
            synthetic_dataset("blobs", 3, shape=shape)

    @pytest.mark.parametrize("size, words", [(0, ">= 1, got 0"), (True, "an integer, got True"),
                                             (2.5, "an integer, got 2.5")])
    def test_rejects_bad_sizes(self, size, words):
        with pytest.raises(ValueError, match=f"^size must be {words}$"):
            synthetic_dataset("corners", size)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            synthetic_dataset("blobs", 5, shape=(2, 2))
        with pytest.raises(ValueError):
            synthetic_dataset("bars", 0)

