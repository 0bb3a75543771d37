import struct

import numpy as np
import pytest

from wsmooth import (
    DegenerateImageError,
    IdxFormatError,
    IdxLengthError,
    LabeledDataset,
    NormalizationError,
    PairingError,
    ShapeMismatchError,
    load_idx,
    load_idx_images,
    load_idx_labels,
    make_dataset,
    normalize,
    synthetic_dataset,
)

from analytic import write_idx


class TestIdxFiles:
    def test_image_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx(path, images)
        assert np.array_equal(load_idx_images(path), images)

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 1, 9, 3], dtype=np.uint8)
        path = tmp_path / "labels.idx"
        write_idx(path, labels)
        assert np.array_equal(load_idx_labels(path), labels)

    def test_reads_hand_built_bytes(self, tmp_path):
        # 2 images of 2x2 pixels, laid out row-major.
        payload = bytes([10, 20, 30, 40, 50, 60, 70, 80])
        path = tmp_path / "hand.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + payload)
        images = load_idx_images(path)
        assert images.shape == (2, 2, 2)
        assert images[0, 0, 1] == 20
        assert images[1, 1, 0] == 70

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxFormatError):
            load_idx_images(path)
        path.write_bytes(struct.pack(">ii", 0x00000803, 1) + b"\x00")
        with pytest.raises(IdxFormatError):
            load_idx_labels(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 7)
        with pytest.raises(IdxLengthError):
            load_idx_images(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxLengthError):
            load_idx_labels(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.idx"
        path.write_bytes(struct.pack(">ii", 0x00000801, 2) + b"\x01\x02\x03")
        with pytest.raises(IdxLengthError):
            load_idx_labels(path)

    def test_paired_load_checks_counts(self, tmp_path, rng):
        write_idx(tmp_path / "x.idx", rng.integers(0, 256, (3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "y.idx", np.array([1, 2], dtype=np.uint8))
        with pytest.raises(PairingError):
            load_idx(tmp_path / "x.idx", tmp_path / "y.idx")


class TestNormalize:
    def test_scales_to_unit_mass(self):
        img = normalize(np.array([[0, 255], [255, 0]], dtype=np.uint8))
        assert isinstance(img, np.ndarray) and img.dtype == np.float64
        assert img.sum() == pytest.approx(1.0, abs=1e-15)
        assert img[0, 1] == pytest.approx(0.5)

    def test_already_normalized_unchanged(self):
        x = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert np.array_equal(normalize(x), x)

    def test_rejects_negative_intensities(self):
        with pytest.raises(NormalizationError):
            normalize(np.array([[1.0, -0.5]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_intensities(self, bad):
        # Checked before dividing, so no RuntimeWarning and no "mass nan".
        with pytest.raises(NormalizationError, match="finite"):
            normalize(np.array([[1.0, bad], [0.0, 2.0]]))

    def test_rejects_zero_mass(self):
        with pytest.raises(DegenerateImageError):
            normalize(np.zeros((2, 2)))

    def test_rejects_wrong_rank(self):
        for bad in (np.ones(4), np.ones((1, 1, 2, 2)), np.ones((0, 2))):
            with pytest.raises(ShapeMismatchError):
                normalize(bad)

    def test_multichannel_grand_total(self):
        img = normalize(np.ones((3, 2, 2)))
        assert img.shape == (3, 2, 2)
        assert img.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DegenerateImageError):
            normalize(np.zeros((2, 2, 2)))
        with pytest.raises(NormalizationError):
            normalize(-np.ones((1, 2, 2)))


class TestLabeledDataset:
    def images(self, k=3):
        return np.full((k, 2, 2), 0.25)

    def test_len_shape_arrays(self):
        ds = LabeledDataset(self.images(), np.array([1, 2, 1]), 2)
        assert len(ds) == 3
        assert ds.image_shape == (2, 2)
        x, y = ds.as_arrays()
        assert x.shape == (3, 2, 2)
        assert np.array_equal(y, [1, 2, 1])

    def test_rejects_count_mismatch(self):
        with pytest.raises(PairingError):
            LabeledDataset(self.images(3), np.array([1, 2]), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(self.images(2), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            LabeledDataset(self.images(2), np.array([1, 3]), 2)

    def test_rejects_mixed_image_types(self):
        mixed = [np.full((2, 2), 0.25), np.full((1, 2, 2), 0.25)]
        with pytest.raises(ValueError):
            LabeledDataset(mixed, np.array([1, 2]), 2)

    def test_rejects_images_that_are_not_unit_mass(self):
        for bad, error in ((np.full((2, 2, 2), 0.3), NormalizationError),
                           (np.array([[[1.5, -0.5]]]), NormalizationError),
                           (np.full((2, 4), 0.25), ShapeMismatchError),
                           (np.full((2, 1, 0), 0.25), ShapeMismatchError),
                           (np.full((2, 1, 2), np.nan), NormalizationError)):
            with pytest.raises(error):
                LabeledDataset(bad, np.array([1, 2])[: len(bad)], 2)

    def test_names_the_first_bad_image(self):
        # One pass over the stack must still say which image is at fault.
        for k, broken in ((2, [[0.5, 0.6]]), (1, [[1.5, -0.5]]), (3, [[np.nan, 0.5]])):
            images = np.full((5, 1, 2), 0.5)
            images[k] = broken
            images[4] = broken
            with pytest.raises(NormalizationError, match=f"^image {k} "):
                LabeledDataset(images, np.ones(5, dtype=int), 2)

    def test_holds_multichannel_images(self):
        ds = LabeledDataset(np.full((2, 3, 2, 2), 1 / 12), np.array([1, 2]), 2)
        assert ds.image_shape == (3, 2, 2)
        assert ds.as_arrays()[0].shape == (2, 3, 2, 2)

    def test_as_arrays_is_read_only_and_not_restacked(self):
        source = np.full((3, 2, 2), 0.25)
        ds = LabeledDataset(source, np.array([1, 2, 1]), 2)
        x, y = ds.as_arrays()
        x_again, y_again = ds.as_arrays()
        assert x is x_again and np.shares_memory(x, source)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0
        y[0] = 2
        assert np.array_equal(y_again, [1, 2, 1]) and np.array_equal(ds.labels, [1, 2, 1])

    def test_subset_keeps_alignment(self):
        # Image k holds all its mass on pixel k, so the images are distinct.
        ds = LabeledDataset(np.eye(4).reshape(4, 2, 2), np.array([1, 2, 1, 2]), 2)
        sub = ds.subset([3, 0])
        assert len(sub) == 2
        assert np.array_equal(sub.labels, [2, 1])
        assert np.array_equal(sub.as_arrays()[0], ds.as_arrays()[0][[3, 0]])


class TestMakeDataset:
    def test_shifts_zero_based_labels(self):
        x = np.ones((4, 2, 2), dtype=np.uint8)
        ds = make_dataset(x, np.array([0, 1, 2, 2]), label_base=0)
        assert np.array_equal(ds.labels, [1, 2, 3, 3])
        assert ds.num_classes == 3

    def test_keeps_one_based_labels(self):
        x = np.ones((2, 2, 2))
        ds = make_dataset(x, np.array([1, 2]), label_base=1)
        assert np.array_equal(ds.labels, [1, 2])

    def test_degenerate_image_names_its_index(self):
        x = np.ones((3, 2, 2))
        x[1] = 0.0
        with pytest.raises(DegenerateImageError, match="image 1"):
            make_dataset(x, np.array([0, 0, 1]))


class TestSynthetic:
    @pytest.mark.parametrize("kind,classes", [("bars", 2), ("blobs", 2), ("corners", 4)])
    def test_kinds_and_classes(self, kind, classes):
        ds = synthetic_dataset(kind, 30, shape=(6, 6), seed=1)
        assert len(ds) == 30
        assert ds.num_classes == classes
        assert set(np.unique(ds.labels)) <= set(range(1, classes + 1))
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
            if label == 1:
                assert img[2, :].sum() > 0.5
            else:
                assert img[:, 2].sum() > 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            synthetic_dataset("stripes", 5)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            synthetic_dataset("blobs", 5, shape=(2, 2))
        with pytest.raises(ValueError):
            synthetic_dataset("bars", 0)

