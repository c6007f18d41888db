import numpy as np
import pytest

from fedmpq.data import (
    DataConfig,
    load_dataset,
    load_idx_dataset,
    make_blobs,
)

from helpers import write_idx_images, write_idx_labels


class TestBlobs:
    def test_shapes_and_classes(self):
        cfg = DataConfig(train_samples=300, test_samples=100, features=7, classes=5)
        data = make_blobs(cfg, seed=0)
        assert data.train_x.shape == (300, 7)
        assert data.test_x.shape == (100, 7)
        assert set(np.unique(data.train_y)) == set(range(5))
        assert data.num_classes == 5

    def test_deterministic(self):
        cfg = DataConfig(train_samples=100, test_samples=50)
        a = make_blobs(cfg, seed=4)
        b = make_blobs(cfg, seed=4)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_labels_nearly_balanced(self):
        cfg = DataConfig(train_samples=1000, test_samples=100, classes=10)
        data = make_blobs(cfg, seed=1)
        counts = np.bincount(data.train_y, minlength=10)
        assert counts.min() >= 99 and counts.max() <= 101

    def test_seed_changes_data(self):
        cfg = DataConfig(train_samples=100, test_samples=50)
        a = make_blobs(cfg, seed=1)
        b = make_blobs(cfg, seed=2)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataConfig(kind="cifar")
        with pytest.raises(ValueError):
            DataConfig(classes=1)


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(20, 6, 6)).astype(np.uint8)
        labels = rng.integers(0, 4, size=20).astype(np.uint8)
        paths = {
            "train_images": tmp_path / "tr-img.idx",
            "train_labels": tmp_path / "tr-lab.idx",
            "test_images": tmp_path / "te-img.idx",
            "test_labels": tmp_path / "te-lab.idx",
        }
        write_idx_images(paths["train_images"], imgs)
        write_idx_labels(paths["train_labels"], labels)
        write_idx_images(paths["test_images"], imgs[:5])
        write_idx_labels(paths["test_labels"], labels[:5])
        cfg = DataConfig(kind="idx", **{k: str(v) for k, v in paths.items()})
        data = load_idx_dataset(cfg)
        assert data.train_x.shape == (20, 1, 6, 6)
        assert data.train_x.max() <= 1.0
        np.testing.assert_array_equal(data.train_y, labels)
        assert data.num_classes == int(labels.max()) + 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 16)
        cfg = DataConfig(
            kind="idx",
            train_images=str(path),
            train_labels=str(path),
            test_images=str(path),
            test_labels=str(path),
        )
        with pytest.raises(ValueError, match="magic"):
            load_idx_dataset(cfg)

    def test_truncated_rejected(self, tmp_path):
        import struct

        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 10, 6, 6) + b"\x00" * 10)
        cfg = DataConfig(
            kind="idx",
            train_images=str(path),
            train_labels=str(path),
            test_images=str(path),
            test_labels=str(path),
        )
        with pytest.raises(ValueError, match="truncated"):
            load_idx_dataset(cfg)

    def test_dispatch(self):
        data = load_dataset(DataConfig(train_samples=50, test_samples=20), seed=0)
        assert data.train_x.shape == (50, 20)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "six.idx"
        path.write_bytes(b"\x00\x00\x08\x03\x00\x00")
        cfg = DataConfig(
            kind="idx",
            train_images=str(path),
            train_labels=str(path),
            test_images=str(path),
            test_labels=str(path),
        )
        with pytest.raises(ValueError, match="truncated IDX header"):
            load_idx_dataset(cfg)
