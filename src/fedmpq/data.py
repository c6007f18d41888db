"""Desk-scale datasets: synthetic Gaussian blobs and IDX image files."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SALT_DATA = 505

_IDX_MAGIC_IMAGES = 0x00000803
_IDX_MAGIC_LABELS = 0x00000801
IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass(frozen=True)
class DataConfig:
    kind: str = "blobs"
    train_samples: int = 4000
    test_samples: int = 2000
    features: int = 20
    classes: int = 10
    cluster_std: float = 1.2
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    partition: str = ""

    def __post_init__(self):
        if self.kind not in ("blobs", "idx"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        # Written so that NaN fails it too.
        if not (0.0 <= self.cluster_std < math.inf):
            raise ValueError("cluster_std must be non-negative and finite")
        if self.kind == "blobs":
            if self.classes < 2 or self.features < 1:
                raise ValueError("blobs need at least 2 classes and 1 feature")
            if self.train_samples < self.classes or self.test_samples < 1:
                raise ValueError("blobs need at least one sample per class")
        else:
            missing = [k for k in IDX_PATHS if not getattr(self, k)]
            if missing:
                raise ValueError(f"idx data needs {', '.join(missing)} set")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.train_x.shape[1:]


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    reps = np.arange(n) % classes
    return rng.permutation(reps)


def make_blobs(cfg: DataConfig, seed: int) -> Dataset:
    """Gaussian clusters with one shared set of class centers.

    Labels are balanced up to rounding; train and test are drawn from the
    same distribution with a held-out test set.
    """
    rng = np.random.default_rng([seed, _SALT_DATA])
    centers = rng.normal(0.0, 1.0, (cfg.classes, cfg.features))
    train_y = _balanced_labels(cfg.train_samples, cfg.classes, rng)
    test_y = _balanced_labels(cfg.test_samples, cfg.classes, rng)
    train_x = centers[train_y] + rng.normal(0.0, cfg.cluster_std, (cfg.train_samples, cfg.features))
    test_x = centers[test_y] + rng.normal(0.0, cfg.cluster_std, (cfg.test_samples, cfg.features))
    return Dataset(train_x, train_y, test_x, test_y, cfg.classes)


def _read_idx(path: str | Path, expect_magic: int) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ValueError(f"{path}: not an IDX file")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != expect_magic:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    ndim = magic & 0xFF
    start = 4 + 4 * ndim
    if len(data) < start:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", data[4:start])
    count = int(np.prod(dims))
    if len(data) - start < count:
        raise ValueError(f"{path}: truncated IDX payload")
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=start).reshape(dims)


def load_idx_dataset(cfg: DataConfig) -> Dataset:
    """IDX image/label pairs as single-channel float images in [0, 1]."""
    train_x = _read_idx(cfg.train_images, _IDX_MAGIC_IMAGES).astype(np.float64) / 255.0
    train_y = _read_idx(cfg.train_labels, _IDX_MAGIC_LABELS).astype(np.int64)
    test_x = _read_idx(cfg.test_images, _IDX_MAGIC_IMAGES).astype(np.float64) / 255.0
    test_y = _read_idx(cfg.test_labels, _IDX_MAGIC_LABELS).astype(np.int64)
    if len(train_x) != len(train_y) or len(test_x) != len(test_y):
        raise ValueError("image and label counts disagree")
    train_x = train_x[:, None, :, :]
    test_x = test_x[:, None, :, :]
    classes = int(max(train_y.max(), test_y.max())) + 1
    return Dataset(train_x, train_y, test_x, test_y, classes)


def load_dataset(cfg: DataConfig, seed: int) -> Dataset:
    if cfg.kind == "blobs":
        return make_blobs(cfg, seed)
    return load_idx_dataset(cfg)
