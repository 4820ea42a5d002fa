"""Datasets: interleaved-crescent and concentric-circle synthetics embedded
into 100 dimensions, IDX-format digit ingestion, and semi-supervised splits.

The 2-D synthetic points lie exactly on their generating trajectories (no
observation noise); the embedding uses orthonormalized Gaussian rows, so it
is an isometry and perturbation radii keep their 2-D meaning.
"""

from __future__ import annotations

import csv
import gzip
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .numerics import Tensor, as_tensor, make_rng

SPLIT_TAGS = ("labeled", "unlabeled", "validation", "test")

EMBED_DIM = 100
MNIST_DIM = 784  # a flattened 28x28 digit image

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    inputs: Tensor                 # (N, I)
    labels: np.ndarray | None      # (N,) int, -1 where unknown
    split: np.ndarray | None = None  # (N,) strings from SPLIT_TAGS

    def __post_init__(self):
        self.inputs = as_tensor(self.inputs)
        n = self.inputs.shape[0]
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise DataError("labels length does not match inputs")
        if self.split is not None:
            self.split = np.asarray(self.split)
            if self.split.shape != (n,):
                raise DataError("split length does not match inputs")
            bad = set(self.split) - set(SPLIT_TAGS)
            if bad:
                raise DataError(f"unknown split tags: {sorted(bad)}")
            if self.labels is None:
                raise DataError("tagged datasets need a label array")
            needs_label = np.isin(self.split, ("labeled", "validation", "test"))
            if np.any(self.labels[needs_label] < 0):
                raise DataError("labeled/validation/test rows must carry labels")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def subset(self, tag: str) -> tuple[Tensor, np.ndarray]:
        if self.split is None:
            raise DataError("dataset has no split tags")
        mask = self.split == tag
        labels = self.labels[mask] if self.labels is not None else None
        return self.inputs[mask], labels


@dataclass
class EmbeddingMap:
    """Isometric linear map from the 2-D plane into EMBED_DIM dimensions."""
    matrix: Tensor               # (2, EMBED_DIM), orthonormal rows
    offset: Tensor = field(default=None)

    def __post_init__(self):
        self.matrix = as_tensor(self.matrix)
        if self.matrix.shape != (2, EMBED_DIM):
            raise ConfigError(f"embedding matrix must be (2, {EMBED_DIM})")
        gram = self.matrix @ self.matrix.T
        if not np.allclose(gram, np.eye(2), atol=1e-10):
            raise ConfigError("embedding rows must be orthonormal")
        if self.offset is None:
            self.offset = np.zeros(EMBED_DIM)
        self.offset = as_tensor(self.offset)
        if self.offset.shape != (EMBED_DIM,):
            raise ConfigError(f"offset must have length {EMBED_DIM}")


def make_embedding(rng: np.random.Generator) -> EmbeddingMap:
    """Orthonormalize a seeded Gaussian 2 x EMBED_DIM matrix (Gram-Schmidt via QR)."""
    q, _ = np.linalg.qr(rng.standard_normal((EMBED_DIM, 2)))
    return EmbeddingMap(matrix=q.T)


def embed_100d(points: Tensor, emb: EmbeddingMap) -> Tensor:
    points = as_tensor(points)
    return points @ emb.matrix + emb.offset


def project_2d(inputs: Tensor, emb: EmbeddingMap) -> Tensor:
    """Inverse of embed_100d on the embedded plane."""
    return (as_tensor(inputs) - emb.offset) @ emb.matrix.T


def gen_moons(rng: np.random.Generator, n_per_class: int) -> tuple[Tensor, np.ndarray]:
    """Two interleaved crescents, points uniform in arc angle, no noise.

    Class 0: (cos t, sin t); class 1: (1 - cos t, -sin t + 0.5), t in [0, pi].
    """
    if n_per_class < 1:
        raise ConfigError("n_per_class must be >= 1")
    t0 = rng.uniform(0.0, np.pi, n_per_class)
    t1 = rng.uniform(0.0, np.pi, n_per_class)
    c0 = np.column_stack([np.cos(t0), np.sin(t0)])
    c1 = np.column_stack([1.0 - np.cos(t1), -np.sin(t1) + 0.5])
    points = np.vstack([c0, c1])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return points, labels


def gen_circles(rng: np.random.Generator, n_per_class: int) -> tuple[Tensor, np.ndarray]:
    """Two concentric circles of radii 1.0 (class 0) and 0.5 (class 1)."""
    if n_per_class < 1:
        raise ConfigError("n_per_class must be >= 1")
    a0 = rng.uniform(0.0, 2 * np.pi, n_per_class)
    a1 = rng.uniform(0.0, 2 * np.pi, n_per_class)
    c0 = np.column_stack([np.cos(a0), np.sin(a0)])
    c1 = 0.5 * np.column_stack([np.cos(a1), np.sin(a1)])
    points = np.vstack([c0, c1])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return points, labels


_GENERATORS = {"moons": gen_moons, "circles": gen_circles}


def make_synthetic_dataset(task: str, rng: np.random.Generator,
                           n_train_per_class: int = 8, n_test: int = 1000,
                           n_unlabeled: int = 0,
                           emb: EmbeddingMap | None = None) -> tuple[Dataset, EmbeddingMap]:
    """Embedded train/test (plus optional unlabeled pool) for one repetition."""
    if task not in _GENERATORS:
        raise ConfigError(f"unknown synthetic task {task!r}")
    if n_unlabeled < 0:
        raise ConfigError(f"n_unlabeled must be >= 0, got {n_unlabeled}")
    gen = _GENERATORS[task]
    if emb is None:
        emb = make_embedding(rng)
    train_pts, train_y = gen(rng, n_train_per_class)
    test_pts, test_y = gen(rng, (n_test + 1) // 2)
    test_pts, test_y = test_pts[:n_test], test_y[:n_test]
    parts = [
        (train_pts, train_y, np.full(len(train_y), "labeled")),
        (test_pts, test_y, np.full(len(test_y), "test")),
    ]
    if n_unlabeled > 0:
        ul_pts, ul_y = gen(rng, (n_unlabeled + 1) // 2)
        ul_pts = ul_pts[:n_unlabeled]
        parts.append((ul_pts, np.full(n_unlabeled, -1, dtype=np.int64),
                      np.full(n_unlabeled, "unlabeled")))
    points = np.vstack([p for p, _, _ in parts])
    labels = np.concatenate([y for _, y, _ in parts])
    split = np.concatenate([s for _, _, s in parts])
    return Dataset(embed_100d(points, emb), labels, split), emb


@dataclass(frozen=True)
class SyntheticSplits:
    """Picklable make_data for train.run_errors and train.grid_search: called
    with a seed, one make_synthetic_dataset repetition of n_train labeled rows
    (n_train // 2 per class) and n_eval held-out ones, as (train_x, train_y,
    eval_x, eval_y)."""
    task: str
    n_train: int
    n_eval: int

    def __call__(self, seed: int) -> tuple:
        dataset, _ = make_synthetic_dataset(self.task, make_rng(seed), self.n_train // 2,
                                            self.n_eval)
        return (*dataset.subset("labeled"), *dataset.subset("test"))


def find_mnist_file(directory, prefix: str) -> str:
    """Path of the IDX file for prefix (e.g. "train-images-idx3") under
    directory, plain or gzipped, with or without the "-ubyte" suffix."""
    for suffix in ("-ubyte", "-ubyte.gz", "", ".gz"):
        candidate = os.path.join(directory, prefix + suffix)
        if os.path.exists(candidate):
            return candidate
    raise DataError(f"cannot find {prefix}* under {directory}")


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, expected_magic: int) -> tuple[np.ndarray, tuple[int, ...]]:
    with _open_maybe_gzip(path) as fh:
        header = fh.read(4)
        if len(header) < 4:
            raise FormatError(f"{path}: truncated magic at byte 0")
        (magic,) = struct.unpack(">i", header)
        if magic != expected_magic:
            raise FormatError(
                f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}")
        ndim = magic & 0xFF
        dims = []
        for i in range(ndim):
            raw = fh.read(4)
            if len(raw) < 4:
                raise FormatError(f"{path}: truncated dimension at byte {4 + 4 * i}")
            dims.append(struct.unpack(">i", raw)[0])
        count = int(np.prod(dims))
        payload = fh.read(count)
        if len(payload) < count:
            raise FormatError(
                f"{path}: truncated payload at byte {4 + 4 * ndim + len(payload)}")
        return np.frombuffer(payload, dtype=np.uint8), tuple(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Digit images and labels from IDX files (optionally gzipped).

    Pixels are scaled to [0, 1]; images flatten to 784-dimensional rows.
    """
    pixels, img_dims = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels, lab_dims = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    if len(img_dims) != 3:
        raise FormatError(f"{images_path}: expected 3 dimensions, got {len(img_dims)}")
    n, rows, cols = img_dims
    if lab_dims != (n,):
        raise FormatError(f"{labels_path}: {lab_dims[0]} labels for {n} images")
    inputs = pixels.astype(np.float64).reshape(n, rows * cols) / 255.0
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() > 9):
        raise FormatError(f"{labels_path}: label outside 0..9")
    return Dataset(inputs, labels)


def make_semisup_split(dataset: Dataset, n_labeled: int, n_validation: int,
                       rng: np.random.Generator) -> Dataset:
    """Tag rows as labeled/validation/unlabeled with stratified label selection.

    Labeled rows are drawn near-uniformly per class (counts differ by at most
    one where the class sizes allow); the remainder becomes the unlabeled pool.
    """
    if n_labeled < 1:
        raise ConfigError(f"n_labeled must be >= 1, got {n_labeled}")
    if n_validation < 0:
        raise ConfigError(f"n_validation must be >= 0, got {n_validation}")
    if dataset.labels is None:
        raise DataError("semi-supervised split needs labels")
    n = dataset.n
    if n_labeled + n_validation > n:
        raise DataError("n_labeled + n_validation exceeds the dataset size")
    order = rng.permutation(n)
    split = np.full(n, "unlabeled", dtype=object)
    val_idx = order[:n_validation]
    split[val_idx] = "validation"
    pool = order[n_validation:]
    classes = np.unique(dataset.labels[pool])
    members = {cls: pool[dataset.labels[pool] == cls] for cls in classes}
    taken = {cls: 0 for cls in classes}
    remaining = n_labeled
    # hand out labels as evenly as the class sizes allow; classes that run
    # out pass their leftover quota to the ones that still have candidates
    while remaining > 0:
        open_classes = [c for c in classes if taken[c] < len(members[c])]
        if not open_classes:
            raise DataError(f"only {n_labeled - remaining} candidates available "
                            f"for {n_labeled} labels")
        base, extra = divmod(remaining, len(open_classes))
        for k, cls in enumerate(open_classes):
            want = base + (1 if k < extra else 0)
            take = min(want, len(members[cls]) - taken[cls])
            taken[cls] += take
            remaining -= take
    chosen = [members[cls][:taken[cls]] for cls in classes]
    split[np.concatenate(chosen)] = "labeled"
    return Dataset(dataset.inputs, dataset.labels, split.astype(str))


def export_csv(dataset: Dataset, path) -> None:
    """Write rows as x0..x{I-1},label (label -1 for unlabeled rows)."""
    dim = dataset.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["label"])
        labels = dataset.labels if dataset.labels is not None else np.full(dataset.n, -1)
        for row, label in zip(dataset.inputs, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
