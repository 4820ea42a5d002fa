"""Datasets: interleaved-crescent and concentric-circle synthetics embedded
into 100 dimensions, IDX-format digit ingestion, and semi-supervised splits.

The 2-D synthetic points lie exactly on their generating trajectories (no
observation noise); the embedding uses orthonormalized Gaussian rows, so it
is an isometry and perturbation radii keep their 2-D meaning.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

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
    labels: np.ndarray             # (N,) int, -1 where unknown
    split: np.ndarray | None = None  # (N,) strings from SPLIT_TAGS

    def __post_init__(self):
        self.inputs = as_tensor(self.inputs)
        n = self.inputs.shape[0]
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
        return self.inputs[mask], self.labels[mask]


@dataclass
class EmbeddingMap:
    """Isometric linear map from the 2-D plane into EMBED_DIM dimensions."""
    matrix: Tensor               # (2, EMBED_DIM), orthonormal rows

    def __post_init__(self):
        self.matrix = as_tensor(self.matrix)
        if self.matrix.shape != (2, EMBED_DIM):
            raise ConfigError(f"embedding matrix must be (2, {EMBED_DIM})")
        gram = self.matrix @ self.matrix.T
        if not np.allclose(gram, np.eye(2), atol=1e-10):
            raise ConfigError("embedding rows must be orthonormal")


def make_embedding(rng: np.random.Generator) -> EmbeddingMap:
    """Orthonormalize a seeded Gaussian 2 x EMBED_DIM matrix (Gram-Schmidt via QR)."""
    q, _ = np.linalg.qr(rng.standard_normal((EMBED_DIM, 2)))
    return EmbeddingMap(matrix=q.T)


def embed_100d(points: Tensor, emb: EmbeddingMap) -> Tensor:
    return as_tensor(points) @ emb.matrix


def project_2d(inputs: Tensor, emb: EmbeddingMap) -> Tensor:
    """Inverse of embed_100d on the embedded plane."""
    return as_tensor(inputs) @ emb.matrix.T


# task -> (largest angle, class-0 curve, class-1 curve); angles are uniform
# on [0, largest angle]
_CURVES = {
    # two interleaved crescents
    "moons": (np.pi, lambda t: (np.cos(t), np.sin(t)),
              lambda t: (1.0 - np.cos(t), -np.sin(t) + 0.5)),
    # two concentric circles of radii 1.0 and 0.5
    "circles": (2 * np.pi, lambda t: (np.cos(t), np.sin(t)),
                lambda t: (0.5 * np.cos(t), 0.5 * np.sin(t))),
}
SYNTH_TASKS = tuple(_CURVES)


def gen_points(task: str, rng: np.random.Generator, n: int) -> tuple[Tensor, np.ndarray]:
    """n points of a synthetic task and their labels: (n + 1) // 2 angles per
    class, class 0's drawn first, and the first n points kept, so an odd n
    has one more class-0 point."""
    largest, *curves = _CURVES[task]
    per_class = (n + 1) // 2
    points = np.vstack([np.column_stack(curve(rng.uniform(0.0, largest, per_class)))
                        for curve in curves])
    labels = np.repeat(np.arange(2, dtype=np.int64), per_class)
    return points[:n], labels[:n]


def make_synthetic_dataset(task: str, rng: np.random.Generator,
                           n_train: int = 16, n_test: int = 1000,
                           n_unlabeled: int = 0,
                           emb: EmbeddingMap | None = None) -> tuple[Dataset, EmbeddingMap]:
    """Embedded train/test (plus optional unlabeled pool) for one repetition."""
    if task not in _CURVES:
        raise ConfigError(f"unknown synthetic task {task!r}")
    for name, count, least in (("n_train", n_train, 1), ("n_test", n_test, 1),
                               ("n_unlabeled", n_unlabeled, 0)):
        if count < least:
            raise ConfigError(f"{name} must be >= {least}, got {count}")
    if emb is None:
        emb = make_embedding(rng)
    points, labels, split = [], [], []
    for tag, n in (("labeled", n_train), ("test", n_test), ("unlabeled", n_unlabeled)):
        pts, y = gen_points(task, rng, n)  # an empty pool draws nothing
        points.append(pts)
        labels.append(np.full(n, -1) if tag == "unlabeled" else y)
        split.append(np.full(n, tag))
    return Dataset(embed_100d(np.vstack(points), emb), np.concatenate(labels),
                   np.concatenate(split)), emb


@dataclass(frozen=True)
class SyntheticSplits:
    """Picklable make_data for train.run_errors and train.grid_search: called
    with a seed, one make_synthetic_dataset repetition of n_train labeled rows
    and n_eval held-out ones, as (train_x, train_y, eval_x, eval_y)."""
    task: str
    n_train: int
    n_eval: int

    def __call__(self, seed: int) -> tuple:
        dataset, _ = make_synthetic_dataset(self.task, make_rng(seed), self.n_train,
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
    try:
        with _open_maybe_gzip(path) as fh:
            blob = fh.read()
    except (OSError, EOFError, zlib.error) as exc:  # also a gzip stream that does not decompress
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated magic at byte 0")
    (magic,) = struct.unpack_from(">i", blob)
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    dims = []
    for at in range(4, 4 + 4 * ndim, 4):
        if len(blob) < at + 4:
            raise FormatError(f"{path}: truncated dimension at byte {at}")
        (dim,) = struct.unpack_from(">i", blob, at)
        if dim < 0:
            raise FormatError(f"{path}: negative dimension {dim} at byte {at}")
        dims.append(dim)
    start = 4 + 4 * ndim
    count = math.prod(dims)  # a Python int: a huge header cannot wrap round
    if len(blob) < start + count:
        raise FormatError(f"{path}: truncated payload at byte {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, count=count, offset=start), tuple(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Digit images and labels from IDX files (optionally gzipped).

    Images must be 28x28; pixels are scaled to [0, 1] and each image
    flattens to a 784-dimensional row.
    """
    pixels, img_dims = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels, lab_dims = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    n, rows, cols = img_dims  # the images magic names 3 dimensions
    if (rows, cols) != (28, 28):
        raise FormatError(f"{images_path}: {rows}x{cols} images, expected 28x28")
    if n == 0:
        raise FormatError(f"{images_path}: no images")
    if lab_dims != (n,):
        raise FormatError(f"{labels_path}: {lab_dims[0]} labels for {n} images")
    inputs = pixels.reshape(n, MNIST_DIM).astype(np.float64)
    inputs /= 255.0  # in place: a second float64 copy would double the peak
    labels = labels.astype(np.int64)
    if labels.max() > 9:  # read as uint8, so never below 0
        raise FormatError(f"{labels_path}: label outside 0..9")
    return Dataset(inputs, labels)


def make_semisup_split(dataset: Dataset, n_labeled: int, n_validation: int,
                       rng: np.random.Generator) -> Dataset:
    """Tag rows as labeled/validation/unlabeled with stratified label selection.

    Labels are picked round-robin by class: each pool row is ranked within
    its class in draw order, and the n_labeled rows of lowest (rank, class)
    are labeled. So the counts of the classes that still have rows differ by
    at most one. The remainder becomes the unlabeled pool.
    """
    if n_labeled < 1:
        raise ConfigError(f"n_labeled must be >= 1, got {n_labeled}")
    if n_validation < 0:
        raise ConfigError(f"n_validation must be >= 0, got {n_validation}")
    n = dataset.n
    if n_labeled + n_validation > n:
        raise DataError("n_labeled + n_validation exceeds the dataset size")
    order = rng.permutation(n)
    split = np.full(n, "unlabeled", dtype=object)
    split[order[:n_validation]] = "validation"
    pool = order[n_validation:]
    pool_labels = dataset.labels[pool]
    rank = np.empty(len(pool), dtype=np.int64)
    for cls in np.unique(pool_labels):
        members = pool_labels == cls
        rank[members] = np.arange(np.count_nonzero(members))
    by_rank = np.lexsort((pool_labels, rank))  # by rank, then by class
    split[pool[by_rank[:n_labeled]]] = "labeled"
    return Dataset(dataset.inputs, dataset.labels, split.astype(str))


def export_csv(dataset: Dataset, path) -> None:
    """Write rows as x0..x{I-1},label (label -1 for unlabeled rows), followed
    by a split column of the row's tag when the dataset carries tags."""
    dim = dataset.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        tagged = dataset.split is not None
        writer.writerow([f"x{i}" for i in range(dim)] + ["label"] + ["split"] * tagged)
        tags = dataset.split.tolist() if tagged else [None] * dataset.n
        for row, label, tag in zip(dataset.inputs, dataset.labels, tags):
            writer.writerow([repr(float(v)) for v in row] + [int(label)] + [tag] * tagged)
