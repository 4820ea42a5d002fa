import gzip
import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from vatlab import data as dm
from vatlab.errors import ConfigError, DataError, FormatError
from vatlab.numerics import make_rng


class TestMoons:
    def test_sixteen_sample_regime(self, rng):
        points, labels = dm.gen_points("moons", rng, 16)
        assert points.shape == (16, 2)
        assert labels.sum() == 8

    def test_class_zero_on_unit_circle(self, rng):
        points, labels = dm.gen_points("moons", rng, 1000)
        c0 = points[labels == 0]
        assert np.max(np.abs((c0 ** 2).sum(axis=1) - 1.0)) < 1e-9
        assert np.all(c0[:, 1] >= -1e-12)

    def test_arc_length_uniformity(self):
        rng = make_rng(1)
        points, labels = dm.gen_points("moons", rng, 20_000)
        angles = np.arctan2(points[labels == 0][:, 1], points[labels == 0][:, 0])
        # KS statistic against uniform on [0, pi]
        sorted_u = np.sort(angles / np.pi)
        grid = np.arange(1, len(sorted_u) + 1) / len(sorted_u)
        ks = np.max(np.abs(sorted_u - grid))
        assert ks < 0.05


class TestCircles:
    def test_radii_ratio(self, rng):
        points, labels = dm.gen_points("circles", rng, 400)
        r0 = np.linalg.norm(points[labels == 0], axis=1)
        r1 = np.linalg.norm(points[labels == 1], axis=1)
        assert np.allclose(r0, 1.0, atol=1e-12)
        assert np.allclose(r1, 0.5, atol=1e-12)

    def test_dataset_sizing(self, rng):
        dataset, _ = dm.make_synthetic_dataset("circles", rng, n_train=16, n_test=1000)
        assert dataset.subset("labeled")[0].shape[0] == 16
        assert dataset.subset("test")[0].shape[0] == 1000

    def test_not_linearly_separable(self, rng):
        points, labels = dm.gen_points("circles", rng, 200)
        for deg in range(360):
            a = np.deg2rad(deg)
            proj = points @ np.array([np.cos(a), np.sin(a)])
            lo1, hi1 = proj[labels == 1].min(), proj[labels == 1].max()
            lo0, hi0 = proj[labels == 0].min(), proj[labels == 0].max()
            assert not (hi1 < lo0 or hi0 < lo1)


class TestEmbedding:
    def test_isometry(self, rng):
        emb = dm.make_embedding(rng)
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((50, 2))
        da = np.linalg.norm(a - b, axis=1)
        de = np.linalg.norm(dm.embed_100d(a, emb) - dm.embed_100d(b, emb), axis=1)
        assert np.max(np.abs(da - de)) < 1e-10

    def test_embedded_rank_two(self, rng):
        emb = dm.make_embedding(rng)
        points = rng.standard_normal((30, 2))
        embedded = dm.embed_100d(points, emb)
        centered = embedded - embedded.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        assert np.sum(s > 1e-8) == 2

    def test_rejects_non_orthonormal(self, rng):
        with pytest.raises(ConfigError):
            dm.EmbeddingMap(matrix=rng.standard_normal((2, 100)))

    def test_project_inverts_embed(self, rng):
        emb = dm.make_embedding(rng)
        points = rng.standard_normal((10, 2))
        back = dm.project_2d(dm.embed_100d(points, emb), emb)
        assert np.max(np.abs(back - points)) < 1e-10


def _write_idx_images(path, images, compress=False):
    n, rows, cols = images.shape
    blob = struct.pack(">iiii", 0x00000803, n, rows, cols) + images.tobytes()
    opener = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(blob)


def _write_idx_labels(path, labels, compress=False):
    blob = struct.pack(">ii", 0x00000801, len(labels)) + bytes(labels)
    opener = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(blob)


class TestIdxLoading:
    def test_fixture_roundtrip(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[1, 0, 0] = 255
        images[1, 27, 27] = 51
        _write_idx_images(tmp_path / "img", images)
        _write_idx_labels(tmp_path / "lab", [7, 2])
        ds = dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")
        assert ds.inputs.shape == (2, 784)
        assert np.all(ds.inputs[0] == 0.0)
        assert ds.inputs[1, 0] == 1.0
        assert abs(ds.inputs[1, 783] - 0.2) < 1e-12
        assert list(ds.labels) == [7, 2]

    def test_gzip_detection(self, tmp_path):
        images = np.full((1, 28, 28), 128, dtype=np.uint8)
        _write_idx_images(tmp_path / "img.gz", images, compress=True)
        _write_idx_labels(tmp_path / "lab.gz", [3], compress=True)
        ds = dm.load_mnist_idx(tmp_path / "img.gz", tmp_path / "lab.gz")
        assert np.allclose(ds.inputs, 128 / 255)

    def test_bad_magic(self, tmp_path):
        with open(tmp_path / "img", "wb") as fh:
            fh.write(struct.pack(">iiii", 0x00000999, 1, 2, 2) + b"\x00" * 4)
        _write_idx_labels(tmp_path / "lab", [0])
        with pytest.raises(FormatError, match="byte 0"):
            dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")

    def test_truncated_payload(self, tmp_path):
        with open(tmp_path / "img", "wb") as fh:
            fh.write(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        _write_idx_labels(tmp_path / "lab", [0, 1])
        with pytest.raises(FormatError, match="truncated"):
            dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")

    def test_count_mismatch(self, tmp_path):
        _write_idx_images(tmp_path / "img", np.zeros((2, 28, 28), dtype=np.uint8))
        _write_idx_labels(tmp_path / "lab", [1])
        with pytest.raises(FormatError, match="1 labels for 2 images"):
            dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")

    def test_no_images(self, tmp_path):
        # an empty split trains on nothing and scores NaN
        _write_idx_images(tmp_path / "img", np.zeros((0, 28, 28), dtype=np.uint8))
        _write_idx_labels(tmp_path / "lab", [])
        with pytest.raises(FormatError, match="no images"):
            dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")

    def test_scaling_takes_one_float_copy(self, tmp_path):
        # scaling into a second float64 array peaked at about twice the result
        n = 2000
        _write_idx_images(tmp_path / "img",
                          make_rng(0).integers(0, 256, (n, 28, 28), dtype=np.uint8))
        _write_idx_labels(tmp_path / "lab", [i % 10 for i in range(n)])
        tracemalloc.start()
        try:
            ds = dm.load_mnist_idx(tmp_path / "img", tmp_path / "lab")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.inputs.nbytes

    def test_find_file_prefers_ubyte_then_gzip(self, tmp_path):
        for name in ("t10k-images-idx3-ubyte.gz", "t10k-images-idx3"):
            (tmp_path / name).write_bytes(b"")
        found = dm.find_mnist_file(tmp_path, "t10k-images-idx3")
        assert found == str(tmp_path / "t10k-images-idx3-ubyte.gz")
        with pytest.raises(DataError, match="cannot find train-labels-idx1"):
            dm.find_mnist_file(tmp_path, "train-labels-idx1")


class TestSemisupSplit:
    def _fake(self, n=6000, classes=10, seed=0):
        rng = make_rng(seed)
        labels = rng.integers(0, classes, n)
        return dm.Dataset(rng.standard_normal((n, 3)), labels)

    def test_partition_arithmetic(self):
        ds = self._fake(60_000)
        tagged = dm.make_semisup_split(ds, 100, 1000, make_rng(1))
        counts = {tag: int((tagged.split == tag).sum())
                  for tag in ("labeled", "validation", "unlabeled")}
        assert counts == {"labeled": 100, "validation": 1000, "unlabeled": 58_900}

    def test_fully_supervised_degenerate(self):
        ds = self._fake(1000)
        tagged = dm.make_semisup_split(ds, 1000, 0, make_rng(1))
        assert np.all(tagged.split == "labeled")

    def test_stratification(self):
        ds = self._fake(6000)
        tagged = dm.make_semisup_split(ds, 100, 500, make_rng(2))
        labeled = tagged.labels[tagged.split == "labeled"]
        per_class = np.bincount(labeled, minlength=10)
        assert per_class.max() - per_class.min() <= 1

    def test_split_is_pinned_where_no_class_runs_out(self):
        tagged = dm.make_semisup_split(self._fake(6000), 100, 500, make_rng(2))
        digest = hashlib.sha256("\n".join(tagged.split).encode()).hexdigest()
        assert digest[:16] == "1e6f94156b9c7aa4"

    def test_classes_that_still_have_rows_stay_within_one(self):
        # class 0 runs out after two labels; the other eight labels alternate
        labels = np.array([0, 0] + [1, 2] * 5)
        ds = dm.Dataset(np.zeros((12, 3)), labels)
        tagged = dm.make_semisup_split(ds, 8, 0, make_rng(0))
        assert list(np.bincount(labels[tagged.split == "labeled"])) == [2, 3, 3]

    def test_insufficient_samples(self):
        ds = self._fake(50)
        with pytest.raises(DataError):
            dm.make_semisup_split(ds, 40, 20, make_rng(1))

    def test_deterministic_under_seed(self):
        ds = self._fake(2000)
        a = dm.make_semisup_split(ds, 50, 100, make_rng(5))
        b = dm.make_semisup_split(ds, 50, 100, make_rng(5))
        assert np.array_equal(a.split, b.split)


class TestSyntheticSplits:
    def test_draws_one_repetition(self):
        ds, _ = dm.make_synthetic_dataset("circles", make_rng(4), n_train=6, n_test=9)
        got = dm.SyntheticSplits("circles", n_train=6, n_eval=9)(4)
        want = (*ds.subset("labeled"), *ds.subset("test"))
        assert [a.shape for a in got] == [(6, 100), (6,), (9, 100), (9,)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_pickle_round_trip(self):
        # worker processes receive the factory by pickling it
        splits = dm.SyntheticSplits("moons", n_train=16, n_eval=50)
        copy = pickle.loads(pickle.dumps(splits))
        assert copy == splits
        assert all(np.array_equal(a, b) for a, b in zip(copy(3), splits(3)))


def test_dataset_tag_validation(rng):
    with pytest.raises(DataError):
        dm.Dataset(rng.standard_normal((3, 2)), np.array([0, 1, -1]),
                   np.array(["labeled", "test", "test"]))


def test_export_csv_header_and_labels(tmp_path, rng):
    ds, _ = dm.make_synthetic_dataset("moons", rng, n_train=4, n_test=2)
    path = tmp_path / "out.csv"
    dm.export_csv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("x0,") and lines[0].endswith("x99,label,split")
    assert len(lines) == 1 + ds.n
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ds.split.tolist()
    # a dataset without tags has no split column
    dm.export_csv(dm.Dataset(ds.inputs, ds.labels), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].endswith("x99,label") and len(lines) == 1 + ds.n
