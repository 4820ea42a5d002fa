import csv
import gzip
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from conftest import blas_threads, openblas_config, require_env
from test_data import _write_idx_images, _write_idx_labels

from vatlab import cli, contour, data as datamod, nn, train as trainmod
from vatlab.cli import main
from vatlab.numerics import make_rng


def run_cli(*argv):
    return main(list(argv))


class TestGenData:
    def test_writes_csv_and_embedding(self, tmp_path):
        out = str(tmp_path / "moons.csv")
        assert run_cli("gen-data", "--task", "moons", "--out", out, "--seed", "1") == 0
        assert os.path.exists(out)
        assert os.path.exists(out + ".embedding.npz")
        header = open(out).readline().strip()
        assert header.startswith("x0,") and header.endswith("label,split")

    def test_deterministic_under_seed(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli("gen-data", "--task", "circles", "--out", a, "--seed", "5")
        run_cli("gen-data", "--task", "circles", "--out", b, "--seed", "5")
        assert open(a).read() == open(b).read()

    def test_odd_n_train_gives_class_zero_the_extra_row(self, tmp_path):
        out = str(tmp_path / "moons.csv")
        assert run_cli("gen-data", "--task", "moons", "--n-train", "15", "--n-test", "3",
                       "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = {tag: sorted(int(row["label"]) for row in rows if row["split"] == tag)
                  for tag in ("labeled", "test")}
        # 15 training rows, 8 of them class 0, and 3 test rows
        assert labels == {"labeled": [0] * 8 + [1] * 7, "test": [0, 0, 1]}
        assert len(rows) == 18

    def test_zero_n_train_exits_2_naming_it(self, tmp_path, capsys):
        assert run_cli("gen-data", "--task", "moons", "--n-train", "0",
                       "--out", str(tmp_path / "d.csv")) == 2
        assert "n_train" in capsys.readouterr().err


class TestTrainCommand:
    def test_moons_vat_artifacts(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = run_cli("train", "--task", "moons", "--reg", "vat",
                       "--epsilon", "0.5", "--updates", "30",
                       "--out-prefix", prefix, "--seed", "2")
        assert code == 0
        for suffix in (".ckpt.npz", ".record.csv", ".summary.json",
                       ".embedding.npz", ".train.csv"):
            assert os.path.exists(prefix + suffix), suffix
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["method"] == "vat"
        assert 0.0 <= summary["final"]["test_err"] <= 1.0
        # what the weights depend on besides the seed and the flags
        env = summary["env"]
        assert (env["python"], env["numpy"], env["blas"]["config"]) == \
            (platform.python_version(), np.__version__, openblas_config())

    def test_summary_records_the_blas_thread_count(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        with blas_threads(1):
            assert run_cli("train", "--task", "moons", "--updates", "2",
                           "--out-prefix", prefix) == 0
        assert json.load(open(prefix + ".summary.json"))["env"]["blas"]["threads"] == 1

    def test_mle_run(self, tmp_path):
        prefix = str(tmp_path / "mle")
        code = run_cli("train", "--task", "circles", "--reg", "mle",
                       "--updates", "20", "--out-prefix", prefix)
        assert code == 0

    def test_bad_method_exits_2(self, tmp_path):
        code = run_cli("train", "--task", "moons", "--reg", "vat",
                       "--epsilon", "-1", "--out-prefix", str(tmp_path / "x"))
        assert code == 2

    def test_hidden_sizes_apply_to_synthetic_tasks(self, tmp_path):
        prefix = str(tmp_path / "deep")
        assert run_cli("train", "--task", "moons", "--hidden", "7,7", "--updates", "2",
                       "--out-prefix", prefix) == 0
        net = nn.load_checkpoint(prefix + ".ckpt.npz")
        assert [l.weights.shape for l in net.layers] == [(100, 7), (7, 7), (7, 2)]

    def test_missing_mnist_exits_4(self, tmp_path):
        code = run_cli("train", "--task", "mnist", "--reg", "mle",
                       "--mnist-dir", str(tmp_path / "nowhere"),
                       "--out-prefix", str(tmp_path / "x"))
        assert code == 4


class TestBoundaryCommand:
    def test_end_to_end(self, tmp_path):
        prefix = str(tmp_path / "run")
        run_cli("train", "--task", "moons", "--reg", "vat", "--epsilon", "0.5",
                "--updates", "30", "--out-prefix", prefix, "--seed", "3")
        out = str(tmp_path / "plot")
        code = run_cli("boundary", "--checkpoint", prefix + ".ckpt.npz",
                       "--embedding", prefix + ".embedding.npz",
                       "--train-csv", prefix + ".train.csv",
                       "--resolution", "24", "--out", out)
        assert code == 0
        svg = open(out + ".svg").read()
        assert "<svg" in svg and "mean LDS" in svg
        grid = open(out + ".csv").read().strip().split("\n")
        assert grid[0] == "x,y,p"
        assert len(grid) == 1 + 24 * 24

    def test_memory_stays_bounded_at_resolution_600(self, tmp_path, capsys):
        # the whole CSV built as one string took 84 MB of traced memory here
        prefix = str(tmp_path / "run")
        assert run_cli("train", "--task", "moons", "--updates", "2", "--out-prefix", prefix) == 0
        tracemalloc.start()
        try:
            assert run_cli("boundary", "--checkpoint", prefix + ".ckpt.npz",
                           "--embedding", prefix + ".embedding.npz",
                           "--train-csv", prefix + ".train.csv",
                           "--resolution", "600", "--out", str(tmp_path / "plot")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestEvalCommand:
    def test_eval_checkpoint(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        run_cli("train", "--task", "moons", "--reg", "mle", "--updates", "20",
                "--out-prefix", prefix, "--seed", "4")
        capsys.readouterr()
        code = run_cli("eval", "--task", "moons",
                       "--checkpoint", prefix + ".ckpt.npz",
                       "--embedding", prefix + ".embedding.npz",
                       "--n-test", "100", "--seed", "4")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "error" in out and "mean_lds" in out


class TestAuditCost:
    def test_single_iteration(self, capsys):
        assert run_cli("audit-cost", "--ip", "1") == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts == {"forward": 3, "backward": 2, "power_iterations": 1}

    def test_two_iterations(self, capsys):
        run_cli("audit-cost", "--ip", "2")
        counts = json.loads(capsys.readouterr().out)
        assert (counts["forward"], counts["backward"]) == (4, 3)


# The exact table of TINY_GRID, tied like the golden weights to the numpy
# version and the OpenBLAS configuration it was made with.
GRID_NUMPY = "2.4.6"
GRID_OPENBLAS = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
TINY_GRID = ("grid", "--task", "moons", "--methods", "mle,vat", "--reps", "2",
             "--grid-reps", "1", "--updates", "20", "--n-val", "50", "--n-test", "50")
GOLDEN_GRID_CSV = '''\
method,mean_test_error,sd_test_error,best_hyperparameters
mle,0.13,0.049999999999999996,"{""optimizer"": ""sgd"", ""regularizer"": ""none"", ""total_updates"": 20, ""weight"": 0.0}"
vat,0.14,0.060000000000000005,"{""epsilon"": 0.1, ""optimizer"": ""sgd"", ""power_iterations"": 1, ""regularizer"": ""vat"", ""total_updates"": 20, ""weight"": 1.0, ""xi"": 1e-06}"
'''


class TestGridCommand:
    def test_tiny_grid_table(self, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        assert run_cli(*TINY_GRID, "--out", out) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("method,")
        assert len(lines) == 3

    def test_table_is_csv_with_a_json_column(self, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        assert run_cli(*TINY_GRID, "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["mle", "vat"]
        assert all(None not in row for row in rows)  # no row has extra fields
        best = [json.loads(row["best_hyperparameters"]) for row in rows]
        assert [b["regularizer"] for b in best] == ["none", "vat"]

    def test_tiny_grid_matches_golden(self, tmp_path, capsys):
        require_env(GRID_NUMPY, GRID_OPENBLAS, "grid table")
        out = str(tmp_path / "table.csv")
        assert run_cli(*TINY_GRID, "--out", out) == 0
        assert open(out).read() == GOLDEN_GRID_CSV

    def test_unknown_method_exits_2(self):
        assert run_cli("grid", "--task", "moons", "--methods", "nope") == 2


def _write_random_mnist(directory):
    """A train and a t10k IDX pair of 40 random 28x28 images, labels 0-9 in turn."""
    directory.mkdir()
    for split in ("train", "t10k"):
        _write_idx_images(directory / f"{split}-images-idx3-ubyte",
                          make_rng(0).integers(0, 256, (40, 28, 28), dtype=np.uint8))
        _write_idx_labels(directory / f"{split}-labels-idx1-ubyte",
                          [i % 10 for i in range(40)])


# task -> (its own flags, SHA-256 prefixes of the checkpoint's parameter bytes
# and of the .record.csv bytes), made in the grid table's environment at 1
# OpenBLAS thread, as the golden 784-1200-600-10 runs are, whose products
# round differently at 2
MNIST_RUNS = {
    "mnist": ((), ("fafd18c9", "ed77a9a5")),
    "mnist-semisup": (("--n-labeled", "10", "--n-validation", "5"), ("01ddf124", "def7421a")),
}


class TestMnistTasks:
    def _train(self, tmp_path, task, *flags):
        """The output prefix of one run of task on random IDX files."""
        if not (tmp_path / "mnist").exists():
            _write_random_mnist(tmp_path / "mnist")
        prefix = str(tmp_path / ("run" + "".join(flags)))
        with blas_threads(1):
            assert run_cli("train", "--task", task, "--mnist-dir", str(tmp_path / "mnist"),
                           "--hidden", "8", "--updates", "3", "--eval-every", "1",
                           *MNIST_RUNS[task][0], *flags, "--out-prefix", prefix) == 0
        return prefix

    @pytest.mark.parametrize("task", sorted(MNIST_RUNS))
    def test_matches_golden(self, tmp_path, capsys, task):
        require_env(GRID_NUMPY, GRID_OPENBLAS, "MNIST-task runs")
        prefix = self._train(tmp_path, task)
        params = nn.load_checkpoint(prefix + ".ckpt.npz").parameters()
        with open(prefix + ".record.csv", "rb") as fh:
            digests = (hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest(),
                       hashlib.sha256(fh.read()).hexdigest())
        assert tuple(d[:8] for d in digests) == MNIST_RUNS[task][1]

    def test_eval(self, tmp_path, capsys):
        prefix = self._train(tmp_path, "mnist")
        capsys.readouterr()
        assert run_cli("eval", "--task", "mnist", "--mnist-dir", str(tmp_path / "mnist"),
                       "--checkpoint", prefix + ".ckpt.npz") == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["error"] <= 1.0 and np.isfinite(out["mean_lds"])

    def test_mnist_trains_on_the_loaded_arrays(self, tmp_path, capsys, monkeypatch):
        # --task mnist hands train_supervised the training arrays that
        # load_mnist_idx made, not a copy of them
        loaded, trained = [], []
        load_mnist_idx, train_supervised = datamod.load_mnist_idx, cli.train_supervised

        def load(*paths):
            loaded.append(load_mnist_idx(*paths))
            return loaded[-1]

        def train(cfg, x, y, *rest, **kwargs):
            trained.append((x, y))
            return train_supervised(cfg, x, y, *rest, **kwargs)

        monkeypatch.setattr(datamod, "load_mnist_idx", load)
        monkeypatch.setattr(cli, "train_supervised", train)
        self._train(tmp_path, "mnist")
        (x, y), = trained
        assert x is loaded[0].inputs and y is loaded[0].labels

    @pytest.mark.parametrize("task", sorted(MNIST_RUNS))
    def test_record_lds_leaves_weights_unchanged(self, tmp_path, capsys, task):
        plain, recorded = (self._train(tmp_path, task, *flags) for flags in [(), ("--record-lds",)])
        with open(recorded + ".record.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(np.isfinite(float(row[f"{split}_lds"]))
                   for row in rows for split in ("train", "test"))
        nets = [nn.load_checkpoint(prefix + ".ckpt.npz") for prefix in (plain, recorded)]
        for a, b in zip(*(net.parameters() for net in nets)):
            assert np.array_equal(a, b)


CONFIG_TRAIN = ["train", "--task", "moons", "--reg", "vat", "--n-test", "10",
                "--out-prefix", "{tmp}/x"]
CONFIG_EVAL = ["eval", "--task", "moons", "--checkpoint", "{tmp}/net.ckpt.npz", "--n-test", "10"]


class TestConfigFile:
    def test_file_values_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = moons\nreg = mle\nupdates = 15\nseed = 9\n")
        prefix = str(tmp_path / "out")
        code = run_cli("train", "--config", str(cfg), "--task", "circles",
                       "--out-prefix", prefix)
        assert code == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert summary["task"] == "circles"  # flag wins
        assert summary["seed"] == 9          # file fills the gap

    def test_flags_win_even_at_their_default_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reg = vat\nseed = 5\nupdates = 3\n")
        prefix = str(tmp_path / "out")
        code = run_cli("train", "--config", str(cfg), "--task", "moons", "--reg", "mle",
                       "--seed", "0", "--updates", "1000", "--n-test", "10",
                       "--out-prefix", prefix)
        assert code == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert (summary["method"], summary["seed"], summary["final"]["update"]) == \
            ("mle", 0, 1000)

    @pytest.mark.parametrize("value, recorded", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("No", False),
    ])
    def test_switch_values(self, tmp_path, capsys, value, recorded):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"record_lds = {value}\n")
        prefix = str(tmp_path / "out")
        assert run_cli("train", "--config", str(cfg), "--task", "moons", "--updates", "2",
                       "--n-test", "10", "--out-prefix", prefix) == 0
        final = json.load(open(prefix + ".summary.json"))["final"]
        assert (final["train_lds"] is not None) == recorded

    def test_malformed_switch_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("record_lds = ture\n")
        assert run_cli("train", "--config", str(cfg), "--task", "moons",
                       "--out-prefix", str(tmp_path / "x")) == 2
        assert "record_lds" in capsys.readouterr().err

    def test_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\n   \nseed = 6\n  # an indented comment\nupdates = 2\n")
        prefix = str(tmp_path / "out")
        assert run_cli("train", "--config", str(cfg), "--task", "moons", "--n-test", "10",
                       "--out-prefix", prefix) == 0
        summary = json.load(open(prefix + ".summary.json"))
        assert (summary["seed"], summary["final"]["update"]) == (6, 2)

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 6\nupdates 2\n")
        assert run_cli("train", "--config", str(cfg), "--task", "moons",
                       "--out-prefix", str(tmp_path / "x")) == 2
        assert "run.cfg:2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line, flags", [
        (CONFIG_TRAIN, "updates = 3", ["--updates", "3"]),
        (CONFIG_TRAIN + ["--updates", "2"], "epsilon = 0.25", ["--epsilon", "0.25"]),
        (CONFIG_TRAIN + ["--updates", "2"], "hidden = 7,7", ["--hidden", "7,7"]),
        (CONFIG_TRAIN + ["--updates", "2"], "record_lds = yes", ["--record-lds"]),
        # a flag whose default is None takes a string
        (CONFIG_EVAL, "embedding = {tmp}/emb.npz", ["--embedding", "{tmp}/emb.npz"]),
        (CONFIG_TRAIN, "func = cmd_eval", None),
        (CONFIG_TRAIN, "command = eval", None),
    ])
    def test_a_value_acts_as_its_flag(self, tmp_path, capsys, argv, line, flags):
        # each value converted to its flag's type; func and command are no flags
        nn.save_checkpoint(nn.init_mlp([100, 3, 2], make_rng(0)), tmp_path / "net.ckpt.npz")
        np.savez(tmp_path / "emb.npz", matrix=np.eye(2, 100), offset=np.zeros(100))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(tmp=tmp_path) + "\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        code = run_cli(*argv, "--config", str(cfg))
        from_file = capsys.readouterr().out
        if flags is None:
            assert code == 2
            return
        assert code == 0
        assert run_cli(*argv, *(f.format(tmp=tmp_path) for f in flags)) == 0
        assert capsys.readouterr().out == from_file

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("train", "--config", str(cfg), "--task", "moons",
                       "--out-prefix", str(tmp_path / "x")) == 2

    def test_a_file_supplies_a_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = moons\nupdates = 2\n")
        from_file, from_flag = str(tmp_path / "file"), str(tmp_path / "flag")
        assert run_cli("train", "--config", str(cfg), "--n-test", "10",
                       "--out-prefix", from_file) == 0
        assert run_cli("train", "--task", "moons", "--updates", "2", "--n-test", "10",
                       "--out-prefix", from_flag) == 0
        # the bytes of every array in the checkpoint; the zip entries carry times
        members = []
        for prefix in (from_file, from_flag):
            with zipfile.ZipFile(prefix + ".ckpt.npz") as zf:
                members.append({name: zf.read(name) for name in zf.namelist()})
        assert members[0] == members[1]

    def test_eval_takes_its_checkpoint_from_the_file(self, tmp_path, capsys):
        nn.save_checkpoint(nn.init_mlp([100, 3, 2], make_rng(0)), tmp_path / "net.ckpt.npz")
        np.savez(tmp_path / "emb.npz", matrix=np.eye(2, 100), offset=np.zeros(100))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"checkpoint = {tmp_path}/net.ckpt.npz\n")
        argv = ["eval", "--task", "moons", "--embedding", str(tmp_path / "emb.npz"),
                "--n-test", "10"]
        assert run_cli(*argv, "--config", str(cfg)) == 0
        from_file = capsys.readouterr().out
        assert run_cli(*argv, "--checkpoint", str(tmp_path / "net.ckpt.npz")) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("line, named, unnamed", [
        # the flags the file does not give stay required
        ("checkpoint = {tmp}/net.ckpt.npz", "--task", "--checkpoint"),
        # argparse does not check a default against the choices, a flag it does
        ("task = bogus\ncheckpoint = {tmp}/net.ckpt.npz", "'bogus'", "required"),
    ])
    def test_a_file_value_is_checked_as_its_flag(self, tmp_path, capsys, line, named, unnamed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line.format(tmp=tmp_path) + "\n")
        assert run_cli("eval", "--config", str(cfg), "--n-test", "10") == 2
        error = capsys.readouterr().err.splitlines()[-1]  # after the usage lines
        assert named in error and unnamed not in error


# checkpoints of a 100-3-2 network, each malformed in one way. The rows of
# LATER_BAD_CHECKPOINTS and LATER_BAD_IDX come last in the table of
# test_malformed_input_exit_codes, so that the rows before them keep their ids
BAD_CHECKPOINTS = {
    "tanh": {"activations": ["tanh", "identity"]},
    "unchained": {"w1": np.zeros((4, 2))},
    "short-bias": {"b0": np.zeros(2)},
    "flat-weights": {"w1": np.zeros(3)},
    "text-weights": {"w0": np.full((100, 3), "a")},
    "scalar-activations": {"activations": "identity"},
    "nan-weight": {"w1": np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 0.0]])},
    "inf-bias": {"b0": np.array([0.0, np.inf, 0.0])},
}
LATER_BAD_CHECKPOINTS = {"version-2": {"version": [2]}}


def _write_bad_checkpoints(directory):
    w0, b0, w1, b1 = nn.init_mlp([100, 3, 2], make_rng(0)).parameters()
    good = {"version": [1], "w0": w0, "b0": b0, "w1": w1, "b1": b1,
            "activations": ["relu", "identity"]}
    for name, change in {**BAD_CHECKPOINTS, **LATER_BAD_CHECKPOINTS}.items():
        arrays = {key: np.asarray(value) for key, value in {**good, **change}.items()}
        np.savez(directory / f"{name}.ckpt.npz", **arrays)


# train-images files, each malformed in one way: 10x10 images, a gzip magic
# followed by garbage, a gzip stream cut short, a gzip stream with a corrupt
# block, a negative dimension, and dimensions whose product overflows 64 bits
_GZIPPED = gzip.compress(struct.pack(">iiii", 0x803, 40, 28, 28) + bytes(40 * 784))
BAD_IMAGES = {
    "small-images": struct.pack(">iiii", 0x803, 40, 10, 10) + bytes(40 * 100),
    "gzip-garbage": b"\x1f\x8b" + bytes(range(2, 66)),
    "gzip-truncated": _GZIPPED[:len(_GZIPPED) // 2],
    "gzip-corrupt": _GZIPPED[:10] + b"\xff" * 50 + _GZIPPED[60:],
    "negative-dim": struct.pack(">iiii", 0x803, 40, -1, 28) + bytes(40 * 784),
    "huge-dims": struct.pack(">iiii", 0x803, *[2**31 - 1] * 3) + bytes(16),
}
# (file, bytes) of more malformed IDX files: a train-images file of 2 bytes,
# one cut off inside its dimensions, and train labels with a 10
LATER_BAD_IDX = {
    "two-bytes": ("train-images-idx3-ubyte", b"\x00\x08"),
    "cut-dims": ("train-images-idx3-ubyte", struct.pack(">ii", 0x803, 40)),
    "label-ten": ("train-labels-idx1-ubyte",
                  struct.pack(">ii", 0x801, 40) + bytes([10] + [i % 10 for i in range(1, 40)])),
}


def _write_bad_images(directory):
    # each directory holds a valid train and t10k pair, one of whose files is
    # then replaced by a malformed one
    cases = {name: ("train-images-idx3-ubyte", blob) for name, blob in BAD_IMAGES.items()}
    for name, (file, blob) in {**cases, **LATER_BAD_IDX}.items():
        _write_random_mnist(directory / name)
        (directory / name / file).write_bytes(blob)


TRAIN = ["train", "--task", "moons", "--updates", "2", "--out-prefix", "{tmp}/x"]
GRID = ["grid", "--task", "moons", "--methods", "mle", "--updates", "2", "--n-val", "10",
        "--n-test", "10", "--grid-reps", "1", "--reps", "1"]
BOUNDARY = ["boundary", "--checkpoint", "{tmp}/net.ckpt.npz", "--embedding", "{tmp}/emb.npz",
            "--resolution", "5", "--out", "{tmp}/plot", "--train-csv"]
# --train-csv files for BOUNDARY: header only, one row (zero span), a non-numeric cell,
# a valid one, a label of 2, and all points at one x
POINTS_CSV = {"header.csv": "x0,x1,label\n",
              "one-row.csv": "x0,x1,label\n0.5,0.25,1\n",
              "text.csv": "x0,x1,label\n0.5,0.25,1\n-0.5,x,0\n",
              "two-rows.csv": "x0,x1,label\n0.5,0.25,1\n-0.5,-0.75,0\n",
              "label-two.csv": "x0,x1,label\n0.5,0.25,2\n-0.5,-0.75,0\n",
              "one-x.csv": "x0,x1,label\n0.5,0.25,1\n0.5,-0.75,0\n"}


@pytest.mark.parametrize("argv, code", [
    (TRAIN + ["--reg", "vat", "--epsilon", "nan"], 2),
    (TRAIN + ["--reg", "vat", "--epsilon", "inf"], 2),
    (TRAIN + ["--reg", "vat", "--xi", "nan"], 2),
    (TRAIN + ["--reg", "vat", "--weight", "nan"], 2),
    (TRAIN + ["--reg", "random", "--epsilon", "inf"], 2),
    (TRAIN + ["--reg", "adv-l2", "--weight=-inf"], 2),
    (TRAIN + ["--reg", "l2", "--weight", "nan"], 2),
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/empty.npz"], 4),
    (["boundary", "--checkpoint", "{tmp}/empty.npz", "--embedding", "{tmp}/empty.npz",
      "--train-csv", "{tmp}/empty.npz", "--out", "{tmp}/plot"], 4),
    (TRAIN + ["--reg", "vat", "--weight=-1"], 2),
    (TRAIN + ["--reg", "l2", "--weight=-1"], 2),
    (TRAIN + ["--config", "{tmp}/bad.cfg"], 2),
    (TRAIN + ["--hidden", "7,x"], 2),
    (TRAIN + ["--hidden", "0"], 2),
    (BOUNDARY + ["{tmp}/header.csv"], 4),
    (BOUNDARY + ["{tmp}/one-row.csv"], 4),
    (BOUNDARY + ["{tmp}/text.csv"], 4),
    # a synthetic model scored without its embedding would be scored on a new plane
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/net.ckpt.npz"], 2),
    (BOUNDARY + ["{tmp}/two-rows.csv", "--resolution", "0"], 2),
    (BOUNDARY + ["{tmp}/two-rows.csv", "--resolution=-3"], 2),
    (BOUNDARY + ["{tmp}/two-rows.csv", "--resolution", "1"], 2),
    (["train", "--task", "mnist-semisup", "--mnist-dir", "{tmp}/mnist", "--n-labeled", "0",
      "--n-validation", "5", "--updates", "1", "--hidden", "8", "--out-prefix", "{tmp}/x"], 2),
    (GRID + ["--reps", "0"], 2),
    (GRID + ["--grid-reps", "0"], 2),
    (TRAIN + ["--eval-every=-1"], 2),
    (TRAIN + ["--n-unlabeled=-4"], 2),
    # an output path in a missing directory, or a directory
    (["gen-data", "--task", "moons", "--n-test", "10", "--out", "{tmp}/missing/d.csv"], 2),
    (["gen-data", "--task", "moons", "--n-test", "10", "--out", "{tmp}"], 2),
    (TRAIN[:-1] + ["{tmp}/missing/x"], 2),
    (BOUNDARY + ["{tmp}/two-rows.csv"] + ["--out", "{tmp}/missing/plot"], 2),
    (GRID + ["--out", "{tmp}/missing/table.csv"], 2),
    # a checkpoint of the other task's input width
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/mnist.ckpt.npz",
      "--embedding", "{tmp}/emb.npz"], 2),
    (["eval", "--task", "mnist", "--mnist-dir", "{tmp}/mnist",
      "--checkpoint", "{tmp}/net.ckpt.npz"], 2),
    (["train", "--task", "mnist-semisup", "--mnist-dir", "{tmp}/mnist", "--n-labeled", "5",
      "--n-validation=-10", "--updates", "1", "--hidden", "8", "--out-prefix", "{tmp}/x"], 2),
    (GRID[:4] + [","], 2),
    (GRID[:4] + [""], 2),
    # malformed checkpoints
    *[(["eval", "--task", "moons", "--checkpoint", f"{{tmp}}/{name}.ckpt.npz",
        "--embedding", "{tmp}/emb.npz"], 4) for name in BAD_CHECKPOINTS],
    (["boundary", "--checkpoint", "{tmp}/nan-weight.ckpt.npz", "--embedding", "{tmp}/emb.npz",
      "--resolution", "5", "--out", "{tmp}/plot", "--train-csv", "{tmp}/two-rows.csv"], 4),
    # malformed IDX files
    *[(["train", "--task", "mnist", "--mnist-dir", f"{{tmp}}/{name}", "--hidden", "8",
        "--updates", "1", "--out-prefix", "{tmp}/x"], 4) for name in BAD_IMAGES],
    # a config file that is not UTF-8 text
    (["audit-cost", "--config", "{tmp}/binary.cfg"], 2),
    # an embedding with a non-zero offset
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/net.ckpt.npz",
      "--embedding", "{tmp}/offset-emb.npz", "--n-test", "10"], 4),
    # requests whose first allocation exceeds 2^57 bytes, the largest user
    # address space: 800 PiB of first-layer weights, 1 EiB of test angles
    (TRAIN + ["--hidden", "1125899906842624"], 2),
    (["gen-data", "--task", "moons", "--n-test", "288230376151711744",
      "--out", "{tmp}/d.csv"], 2),
    # switch values outside 1/true/yes and 0/false/no
    (TRAIN + ["--config", "{tmp}/ture.cfg"], 2),
    (TRAIN + ["--config", "{tmp}/blank-switch.cfg"], 2),
    # a checkpoint with one output, where the synthetic tasks have two classes
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/one-output.ckpt.npz",
      "--embedding", "{tmp}/emb.npz"], 2),
    (["boundary", "--checkpoint", "{tmp}/one-output.ckpt.npz", "--embedding", "{tmp}/emb.npz",
      "--resolution", "5", "--out", "{tmp}/plot", "--train-csv", "{tmp}/two-rows.csv"], 2),
    # settings whose first update overflows
    (TRAIN + ["--reg", "l2", "--weight", "1e308"], 3),
    (TRAIN + ["--reg", "vat", "--epsilon", "1e300"], 3),
    # --hidden is checked before any data is read
    (["train", "--task", "mnist", "--mnist-dir", "{tmp}/nowhere", "--hidden", "0",
      "--out-prefix", "{tmp}/x"], 2),
    # a --train-csv that is a directory, has a label of 2, or has all points at one x
    (BOUNDARY + ["{tmp}"], 4),
    (BOUNDARY + ["{tmp}/label-two.csv"], 4),
    (BOUNDARY + ["{tmp}/one-x.csv"], 4),
    # an embedding of three rows
    (["eval", "--task", "moons", "--checkpoint", "{tmp}/net.ckpt.npz",
      "--embedding", "{tmp}/three-row-emb.npz", "--n-test", "10"], 4),
    *[(["eval", "--task", "moons", "--checkpoint", f"{{tmp}}/{name}.ckpt.npz",
        "--embedding", "{tmp}/emb.npz"], 4) for name in LATER_BAD_CHECKPOINTS],
    *[(["train", "--task", "mnist", "--mnist-dir", f"{{tmp}}/{name}", "--hidden", "8",
        "--updates", "1", "--out-prefix", "{tmp}/x"], 4) for name in LATER_BAD_IDX],
    # a --config flag with no value
    (TRAIN + ["--config"], 2),
])
def test_malformed_input_exit_codes(tmp_path, capsys, argv, code):
    # every malformed invocation exits with its documented code, never a traceback
    (tmp_path / "empty.npz").write_bytes(b"")
    (tmp_path / "bad.cfg").write_text("updates = ten\n")
    (tmp_path / "ture.cfg").write_text("record_lds = ture\n")
    (tmp_path / "blank-switch.cfg").write_text("record_lds =\n")
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\xfa\x00=1")
    nn.save_checkpoint(nn.init_mlp([100, 3, 2], make_rng(0)), tmp_path / "net.ckpt.npz")
    nn.save_checkpoint(nn.init_mlp([784, 3, 10], make_rng(0)), tmp_path / "mnist.ckpt.npz")
    nn.save_checkpoint(nn.init_mlp([100, 3, 1], make_rng(0)), tmp_path / "one-output.ckpt.npz")
    np.savez(tmp_path / "emb.npz", matrix=np.eye(2, 100), offset=np.zeros(100))
    np.savez(tmp_path / "offset-emb.npz", matrix=np.eye(2, 100), offset=np.ones(100))
    np.savez(tmp_path / "three-row-emb.npz", matrix=np.eye(3, 100), offset=np.zeros(100))
    for name, text in POINTS_CSV.items():
        (tmp_path / name).write_text(text)
    _write_bad_checkpoints(tmp_path)
    _write_bad_images(tmp_path)
    _write_random_mnist(tmp_path / "mnist")
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_numeric_failure_prints_its_one_line(tmp_path):
    # the second update overflows; numpy's warnings, each with its source
    # line, would come before the failure's line
    src = os.path.dirname(os.path.dirname(datamod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [a.format(tmp=tmp_path) for a in TRAIN] + ["--reg", "vat", "--epsilon", "1e300"]
    proc = subprocess.run([sys.executable, "-m", "vatlab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numeric failure:")


@pytest.mark.parametrize("argv, module, work", [
    (["gen-data", "--task", "moons", "--out", "{tmp}/missing/d.csv"],
     datamod, "make_synthetic_dataset"),
    (TRAIN[:-1] + ["{tmp}/missing/x"], trainmod, "_train"),
    (GRID + ["--out", "{tmp}/missing/table.csv"], trainmod, "_train"),
    (BOUNDARY + ["{tmp}/two-rows.csv", "--out", "{tmp}/missing/plot"], nn, "load_checkpoint"),
])
def test_output_paths_are_checked_before_any_work(tmp_path, monkeypatch, argv, module, work):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output paths were checked")

    monkeypatch.setattr(module, work, fail)
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2


@pytest.mark.parametrize("argv, owner, writer", [
    (TRAIN, trainmod.TrainRecord, "to_csv"),
    (["boundary", "--checkpoint", "{tmp}/x.ckpt.npz", "--embedding", "{tmp}/x.embedding.npz",
      "--train-csv", "{tmp}/x.train.csv", "--resolution", "5", "--out", "{tmp}/plot"],
     contour, "grid_csv"),
])
def test_a_failed_write_leaves_every_output_as_it_was(tmp_path, capsys, monkeypatch,
                                                      argv, owner, writer):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*(a.format(tmp=tmp_path) for a in TRAIN)) == 0
    assert run_cli(*argv) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(owner, writer, fail)
    with pytest.raises(OSError):
        run_cli(*argv, "--seed", "1")  # a rerun that would write other bytes
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    assert not list(tmp_path.glob(".vatlab-*"))


def test_outputs_follow_the_umask(tmp_path, capsys):
    # the temp files behind every output are made 0600; the outputs are not
    prefix = str(tmp_path / "run")
    old = os.umask(0o022)
    try:
        assert run_cli(*(a.format(tmp=tmp_path) for a in TRAIN[:-1]), prefix) == 0
        assert run_cli("boundary", "--checkpoint", prefix + ".ckpt.npz",
                       "--embedding", prefix + ".embedding.npz",
                       "--train-csv", prefix + ".train.csv", "--resolution", "5",
                       "--out", str(tmp_path / "plot")) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
    assert len(modes) == 7 and set(modes.values()) == {0o644}
