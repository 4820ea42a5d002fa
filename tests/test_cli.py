import json
import os

import numpy as np
import pytest

from vatlab import nn
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
        assert header.startswith("x0,") and header.endswith("label")

    def test_deterministic_under_seed(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli("gen-data", "--task", "circles", "--out", a, "--seed", "5")
        run_cli("gen-data", "--task", "circles", "--out", b, "--seed", "5")
        assert open(a).read() == open(b).read()


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

    def test_zero_weight(self, capsys):
        run_cli("audit-cost", "--weight", "0")
        counts = json.loads(capsys.readouterr().out)
        assert (counts["forward"], counts["backward"]) == (0, 0)


class TestGridCommand:
    def test_tiny_grid_table(self, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        code = run_cli("grid", "--task", "moons", "--methods", "mle,vat",
                       "--reps", "2", "--grid-reps", "1", "--updates", "20",
                       "--n-val", "50", "--n-test", "50", "--out", out)
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("method,")
        assert len(lines) == 3

    def test_unknown_method_exits_2(self):
        assert run_cli("grid", "--task", "moons", "--methods", "nope") == 2


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

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("train", "--config", str(cfg), "--task", "moons",
                       "--out-prefix", str(tmp_path / "x")) == 2


TRAIN = ["train", "--task", "moons", "--updates", "2", "--out-prefix", "{tmp}/x"]
BOUNDARY = ["boundary", "--checkpoint", "{tmp}/net.ckpt.npz", "--embedding", "{tmp}/emb.npz",
            "--resolution", "5", "--out", "{tmp}/plot", "--train-csv"]
# --train-csv files for BOUNDARY: header only, one row (zero span), a non-numeric cell
POINTS_CSV = {"header.csv": "x0,x1,label\n",
              "one-row.csv": "x0,x1,label\n0.5,0.25,1\n",
              "text.csv": "x0,x1,label\n0.5,0.25,1\n-0.5,x,0\n"}


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
])
def test_malformed_input_exit_codes(tmp_path, capsys, argv, code):
    # every malformed invocation exits with its documented code, never a traceback
    (tmp_path / "empty.npz").write_bytes(b"")
    (tmp_path / "bad.cfg").write_text("updates = ten\n")
    nn.save_checkpoint(nn.init_mlp([100, 3, 2], make_rng(0)), tmp_path / "net.ckpt.npz")
    np.savez(tmp_path / "emb.npz", matrix=np.eye(2, 100), offset=np.zeros(100))
    for name, text in POINTS_CSV.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == code
    assert "Traceback" not in capsys.readouterr().err
