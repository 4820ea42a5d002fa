"""The CLI's exit-code contract over generated command lines: every
invocation exits 0, 2, 3 or 4 and prints no traceback, whatever numbers and
paths its flags are given."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_data import _write_idx_images, _write_idx_labels

from vatlab import nn
from vatlab.cli import METHOD_NAMES, SYNTH_GRIDS, main
from vatlab.numerics import make_rng

# Integer flags draw from INTS and float flags from FLOATS. Every size that
# allocates or loops (--updates, --n-test, --resolution, --reps, ...) draws
# from SIZES, mostly valid values and none above 2, so one invocation stays
# small. Each list starts with valid values, which hypothesis shrinks towards.
INTS = ["2", "1", "2", "1", "0", "-1", "nan"]
SIZES = ["2", "2", "2", "1", "1", "0", "-1", "nan"]
FLOATS = ["0.5", "1", "2", "0", "-1", "nan", "inf", "-inf", "1e308"]
NUMBERS = {"size": SIZES, "int": INTS, "float": FLOATS}
# path kinds: the flag's valid file, a directory, a file in a missing
# directory, or one of the FILES
PATH_KINDS = ["valid", "valid", "dir", "missing", "empty", "binary"]
# an empty file, and bytes that are neither UTF-8 text nor any vatlab format;
# each is written afresh for every draw, since an output flag may overwrite it
FILES = {"empty": b"", "binary": b"\xff\xfe\xfa\x00=1\n\x80\x1f\x8b"}

# command -> {flag: "size" | "int" | "float" | a valid file name | a list of
# choices}
TASKS = ["moons", "circles"]
CONFIG = {"--config": "seed.cfg", "--seed": "int"}
COMMANDS = {
    "gen-data": {"--task": TASKS, "--out": "out.csv", "--n-test": "size",
                 "--n-train": "int", "--n-unlabeled": "int", **CONFIG},
    "train": {"--task": [*TASKS, "mnist", "mnist-semisup"], "--reg": sorted(METHOD_NAMES),
              "--out-prefix": "out", "--updates": "size", "--n-test": "size",
              "--epsilon": "float", "--weight": "float", "--keep-prob": "float",
              "--ip": "int", "--eval-every": "int",
              "--hidden": "int", "--n-train": "int", "--n-unlabeled": "int",
              "--n-labeled": "int", "--n-validation": "int",
              "--record-lds": [], "--mnist-dir": "mnist", **CONFIG},
    "eval": {"--task": [*TASKS, "mnist"], "--checkpoint": "net.ckpt.npz",
             "--embedding": "emb.npz", "--n-test": "size", "--mnist-dir": "mnist", **CONFIG},
    "boundary": {"--checkpoint": "net.ckpt.npz", "--embedding": "emb.npz",
                 "--train-csv": "points.csv", "--out": "plot", "--resolution": "size",
                 **CONFIG},
    "grid": {"--task": TASKS, "--methods": ["mle", "vat,adv-l2", ",".join(SYNTH_GRIDS), ""],
             "--updates": "size", "--n-val": "size", "--n-test": "size",
             "--reps": "size", "--grid-reps": "size", "--n-train": "int",
             "--ip": "int", "--out": "table.csv", **CONFIG},
    "audit-cost": {"--ip": "int", **CONFIG},
}
# flags given on every invocation: the required ones, the embedding (eval
# exits 2 without it), and the sizes, so that none takes its large default;
# each other flag is given in one draw of four
ALWAYS = {"--task", "--checkpoint", "--embedding", "--train-csv", "--out", "--out-prefix",
          "--updates", "--n-test", "--resolution", "--n-val", "--reps", "--grid-reps"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "seed.cfg").write_text("seed = 1\n")
    nn.save_checkpoint(nn.init_mlp([100, 3, 2], make_rng(0)), root / "net.ckpt.npz")
    np.savez(root / "emb.npz", matrix=np.eye(2, 100), offset=np.zeros(100))
    (root / "points.csv").write_text("x0,x1,label\n0.5,0.25,1\n-0.5,-0.75,0\n")
    (root / "mnist").mkdir()
    for split in ("train", "t10k"):  # 40 random 28x28 images
        _write_idx_images(root / "mnist" / f"{split}-images-idx3-ubyte",
                          make_rng(0).integers(0, 256, (40, 28, 28), dtype=np.uint8))
        _write_idx_labels(root / "mnist" / f"{split}-labels-idx1-ubyte",
                          [i % 10 for i in range(40)])
    return root


@st.composite
def command_lines(draw):
    """An argv whose path arguments are (valid file name, path kind) pairs,
    which _resolve turns into paths in the fixture's directory."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, spec in COMMANDS[command].items():
        if flag not in ALWAYS and draw(st.integers(0, 3)):
            continue
        if isinstance(spec, list):
            argv += [flag, *([draw(st.sampled_from(spec))] if spec else [])]
        elif spec in NUMBERS:  # one token, or argparse takes "-inf" for a flag
            argv.append(f"{flag}={draw(st.sampled_from(NUMBERS[spec]))}")
        else:
            argv += [flag, (spec, draw(st.sampled_from(PATH_KINDS)))]
    return argv


def _resolve(arg, root) -> str:
    if isinstance(arg, str):
        return arg
    valid, kind = arg
    if kind in FILES:
        (root / kind).write_bytes(FILES[kind])
    return str({"dir": root, "missing": root / "missing" / valid, "empty": root / "empty",
                "binary": root / "binary", "valid": root / valid}[kind])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(argv=command_lines())
def test_generated_command_lines_keep_the_exit_code_contract(files, argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([_resolve(arg, files) for arg in argv])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
