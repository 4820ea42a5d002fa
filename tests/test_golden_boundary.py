"""Golden boundary plots: fixed runs must give bitwise the same picture.

Each run trains a synthetic model through `vatlab train` and draws its
decision boundary through `vatlab boundary`. The table pins SHA-256
prefixes of the SVG bytes and of the probed lattice's `values.tobytes()`
at resolutions 200 and 137; neither digest depends on the CSV text
format, so GOLDEN_CSV pins the whole SHA-256 of one run's CSV bytes at
resolution 200. Like the golden weights, the digests are tied to the numpy
version and the OpenBLAS kernels, so in any other environment the tests
skip and name both.

A change that alters the plots on purpose prints the new table with

    PYTHONPATH=src python tests/test_golden_boundary.py

and replaces GOLDEN and GOLDEN_CSV below with it; the tables are never
rewritten by a test.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest
from conftest import openblas_config, require_env

from vatlab import cli, contour, data as dm, nn

NUMPY = "2.4.6"
OPENBLAS = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
RESOLUTIONS = (200, 137)

# run -> {resolution: (SHA-256 prefix of the SVG bytes, of the grid values' bytes)}
GOLDEN = {
    "moons-mle": {200: ('c477e6d3', '48e0948e'), 137: ('4caa2c33', 'b4888781')},
    "moons-vat": {200: ('c5dbb65d', '0898ca91'), 137: ('1c901f48', 'c9dd6006')},
    "circles-mle": {200: ('4e100dd7', '7bf783e4'), 137: ('fc79b953', 'cf9d69de')},
    "circles-vat": {200: ('cd6eadcd', 'c1ab2d8b'), 137: ('040f2938', '95776ba7')},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def fingerprint(name):
    """Digests of one run: `vatlab train` on task-method (seed 5, 300 updates),
    then `vatlab boundary` and `contour.probe_grid` on the same lattice at
    each resolution."""
    task, method = name.split("-")
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        prefix = os.path.join(tmp, "run")
        assert cli.main(["train", "--task", task, "--reg", method, "--seed", "5",
                         "--updates", "300", "--out-prefix", prefix]) == 0
        net = nn.load_checkpoint(prefix + ".ckpt.npz")
        with np.load(prefix + ".embedding.npz") as npz:
            emb = dm.EmbeddingMap(matrix=npz["matrix"])
        points = np.genfromtxt(prefix + ".train.csv", delimiter=",", skip_header=1)[:, :2]
        for resolution in RESOLUTIONS:
            plot = os.path.join(tmp, f"plot{resolution}")
            assert cli.main(["boundary", "--checkpoint", prefix + ".ckpt.npz",
                             "--embedding", prefix + ".embedding.npz",
                             "--train-csv", prefix + ".train.csv",
                             "--resolution", str(resolution), "--out", plot]) == 0
            grid = contour.probe_grid(net, emb, contour.lattice_bounds(points), resolution)
            with open(plot + ".svg", "rb") as fh:
                out[resolution] = (_sha(fh.read()), _sha(grid.values.tobytes()))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_boundary_matches_golden(name):
    require_env(NUMPY, OPENBLAS, "boundaries")
    assert fingerprint(name) == GOLDEN[name]


# SHA-256 of the boundary CSV bytes of the moons-vat run at resolution 200
GOLDEN_CSV = "4a34713945475fed8afac2dbf012011e6e3956a55666f245698433b8ece91fa6"


def csv_digest():
    """SHA-256 of the CSV `vatlab boundary` writes for moons-vat (seed 5, 300
    updates) at resolution 200."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        prefix = os.path.join(tmp, "run")
        assert cli.main(["train", "--task", "moons", "--reg", "vat", "--seed", "5",
                         "--updates", "300", "--out-prefix", prefix]) == 0
        plot = os.path.join(tmp, "plot")
        assert cli.main(["boundary", "--checkpoint", prefix + ".ckpt.npz",
                         "--embedding", prefix + ".embedding.npz",
                         "--train-csv", prefix + ".train.csv",
                         "--resolution", "200", "--out", plot]) == 0
        with open(plot + ".csv", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def test_boundary_csv_matches_golden():
    require_env(NUMPY, OPENBLAS, "boundaries")
    assert csv_digest() == GOLDEN_CSV


if __name__ == "__main__":
    print(f'NUMPY = "{np.__version__}"')
    print(f'OPENBLAS = "{openblas_config()}"')
    print()
    print("# run -> {resolution: (SHA-256 prefix of the SVG bytes, of the grid values' bytes)}")
    print("GOLDEN = {")
    for run in GOLDEN:
        print(f'    "{run}": {fingerprint(run)!r},')
    print("}")
    print()
    print("# SHA-256 of the boundary CSV bytes of the moons-vat run at resolution 200")
    print(f'GOLDEN_CSV = "{csv_digest()}"')
