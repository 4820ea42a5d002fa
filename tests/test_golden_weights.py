"""Golden weights: fixed training runs must give bitwise the same parameters.

Each run pins a SHA-256 prefix of its trained parameters' bytes and the
final NLL and penalty values, all exact. Digests are not portable across
numpy versions or BLAS kernels, so the table also records the numpy version
and the OpenBLAS configuration it was made with; in any other environment
the tests skip and name both. The GOLDEN runs give the same weights at 1
and at 2 OpenBLAS threads. Semi-supervised random perturbation and VAT,
whose penalty batch has 216 rows, do not, so GOLDEN_ONE_THREAD pins them at
1 thread, set at run time through OpenBLAS's own set_num_threads (the tests
skip when the library has none). GOLDEN_MNIST_SIZE pins four short
784-1200-600-10 ADAM runs on random MNIST-shaped inputs at 1 thread too.
GOLDEN_EVALUATION pins the exact error and mean LDS that train.evaluate
reports for the 14 supervised SGD runs on their test split, the same at 1
and at 2 OpenBLAS threads.

A change that alters the weights on purpose prints the new tables with

    PYTHONPATH=src python tests/test_golden_weights.py

and replaces GOLDEN, GOLDEN_ONE_THREAD, GOLDEN_MNIST_SIZE and GOLDEN_EVALUATION below
with them; the tables are never rewritten by a test.
"""

import functools
import hashlib

import numpy as np
import pytest
from conftest import blas_threads, openblas_config, require_env
from test_acceptance import BENCHMARK_SETTINGS

from vatlab import data as dm
from vatlab.baselines import make_regularizer
from vatlab.numerics import make_rng
from vatlab.optim import DecaySchedule
from vatlab.train import TrainConfig, evaluate, train_semisup, train_supervised

NUMPY = "2.4.6"
OPENBLAS = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"

# run -> (SHA-256 prefix of the parameter bytes, final nll, final reg)
GOLDEN = {
    "moons-none": ("9042e26d", 0.010421195693491422, 0.0),
    "moons-l2_decay": ("a6f14014", 0.01583906511886839, 0.09224687019182673),
    "moons-dropout": ("10613a88", 0.08173600458807942, 0.0),
    "moons-random_perturbation": ("71362d48", 0.06630884014832628, 0.30120012939138535),
    "moons-adversarial_linf": ("c1a8c72f", 0.053888246179902566, 0.37977931394543996),
    "moons-adversarial_l2": ("e7c87153", 0.10503966994381858, 0.5074768750345815),
    "moons-vat": ("db311a17", 0.056127954230283814, 0.22651886086091017),
    "moons-semisup-none": ("1a89899a", 0.019058958297429405, 0.0),
    "moons-semisup-l2_decay": ("1e20a988", 0.024237171532781866, 0.09713005175822034),
    "moons-adam-vat": ("abeb75c2", 0.15009902811007808, 0.2428651981804918),
    "circles-none": ("eee98b1e", 0.008719283684224519, 0.0),
    "circles-l2_decay": ("ef3cc6a9", 0.009238539014469868, 0.013180212101842975),
    "circles-dropout": ("a5f40379", 0.0244259834817553, 0.0),
    "circles-random_perturbation": ("e29b0711", 0.02197829570026129, 0.2315364754157722),
    "circles-adversarial_linf": ("5b3885d8", 0.0009794740576976792, 0.007940967551517528),
    "circles-adversarial_l2": ("617a40c5", 0.0001199494631563429, 0.06786020193566761),
    "circles-vat": ("ffc1708a", 0.005503248583891852, 0.11030510957142675),
    "circles-semisup-none": ("8a95422b", 0.01627861298110266, 0.0),
    "circles-semisup-l2_decay": ("8fb671c3", 0.016795112527010308, 0.012846922507799959),
    "circles-adam-vat": ("9f555983", 0.03422588074286156, 0.14061972186240454),
}

# the same, for runs made at 1 OpenBLAS thread
GOLDEN_ONE_THREAD = {
    "moons-semisup-random_perturbation": ("5639c149", 0.10614682634128167, 0.18668278460200563),
    "moons-semisup-vat": ("81b92f49", 0.16666373356552167, 0.11194843740840932),
    "circles-semisup-random_perturbation": ("a5c8061a", 0.046980856406748, 0.14462639487982332),
    "circles-semisup-vat": ("3b7e30a0", 0.05636534554532356, 0.15194217498216586),
}

# the same, for the 784-1200-600-10 runs, made at 1 OpenBLAS thread
GOLDEN_MNIST_SIZE = {
    "mnist-size-none": ("732edac6", 2.889382300389832, 0.0),
    "mnist-size-vat": ("94fd988f", 2.752123727825003, 0.1226825780901168),
    "mnist-size-semisup-vat": ("b984b444", 4.576883403128719, 0.0112050201854523),
    "mnist-size-l2_decay": ("c9b9c6e9", 2.8278453005933994, 0.17610730990710483),
}

# task-kind run -> (error, mean LDS) of evaluate(net, test_x, test_y,
# rng=make_rng(99)) on the 1000 test rows of its data seed 0
GOLDEN_EVALUATION = {
    "circles-adversarial_l2": (0.026, -3.9013926870956386),
    "circles-adversarial_linf": (0.129, -2.973939616051516),
    "circles-dropout": (0.103, -2.3811306626049538),
    "circles-l2_decay": (0.167, -2.5693735018048165),
    "circles-none": (0.167, -2.616751156176245),
    "circles-random_perturbation": (0.1, -1.5755511941514038),
    "circles-vat": (0.041, -2.105170739826867),
    "moons-adversarial_l2": (0.0, -0.21939483133074436),
    "moons-adversarial_linf": (0.0, -0.37234917046235877),
    "moons-dropout": (0.01, -1.0891530782450067),
    "moons-l2_decay": (0.019, -0.8583823322748029),
    "moons-none": (0.023, -1.0542882532961957),
    "moons-random_perturbation": (0.0, -0.3382070852324625),
    "moons-vat": (0.001, -0.1958792534172041),
}


@functools.cache
def _dataset(task, seed, n_unlabeled=0):
    return dm.make_synthetic_dataset(task, make_rng(seed), n_unlabeled=n_unlabeled)[0]


def _config(task, kind, **kwargs):
    reg = make_regularizer(kind, **BENCHMARK_SETTINGS[task].get(kind, {}))
    return TrainConfig(input_dim=100, hidden_sizes=[100], n_classes=2,
                       regularizer=reg, **kwargs)


@functools.cache
def train_run(name):
    """(net, record) of one pinned run, made once per session.

    task-kind: data seed 0, 1000 SGD updates, train seed 7, acceptance settings;
    task-semisup-kind: data seed 1 with 200 unlabeled rows, 200 updates, seed 8;
    task-adam-vat: VAT under ADAM DecaySchedule(0.002, 0.9, 500), 300 updates, seed 7.
    """
    task, _, rest = name.partition("-")
    if rest.startswith("semisup-"):
        cfg = _config(task, rest.removeprefix("semisup-"), total_updates=200, seed=8)
        return train_semisup(cfg, _dataset(task, 1, n_unlabeled=200))
    x, y = _dataset(task, 0).subset("labeled")
    if rest == "adam-vat":
        cfg = _config(task, "vat", optimizer="adam", total_updates=300, seed=7,
                      schedule=DecaySchedule(0.002, 0.9, 500))
    else:
        cfg = _config(task, rest, total_updates=1000, seed=7)
    return train_supervised(cfg, x, y)


@functools.cache
def _mnist_shaped():
    """400 random 784-pixel rows with random labels 0-9; as a tagged dataset,
    the first 100 rows are labeled and the other 300 unlabeled."""
    rng = make_rng(2026)
    x, y = rng.random((400, 784)), rng.integers(0, 10, 400)
    split = np.array(["labeled"] * 100 + ["unlabeled"] * 300)
    return x, y, dm.Dataset(x, np.where(split == "labeled", y, -1), split)


MNIST_SIZE_SETTINGS = {
    "none": {},
    "vat": {"epsilon": 2.0},
    "semisup-vat": {"epsilon": 0.3},
    "l2_decay": {"weight": 1e-4},
}


def mnist_size_run(name):
    """(net, record) of one mnist-size-kind run: a 784-1200-600-10 net under
    ADAM DecaySchedule(0.002, 0.9, 500), batch 100, 5 updates, seed 7; the
    semi-supervised VAT run draws a 250-row regularizer batch from all 400 rows."""
    rest = name.removeprefix("mnist-size-")
    semisup = rest.startswith("semisup-")
    reg = make_regularizer(rest.removeprefix("semisup-"), **MNIST_SIZE_SETTINGS[rest])
    cfg = TrainConfig(input_dim=784, hidden_sizes=[1200, 600], n_classes=10,
                      regularizer=reg, optimizer="adam",
                      schedule=DecaySchedule(0.002, 0.9, 500), batch_size=100,
                      reg_batch_size=250 if semisup else 0, total_updates=5, seed=7)
    x, y, dataset = _mnist_shaped()
    return train_semisup(cfg, dataset) if semisup else train_supervised(cfg, x, y)


def _digest(net, record):
    digest = hashlib.sha256(b"".join(p.tobytes() for p in net.parameters())).hexdigest()
    return digest[:8], record.final["nll"], record.final["reg"]


def fingerprint(name):
    return _digest(*train_run(name))


def evaluation(name):
    net, _ = train_run(name)
    test_x, test_y = _dataset(name.partition("-")[0], 0).subset("test")
    result = evaluate(net, test_x, test_y, rng=make_rng(99))
    return result["error"], result["mean_lds"]


def fingerprint_one_thread(name):
    with blas_threads(1):
        return fingerprint(name)


def fingerprint_mnist_size(name):
    with blas_threads(1):
        return _digest(*mnist_size_run(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_weights_match_golden(name):
    require_env(NUMPY, OPENBLAS, "weights")
    assert fingerprint(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_ONE_THREAD))
def test_one_thread_weights_match_golden(name):
    require_env(NUMPY, OPENBLAS, "weights")
    assert fingerprint_one_thread(name) == GOLDEN_ONE_THREAD[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_MNIST_SIZE))
def test_mnist_size_weights_match_golden(name):
    require_env(NUMPY, OPENBLAS, "weights")
    assert fingerprint_mnist_size(name) == GOLDEN_MNIST_SIZE[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_EVALUATION))
def test_evaluation_matches_golden(name):
    require_env(NUMPY, OPENBLAS, "evaluations")
    assert evaluation(name) == GOLDEN_EVALUATION[name]


def _print_table(title, table, row_fn):
    print(f"{title} = {{")
    for run in table:
        values = ", ".join(f'"{v}"' if isinstance(v, str) else repr(v) for v in row_fn(run))
        print(f'    "{run}": ({values}),')
    print("}")


if __name__ == "__main__":
    print(f'NUMPY = "{np.__version__}"')
    print(f'OPENBLAS = "{openblas_config()}"')
    print()
    print("# run -> (SHA-256 prefix of the parameter bytes, final nll, final reg)")
    _print_table("GOLDEN", GOLDEN, fingerprint)
    print()
    print("# the same, for runs made at 1 OpenBLAS thread")
    _print_table("GOLDEN_ONE_THREAD", GOLDEN_ONE_THREAD, fingerprint_one_thread)
    print()
    print("# the same, for the 784-1200-600-10 runs, made at 1 OpenBLAS thread")
    _print_table("GOLDEN_MNIST_SIZE", GOLDEN_MNIST_SIZE, fingerprint_mnist_size)
    print()
    print("# task-kind run -> (error, mean LDS) of evaluate(net, test_x, test_y,")
    print("# rng=make_rng(99)) on the 1000 test rows of its data seed 0")
    _print_table("GOLDEN_EVALUATION", GOLDEN_EVALUATION, evaluation)
