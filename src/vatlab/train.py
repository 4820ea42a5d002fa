"""Training: the regularized update step, one training loop for supervised
and two-minibatch semi-supervised runs, evaluation, the repetition loop over
seeds, and hyperparameter grid search.

The minimized objective is the mean NLL on the labeled batch plus
weight * mean KL sensitivity (or the chosen baseline penalty) on the
regularizer batch. Both terms average over their own minibatch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import baselines, divergence, nn, numerics, vat
from .baselines import Regularizer
from .data import Dataset
from .errors import ConfigError, NumericError
from .numerics import Tensor, make_rng, softmax
from .optim import Adam, DecaySchedule, MomentumSgd
from .vat import VatConfig

# Smoothness estimates in evaluate() use the fixed probe settings below
# regardless of the training-time configuration.
EVAL_VAT = VatConfig(epsilon=0.5, power_iterations=5)
# Rows per evaluate() block. The synthetic splits, the boundary's training
# points and the pinned MNIST digests fit in one block, so their results do
# not depend on how OpenBLAS rounds a product of fewer rows.
EVAL_BLOCK = 2048
# Rows times parameters of the smallest likelihood pass whose backward runs on
# a second thread beside the penalty. With OpenBLAS at 1 thread on a 2-vCPU
# host an overlapped VAT update took 2.4x the serial time at 0.16M, 1.1-1.2x
# at 4M, 1.0-1.07x at 8M and 0.81-1.03x from 16M up; CHANGES.md has the sweep.
OVERLAP_MACS = 1 << 24


@dataclass
class TrainConfig:
    input_dim: int
    hidden_sizes: list[int]
    n_classes: int
    regularizer: Regularizer
    optimizer: str = "sgd"                    # "sgd" or "adam"
    schedule: DecaySchedule = field(default_factory=lambda: DecaySchedule(1.0, 0.995, 1))
    batch_size: int = 0                       # 0 = full batch
    reg_batch_size: int = 0                   # semi-supervised pool batch; 0 = the whole pool
    total_updates: int = 1000
    eval_every: int = 0                       # 0 = final evaluation only
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.total_updates < 1:
            raise ConfigError("total_updates must be >= 1")
        if self.batch_size < 0 or self.reg_batch_size < 0:
            raise ConfigError("batch sizes must be >= 0")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")

    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_sizes, self.n_classes]


@dataclass
class TrainRecord:
    """Per-evaluation-point metrics collected during one training run."""
    rows: list[dict] = field(default_factory=list)

    FIELDS = ("update", "train_err", "test_err", "train_lds", "test_lds", "nll", "reg")

    @property
    def final(self) -> dict:
        return self.rows[-1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.FIELDS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k) for k in self.FIELDS})


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return MomentumSgd(cfg.schedule)
    return Adam(cfg.schedule)


def supervised_step(net, x: Tensor, y: np.ndarray, reg: Regularizer,
                    optimizer, rng: np.random.Generator,
                    x_reg: Tensor | None = None, *,
                    out: tuple[nn.GradientBundle, nn.GradientBundle] | None = None) -> dict:
    """One update; returns the loss components.

    The likelihood runs on (x, y) and the penalty on x_reg, or on x when
    x_reg is None. In that case the penalty reuses the likelihood pass: its
    probabilities are the base distribution, its cache the search's clean
    pass and its input gradient the adversarial direction. x_reg may hold
    unlabeled rows, so label-requiring methods reject it. The regularizer's
    baselines.KINDS entry, looked up once, says whether the likelihood inputs
    are dropped out, whether that pass computes its input gradient, and which
    penalty runs.

    The likelihood and penalty gradients go into the two bundles of out,
    which the training loop makes once with net.zero_gradients() and every
    update overwrites; without out, into two new ones. The penalty's vector
    is added into the likelihood's in one call, and the optimizer moves the
    parameter vector in one call.

    When the penalty runs and reads no input gradient, the likelihood pass
    has at least OVERLAP_MACS rows times parameters and numerics.spare_core()
    holds, the likelihood's backward runs on a thread of its own
    (numerics.start_thread) while the penalty runs on the caller's; where no
    thread can be started, on the caller's before the penalty. The step
    joins it before it returns or raises, and raises what it raised. Each
    array is computed as in the serial order, so the bits are the same.

    Raises NumericError, before the parameters or the optimizer state change,
    when the NLL or the penalty value is not finite: a non-finite value in any
    pass of the update reaches one of the two.
    """
    kind = baselines.KINDS[reg.kind]
    if x_reg is not None and kind.needs_labels:
        raise ConfigError(f"{reg.kind} needs labels and cannot regularize unlabeled data")
    lik_out, penalty_out = out or (net.zero_gradients(), net.zero_gradients())
    x_lik = nn.apply_dropout(x, reg.keep_prob, rng) if kind.drops_inputs else x
    logits, cache = nn.forward(net, x_lik)
    nll_value, d_logits, proba = nn.nll_loss(logits, y)
    penalized = kind.penalty is not None and reg.weight > 0
    worker, raised, d_input = None, [], None
    if (penalized and not kind.reads_input_grad  # the penalty reads neither result
            and d_logits.shape[0] * net.parameter_vector.size >= OVERLAP_MACS
            and numerics.spare_core()):
        worker, raised = numerics.start_thread("vatlab-likelihood-backward", nn.backward,
                                               net, cache, d_logits, out=lik_out,
                                               input_grad=False)
    if worker is None:
        d_input = nn.backward(net, cache, d_logits, out=lik_out,
                              input_grad=kind.reads_input_grad)

    reg_value = 0.0
    try:
        if penalized:
            clean = (proba, d_input, cache) if x_reg is None else None
            reg_value, scale = kind.penalty(net, reg, x if x_reg is None else x_reg,
                                            y, rng, clean, penalty_out)
            pen = penalty_out.vector
            pen *= scale  # rounds like lik += scale * pen, without the temporary
    finally:
        if worker is not None:
            worker.join()
    if raised:
        raise raised[0]
    if penalized:
        lik_out.vector += pen

    if not (math.isfinite(nll_value) and math.isfinite(reg_value)):
        raise NumericError(f"non-finite loss in training update (nll {nll_value}, "
                           f"penalty {reg_value})")
    optimizer.step(net.parameter_vector, lik_out.vector)
    return {"nll": nll_value, "reg": reg_value}


def evaluate(net, x: Tensor, y: np.ndarray | None,
             rng: np.random.Generator | None = None, with_lds: bool = True) -> dict:
    """Error rate (argmax mismatches) and mean smoothness estimate, the mean
    of -delta_kl at the perturbation found with EVAL_VAT, on a split. The
    predicted probabilities are the estimate's base distribution. The split
    runs in blocks of EVAL_BLOCK rows, so memory does not grow with it; the
    blocks' direction draws are consecutive draws from rng, which equal one
    draw for the whole split."""
    if with_lds and rng is None:
        rng = make_rng(0)
    n = x.shape[0]
    wrong, lds_sums = 0, []
    for start in range(0, n, EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK)
        logits, cache = nn.forward(net, x[rows])
        proba = softmax(logits)
        if y is not None:
            wrong += int(np.count_nonzero(proba.argmax(axis=1) != y[rows]))
        if with_lds:
            r_vadv = vat.gen_vap(net, cache, EVAL_VAT, rng, base=proba)
            lds_sums.append(np.add.reduce(-divergence.delta_kl(net, cache.x, r_vadv, proba)))
        del cache  # the next block's forward runs without this block's activations
    out = {}
    if y is not None:
        out["error"] = wrong / n if n else math.nan  # an empty split, as numpy's mean
    if with_lds:
        out["mean_lds"] = float(np.add.reduce(lds_sums) / n) if n else math.nan
    return out


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless minibatch index stream; full-batch when batch_size is 0 or >= n,
    as slice(None), so a full batch reads views instead of copies."""
    if batch_size == 0 or batch_size >= n:
        while True:
            yield slice(None)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start:start + batch_size]


def train_supervised(cfg: TrainConfig, train_x: Tensor, train_y: np.ndarray,
                     test_x: Tensor | None = None, test_y: np.ndarray | None = None,
                     record_lds: bool = False) -> tuple:
    """Train on labeled data only; returns (net, TrainRecord)."""
    return _train(cfg, train_x, train_y, None, test_x, test_y, record_lds)


def train_semisup(cfg: TrainConfig, dataset: Dataset, test_x: Tensor | None = None,
                  test_y: np.ndarray | None = None, record_lds: bool = False) -> tuple:
    """Two-minibatch semi-supervised training over a tagged dataset; returns
    (net, TrainRecord).

    The likelihood batch comes from labeled rows; the regularizer batch is
    drawn uniformly from the union of labeled and unlabeled rows. Rows tagged
    validation or test are not read; the test split, as in train_supervised,
    is test_x and test_y.
    """
    lab_x, lab_y = dataset.subset("labeled")
    pool = np.flatnonzero(np.isin(dataset.split, ("labeled", "unlabeled")))
    return _train(cfg, lab_x, lab_y, (dataset.inputs, pool), test_x, test_y, record_lds)


def _pool_batches(inputs: Tensor, rows: np.ndarray, batch_size: int,
                  rng: np.random.Generator):
    """Endless regularizer batches of inputs[rows], drawn as _batches draws
    them: a minibatch gathers its own rows, the whole pool is gathered once."""
    for idx in _batches(rows.size, batch_size, rng):
        if isinstance(idx, slice):  # every batch is the whole pool
            yield from repeat(inputs[rows])
        yield inputs[rows[idx]]


def _train(cfg: TrainConfig, x: Tensor, y: np.ndarray, pool: tuple | None,
           test_x: Tensor | None, test_y: np.ndarray | None, record_lds: bool) -> tuple:
    """The training loop. Each update draws a likelihood batch of (x, y), then
    a regularizer batch of pool = (inputs, rows), the given rows of inputs;
    with no pool (supervised training) the penalty reuses the likelihood batch.
    Every update writes its gradients into the same two bundles."""
    rng, eval_rng = make_rng(cfg.seed), _eval_rng(cfg.seed)
    net = nn.init_mlp(cfg.layer_sizes(), rng)
    grads = (net.zero_gradients(), net.zero_gradients())
    optimizer = make_optimizer(cfg)
    record = TrainRecord()
    batches = _batches(x.shape[0], cfg.batch_size, rng)
    reg_batches = repeat(None) if pool is None else _pool_batches(*pool, cfg.reg_batch_size, rng)
    for update in range(1, cfg.total_updates + 1):
        idx = next(batches)
        losses = supervised_step(net, x[idx], y[idx], cfg.regularizer, optimizer, rng,
                                 x_reg=next(reg_batches), out=grads)
        if (cfg.eval_every and update % cfg.eval_every == 0) or update == cfg.total_updates:
            row = _eval_row(net, x, y, test_x, test_y, record_lds, eval_rng)
            record.rows.append({"update": update, **row, **losses})
    return net, record


def _eval_rng(seed: int) -> np.random.Generator:
    """Generator for evaluation probes, independent of the training stream, so
    evaluating never moves the weights."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _eval_row(net, train_x, train_y, test_x, test_y, record_lds, rng) -> dict:
    row = {}
    for split, x, y in (("train", train_x, train_y), ("test", test_x, test_y)):
        if x is not None:
            result = evaluate(net, x, y, rng=rng, with_lds=record_lds)
            row[f"{split}_err"], row[f"{split}_lds"] = result["error"], result.get("mean_lds")
    return row


def run_errors(cfg: TrainConfig, make_data, seeds) -> list[float]:
    """Held-out error of one supervised run of cfg per (data seed, training
    seed) pair; make_data(data_seed) returns (train_x, train_y, eval_x, eval_y)."""
    errors = []
    for data_seed, train_seed in seeds:
        train_x, train_y, eval_x, eval_y = make_data(data_seed)
        net, _ = train_supervised(replace(cfg, seed=train_seed), train_x, train_y)
        errors.append(evaluate(net, eval_x, eval_y, with_lds=False)["error"])
    return errors


def grid_search(configs: list[TrainConfig], make_data, repetitions: int,
                base_seed: int = 0) -> TrainConfig:
    """The config with the lowest mean validation error, the first on a tie.

    make_data(seed) must return (train_x, train_y, val_x, val_y). Each config
    is trained `repetitions` times on freshly drawn data/seeds.
    """
    if not configs:
        raise ConfigError("empty hyperparameter grid")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    data_seeds = range(base_seed, base_seed + repetitions)
    means = [np.mean(run_errors(cfg, make_data, [(s, s * 1000 + ci) for s in data_seeds]))
             for ci, cfg in enumerate(configs)]
    return configs[means.index(min(means))]
