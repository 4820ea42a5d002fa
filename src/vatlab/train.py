"""Training loops: regularized supervised steps, the two-minibatch
semi-supervised protocol, evaluation, and hyperparameter grid search.

The minimized objective is the mean NLL on the labeled batch plus
weight * mean KL sensitivity (or the chosen baseline penalty) on the
regularizer batch. Both terms average over their own minibatch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, divergence, nn, vat
from .baselines import Regularizer
from .data import Dataset
from .errors import ConfigError, DataError, NumericError
from .numerics import Tensor, log_softmax_unchecked, make_rng
from .optim import Adam, DecaySchedule, MomentumSgd
from .vat import VatConfig

# Smoothness estimates in evaluate() use the fixed probe settings below
# regardless of the training-time configuration.
EVAL_VAT = VatConfig(epsilon=0.5, power_iterations=5)


@dataclass
class TrainConfig:
    input_dim: int
    hidden_sizes: list[int]
    n_classes: int
    regularizer: Regularizer
    optimizer: str = "sgd"                    # "sgd" or "adam"
    schedule: DecaySchedule = field(default_factory=lambda: DecaySchedule(1.0, 0.995, 1))
    momentum: float = 0.9
    batch_size: int = 0                       # 0 = full batch
    reg_batch_size: int = 0                   # 0 = reuse the likelihood batch
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

    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_sizes, self.n_classes]


@dataclass
class TrainRecord:
    """Per-evaluation-point metrics collected during one training run."""
    rows: list[dict] = field(default_factory=list)

    FIELDS = ("update", "train_err", "test_err", "train_lds", "test_lds", "nll", "reg")

    def append(self, **row) -> None:
        for err_key in ("train_err", "test_err"):
            if err_key in row and row[err_key] is not None:
                if not 0.0 <= row[err_key] <= 1.0:
                    raise DataError(f"{err_key} outside [0, 1]")
        self.rows.append(row)

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
        return MomentumSgd(cfg.momentum, cfg.schedule)
    return Adam(cfg.schedule)


def _base(net, x: Tensor, clean):
    """Output distribution at x, taken from the clean logits when given."""
    if clean is None:
        return divergence.base_distribution(net, x)
    return np.exp(log_softmax_unchecked(clean[0]))  # nll_loss checked these logits


def _vat_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    base = _base(net, x, clean)
    r = vat.gen_vap(net, x, reg.vat, rng, base=base)
    value, grads = vat.vat_backward(net, x, r, base=base, out=out)
    return value, grads.parameter_grads(), reg.weight


def _random_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    base = _base(net, x, clean)
    r = baselines.random_perturbation(x, reg.epsilon, rng)
    value, grads = vat.vat_backward(net, x, r, base=base, out=out)
    return value, grads.parameter_grads(), reg.weight


def _adversarial_penalty(norm: str):
    def penalty(net, reg, x, y, rng, clean, out) -> tuple:
        # label-requiring kinds never see a separate batch, so clean is set
        r = baselines.adv_perturbation(net, x, y, reg.epsilon, norm, grad=clean[1])
        value, grads = baselines.adv_loss_term(net, x, y, r, out=out)
        return value, grads.parameter_grads(), reg.weight
    return penalty


def _l2_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    value, grads = baselines.l2_penalty(net, reg.weight)  # already weighted
    return value, grads, 1.0


# kind -> penalty(net, reg, x_reg, y, rng, clean, out) returning the penalty
# value, its parameter gradients and the scale they enter the update with;
# clean is (logits, input gradient) of the step's likelihood pass when that
# pass ran on x_reg, else None, and out is the bundle a penalty pass writes
# its gradients into. Kinds without an entry add no penalty term.
_PENALTIES = {
    "vat": _vat_penalty,
    "random_perturbation": _random_penalty,
    "adversarial_linf": _adversarial_penalty("linf"),
    "adversarial_l2": _adversarial_penalty("l2"),
    "l2_decay": _l2_penalty,
}
# kinds whose penalty reads the likelihood pass's input gradient
_READS_INPUT_GRAD = ("adversarial_linf", "adversarial_l2")


def supervised_step(net, x: Tensor, y: np.ndarray, reg: Regularizer,
                    optimizer, rng: np.random.Generator,
                    x_reg: Tensor | None = None) -> dict:
    """One update; returns the loss components.

    The likelihood runs on (x, y) and the penalty on x_reg, or on x when
    x_reg is None. In that case the penalty reuses the likelihood pass: its
    logits give the base distribution and its input gradient the adversarial
    direction. x_reg may hold unlabeled rows, so label-requiring methods
    reject it.

    The gradients go into the two bundles of net.gradient_buffers(), which
    the first update allocates and later updates overwrite.

    Raises NumericError, before the parameters or the optimizer state change,
    when the NLL or the penalty value is not finite: a non-finite value in any
    pass of the update reaches one of the two.
    """
    if x_reg is not None and reg.needs_labels:
        raise ConfigError(f"{reg.kind} needs labels and cannot regularize unlabeled data")
    lik_out, penalty_out = net.gradient_buffers()
    x_lik = nn.apply_dropout(x, reg.keep_prob, rng) if reg.kind == "dropout" else x
    logits, cache = nn.forward(net, x_lik)
    nll_value, d_logits = nn.nll_loss(logits, y)
    grads = nn.backward(net, cache, d_logits, input_grad=reg.kind in _READS_INPUT_GRAD,
                        out=lik_out)

    reg_value = 0.0
    penalty = _PENALTIES.get(reg.kind)
    if penalty is not None and reg.weight > 0:
        clean = (logits, grads.d_input) if x_reg is None else None
        reg_value, reg_grads, scale = penalty(net, reg, x if x_reg is None else x_reg,
                                              y, rng, clean, penalty_out)
        for g, rg in zip(grads.parameter_grads(), reg_grads):
            rg *= scale  # rounds like g += scale * rg, without the temporary
            g += rg

    if not (math.isfinite(nll_value) and math.isfinite(reg_value)):
        raise NumericError(f"non-finite loss in training update (nll {nll_value}, "
                           f"penalty {reg_value})")
    optimizer.step(net.parameters(), grads.parameter_grads())
    return {"nll": nll_value, "reg": reg_value}


def evaluate(net, x: Tensor, y: np.ndarray | None,
             eval_cfg: VatConfig = EVAL_VAT, rng: np.random.Generator | None = None,
             with_lds: bool = True) -> dict:
    """Error rate (argmax mismatches) and mean smoothness estimate on a split."""
    out = {}
    proba = nn.predict_proba(net, x)
    if y is not None:
        out["error"] = float((proba.argmax(axis=1) != y).mean())
    if with_lds:
        rng = rng if rng is not None else make_rng(0)
        result = vat.generate(net, x, eval_cfg, rng)
        out["mean_lds"] = float(result.lds_estimate.mean())
    return out


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless minibatch index stream; full-batch when batch_size is 0 or >= n."""
    if batch_size == 0 or batch_size >= n:
        while True:
            yield np.arange(n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start:start + batch_size]


def train_supervised(cfg: TrainConfig, train_x: Tensor, train_y: np.ndarray,
                     test_x: Tensor | None = None, test_y: np.ndarray | None = None,
                     net=None, record_lds: bool = False) -> tuple:
    """Train on labeled data only; returns (net, TrainRecord)."""
    rng, eval_rng = make_rng(cfg.seed), _eval_rng(cfg.seed)
    if net is None:
        net = nn.init_mlp(cfg.layer_sizes(), rng)
    optimizer = make_optimizer(cfg)
    record = TrainRecord()
    batches = _batches(train_x.shape[0], cfg.batch_size, rng)
    for update in range(1, cfg.total_updates + 1):
        idx = next(batches)
        losses = supervised_step(net, train_x[idx], train_y[idx], cfg.regularizer,
                                 optimizer, rng)
        if (cfg.eval_every and update % cfg.eval_every == 0) or update == cfg.total_updates:
            record.append(update=update,
                          **_eval_row(net, train_x, train_y, test_x, test_y,
                                      record_lds, eval_rng), **losses)
    net.release_gradient_buffers()
    return net, record


def train_semisup(cfg: TrainConfig, dataset: Dataset,
                  net=None, record_lds: bool = False) -> tuple:
    """Two-minibatch semi-supervised training over a tagged dataset.

    The likelihood batch comes from labeled rows; the regularizer batch is
    drawn uniformly from the union of labeled and unlabeled rows.
    """
    rng, eval_rng = make_rng(cfg.seed), _eval_rng(cfg.seed)
    lab_x, lab_y = dataset.subset("labeled")
    pool_mask = np.isin(dataset.split, ("labeled", "unlabeled"))
    pool_x = dataset.inputs[pool_mask]
    test_x, test_y = (dataset.subset("test") if "test" in dataset.split
                      else (None, None))
    if net is None:
        net = nn.init_mlp(cfg.layer_sizes(), rng)
    optimizer = make_optimizer(cfg)
    record = TrainRecord()
    lab_batches = _batches(lab_x.shape[0], cfg.batch_size, rng)
    reg_size = cfg.reg_batch_size or cfg.batch_size
    reg_batches = _batches(pool_x.shape[0], reg_size, rng)
    for update in range(1, cfg.total_updates + 1):
        li = next(lab_batches)
        ri = next(reg_batches)
        losses = supervised_step(net, lab_x[li], lab_y[li], cfg.regularizer,
                                 optimizer, rng, x_reg=pool_x[ri])
        if (cfg.eval_every and update % cfg.eval_every == 0) or update == cfg.total_updates:
            record.append(update=update,
                          **_eval_row(net, lab_x, lab_y, test_x, test_y,
                                      record_lds, eval_rng), **losses)
    net.release_gradient_buffers()
    return net, record


def _eval_rng(seed: int) -> np.random.Generator:
    """Generator for evaluation probes, independent of the training stream, so
    evaluating never moves the weights."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _eval_row(net, train_x, train_y, test_x, test_y, record_lds, rng) -> dict:
    row = {}
    tr = evaluate(net, train_x, train_y, rng=rng, with_lds=record_lds)
    row["train_err"] = tr["error"]
    row["train_lds"] = tr.get("mean_lds")
    if test_x is not None:
        te = evaluate(net, test_x, test_y, rng=rng, with_lds=record_lds)
        row["test_err"] = te["error"]
        row["test_lds"] = te.get("mean_lds")
    return row


@dataclass
class GridResult:
    best_config: TrainConfig
    best_validation_error: float
    table: list[dict]            # one row per config: mean/sd validation error


def _config_summary(cfg: TrainConfig) -> dict:
    reg = cfg.regularizer
    summary = {"regularizer": reg.kind, "weight": reg.weight}
    if reg.kind == "vat":
        summary.update(epsilon=reg.vat.epsilon, xi=reg.vat.xi,
                       power_iterations=reg.vat.power_iterations)
    elif reg.kind in ("random_perturbation", "adversarial_linf", "adversarial_l2"):
        summary["epsilon"] = reg.epsilon
    elif reg.kind == "dropout":
        summary["keep_prob"] = reg.keep_prob
    summary.update(optimizer=cfg.optimizer, total_updates=cfg.total_updates)
    return summary


def grid_search(configs: list[TrainConfig], make_data, repetitions: int,
                base_seed: int = 0) -> GridResult:
    """Pick the config with the lowest mean validation error.

    make_data(seed) must return (train_x, train_y, val_x, val_y). Each config
    is trained `repetitions` times on freshly drawn data/seeds.
    """
    if not configs:
        raise ConfigError("empty hyperparameter grid")
    table = []
    best = None
    for ci, cfg in enumerate(configs):
        errors = []
        for rep in range(repetitions):
            seed = base_seed + rep
            train_x, train_y, val_x, val_y = make_data(seed)
            run_cfg = replace(cfg, seed=seed * 1000 + ci)
            net, _ = train_supervised(run_cfg, train_x, train_y)
            errors.append(evaluate(net, val_x, val_y, with_lds=False)["error"])
        mean = float(np.mean(errors))
        sd = float(np.std(errors))
        table.append({"config": _config_summary(cfg), "mean_error": mean, "sd_error": sd})
        if best is None or mean < best[0]:
            best = (mean, cfg)
    return GridResult(best_config=best[1], best_validation_error=best[0], table=table)
