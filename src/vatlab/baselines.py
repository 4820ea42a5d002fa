"""Comparison regularizers: adversarial training, random perturbation, L2 decay.

Adversarial perturbations use the one-step linearization of the negative
log-likelihood (fast-gradient method), with either an L-infinity or an L2
norm budget. Random perturbation training reuses the virtual-adversarial
machinery but replaces the searched direction with a uniform one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError
from .numerics import Tensor, as_tensor, normalize_rows, sample_unit_vector
from .vat import VatConfig

REGULARIZER_KINDS = (
    "none", "l2_decay", "dropout", "random_perturbation",
    "adversarial_linf", "adversarial_l2", "vat",
)

# kind -> the hyperparameters a Regularizer of that kind reads besides its
# weight (VAT's live in its VatConfig); kinds without an entry read none
HYPERPARAMETERS = {
    "vat": ("epsilon", "xi", "power_iterations"),
    "random_perturbation": ("epsilon",),
    "adversarial_linf": ("epsilon",),
    "adversarial_l2": ("epsilon",),
    "dropout": ("keep_prob",),
}


@dataclass
class Regularizer:
    """Exactly one regularization method, with its hyperparameters."""
    kind: str
    weight: float = 1.0           # lambda multiplying the penalty term
    epsilon: float = 0.0          # perturbation radius (perturbation methods)
    keep_prob: float = 1.0        # input keep probability (dropout)
    vat: VatConfig | None = None

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        for name in ("weight", "epsilon", "keep_prob"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.weight < 0:
            raise ConfigError(f"weight must be >= 0, got {self.weight}")
        if self.kind == "vat" and self.vat is None:
            raise ConfigError("vat regularizer needs a VatConfig")
        if self.kind in ("random_perturbation", "adversarial_linf", "adversarial_l2") \
                and self.epsilon <= 0:
            raise ConfigError(f"{self.kind} needs epsilon > 0")
        if self.kind == "dropout" and not 0.0 < self.keep_prob <= 1.0:
            raise ConfigError("dropout keep_prob must be in (0, 1]")

    @property
    def needs_labels(self) -> bool:
        """True for methods that cannot run on unlabeled data."""
        return self.kind in ("dropout", "adversarial_linf", "adversarial_l2")

    def hyperparameters(self) -> dict:
        """The kind's HYPERPARAMETERS, name -> value, in table order."""
        source = self.vat if self.kind == "vat" else self
        return {name: getattr(source, name) for name in HYPERPARAMETERS.get(self.kind, ())}


def make_regularizer(kind: str, *, weight: float = 1.0, epsilon: float = 0.5,
                     keep_prob: float = 0.5, xi: float = 1e-6,
                     power_iterations: int = 1) -> Regularizer:
    """The Regularizer of one kind, keeping only its HYPERPARAMETERS; "none"
    and dropout add no penalty, so they carry weight 0."""
    given = {"epsilon": epsilon, "keep_prob": keep_prob, "xi": xi,
             "power_iterations": power_iterations}
    params = {name: given[name] for name in HYPERPARAMETERS.get(kind, ())}
    if kind in ("none", "dropout"):
        weight = 0.0
    if kind == "vat":
        return Regularizer(kind="vat", weight=weight, vat=VatConfig(**params))
    return Regularizer(kind=kind, weight=weight, **params)


def adv_perturbation(net, x: Tensor, labels: np.ndarray, epsilon: float,
                     norm: str = "l2", grad: Tensor | None = None) -> Tensor:
    """One-step adversarial perturbation of the NLL at (x, labels).

    linf: epsilon * sign(grad); l2: epsilon * grad / ||grad|| per row.
    Rows with a vanishing gradient get a zero perturbation. grad is the NLL's
    input gradient at (x, labels) when the caller has already computed it;
    otherwise one forward/backward pair computes it here.
    """
    if norm not in ("linf", "l2"):
        raise ConfigError(f"norm must be linf or l2, got {norm!r}")
    if grad is None:
        logits, cache = nn.forward(net, x)
        _, d_logits = nn.nll_loss(logits, labels)
        grad = nn.backward(net, cache, d_logits, param_grads=False).d_input
    if norm == "linf":
        return epsilon * np.sign(grad)
    return epsilon * normalize_rows(grad)


def random_perturbation(x: Tensor, epsilon: float, rng: np.random.Generator) -> Tensor:
    """Per-row epsilon-sized directions sampled uniformly from the unit sphere."""
    x = as_tensor(x)
    return epsilon * sample_unit_vector(rng, x.shape[1], x.shape[0])


def l2_penalty(net, lam: float, *, out: nn.GradientBundle | None = None
               ) -> tuple[float, nn.GradientBundle]:
    """(lam/2) * sum of squared weights and its gradient: lam * W for each
    weight array, zero for the biases, which are excluded.

    The gradients are written into out, or into a new net.zero_gradients()
    bundle, which is returned.
    """
    if lam < 0:
        raise ConfigError("l2 weight must be >= 0")
    bundle = out if out is not None else net.zero_gradients()
    penalty = 0.0
    for layer, dw, db in zip(net.layers, bundle.d_weights, bundle.d_biases):
        w = layer.weights
        # the weight gradient's array holds W ** 2 for the sum first
        np.multiply(w, w, out=dw)
        penalty += 0.5 * lam * float(dw.sum())
        np.multiply(w, lam, out=dw)
        db.fill(0.0)
    return penalty, bundle


def adv_loss_term(net, x: Tensor, labels: np.ndarray, r_adv: Tensor, *,
                  out: nn.GradientBundle | None = None) -> tuple[float, nn.GradientBundle]:
    """NLL at x + r_adv with the perturbation held constant; the bundle
    (out, when given) carries no input gradient (d_input None)."""
    logits, cache = nn.forward(net, x + r_adv)
    loss, d_logits = nn.nll_loss(logits, labels)
    return loss, nn.backward(net, cache, d_logits, input_grad=False, out=out)
