"""Comparison regularizers: adversarial training, random perturbation, L2 decay.

Adversarial perturbations use the one-step linearization of the negative
log-likelihood (fast-gradient method), with either an L-infinity or an L2
norm budget. Random perturbation training reuses the virtual-adversarial
machinery but replaces the searched direction with a uniform one.

KINDS, the one table of regularizer kinds, holds every per-kind decision;
the constructors, the checks and the training step all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn, vat
from .errors import ConfigError
from .numerics import Tensor, as_tensor, normalize_rows, sample_unit_vector
from .vat import VatConfig


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
        d_logits = nn.nll_loss(logits, labels)[1]
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
    loss, d_logits, _ = nn.nll_loss(logits, labels)
    return loss, nn.backward(net, cache, d_logits, input_grad=False, out=out)


def _vat_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    base = nn.predict_proba(net, x) if clean is None else clean[0]
    r = vat.gen_vap(net, x, reg.vat, rng, base=base)
    return vat.vat_backward(net, x, r, base=base, out=out)[0], reg.weight


def _random_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    base = nn.predict_proba(net, x) if clean is None else clean[0]
    r = random_perturbation(x, reg.epsilon, rng)
    return vat.vat_backward(net, x, r, base=base, out=out)[0], reg.weight


def _adversarial_penalty(norm: str):
    def penalty(net, reg, x, y, rng, clean, out) -> tuple:
        # label-requiring kinds never see a separate batch, so clean is set
        r = adv_perturbation(net, x, y, reg.epsilon, norm, grad=clean[1])
        return adv_loss_term(net, x, y, r, out=out)[0], reg.weight
    return penalty


def _l2_penalty(net, reg, x, y, rng, clean, out) -> tuple:
    return l2_penalty(net, reg.weight, out=out)[0], 1.0  # already weighted


@dataclass(frozen=True)
class Kind:
    """What one kind reads and does. penalty(net, reg, x_reg, y, rng, clean,
    out) writes its gradients into the bundle out and returns its value and
    the scale they enter the update with; clean is (probabilities, input
    gradient) of the likelihood pass when that pass ran on x_reg, else None.
    A kind without a penalty carries weight 0."""
    hyperparameters: tuple[str, ...] = ()  # read besides the weight, in this order
    in_vat_config: bool = False            # the hyperparameters live in reg.vat
    needs_labels: bool = False             # cannot regularize unlabeled rows
    drops_inputs: bool = False             # the likelihood runs on dropped-out inputs
    reads_input_grad: bool = False         # the penalty reads clean[1]
    penalty: Callable | None = None


KINDS = {
    "none": Kind(),
    "l2_decay": Kind(penalty=_l2_penalty),
    "dropout": Kind(("keep_prob",), needs_labels=True, drops_inputs=True),
    "random_perturbation": Kind(("epsilon",), penalty=_random_penalty),
    "adversarial_linf": Kind(("epsilon",), needs_labels=True, reads_input_grad=True,
                             penalty=_adversarial_penalty("linf")),
    "adversarial_l2": Kind(("epsilon",), needs_labels=True, reads_input_grad=True,
                           penalty=_adversarial_penalty("l2")),
    "vat": Kind(("epsilon", "xi", "power_iterations"), in_vat_config=True,
                penalty=_vat_penalty),
}

# Regularizer field -> (low, high], the values a kind that reads it accepts
_RANGES = {"epsilon": (0.0, np.inf), "keep_prob": (0.0, 1.0)}


@dataclass
class Regularizer:
    """Exactly one regularization method, with its hyperparameters."""
    kind: str
    weight: float = 1.0           # lambda multiplying the penalty term
    epsilon: float = 0.0          # perturbation radius (perturbation methods)
    keep_prob: float = 1.0        # input keep probability (dropout)
    vat: VatConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        spec = KINDS[self.kind]
        for name in ("weight", "epsilon", "keep_prob"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.weight < 0:
            raise ConfigError(f"weight must be >= 0, got {self.weight}")
        if spec.in_vat_config:
            if self.vat is None:
                raise ConfigError(f"{self.kind} regularizer needs a VatConfig")
            return
        for name in spec.hyperparameters:
            low, high = _RANGES[name]
            if not low < getattr(self, name) <= high:
                raise ConfigError(f"{self.kind} needs {low} < {name} <= {high}, "
                                  f"got {getattr(self, name)}")

    def hyperparameters(self) -> dict:
        """The kind's hyperparameters, name -> value, in table order."""
        spec = KINDS[self.kind]
        source = self.vat if spec.in_vat_config else self
        return {name: getattr(source, name) for name in spec.hyperparameters}


def make_regularizer(kind: str, *, weight: float = 1.0, epsilon: float = 0.5,
                     keep_prob: float = 0.5, xi: float = 1e-6,
                     power_iterations: int = 1) -> Regularizer:
    """The Regularizer of one kind, keeping only the hyperparameters it reads;
    a kind without a penalty carries weight 0."""
    spec = KINDS.get(kind, Kind())  # Regularizer rejects an unknown kind
    given = {"epsilon": epsilon, "keep_prob": keep_prob, "xi": xi,
             "power_iterations": power_iterations}
    params = {name: given[name] for name in spec.hyperparameters}
    weight = weight if spec.penalty else 0.0
    if spec.in_vat_config:
        return Regularizer(kind=kind, weight=weight, vat=VatConfig(**params))
    return Regularizer(kind=kind, weight=weight, **params)
