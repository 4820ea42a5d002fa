"""Virtual-adversarial perturbation search and the smoothness penalty gradient.

The worst-case perturbation inside an epsilon ball is approximated by power
iteration on the (never materialized) Hessian of the KL sensitivity, with
each Hessian-vector product replaced by a finite difference: the sensitivity
gradient evaluated at r = xi * d, divided by xi. Each iteration therefore
costs one forward and one backward pass.

The penalty gradient treats both the perturbation and the base distribution
as constants and backpropagates only through the perturbed forward pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import divergence, nn
from .errors import ConfigError
from .numerics import ZERO_NORM, Tensor, as_tensor, log_softmax_unchecked, sample_unit_vector

log = logging.getLogger(__name__)


@dataclass
class VatConfig:
    epsilon: float          # perturbation radius, input-space L2 units
    xi: float = 1e-6        # finite-difference probe scale
    power_iterations: int = 1

    def __post_init__(self):
        for name in ("epsilon", "xi"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.xi <= 0:
            raise ConfigError(f"xi must be > 0, got {self.xi}")
        if self.power_iterations < 1:
            raise ConfigError(f"power_iterations must be >= 1, got {self.power_iterations}")


def gen_vap(net, x: Tensor, cfg: VatConfig, rng: np.random.Generator,
            base) -> Tensor:
    """Approximate per-row worst-case perturbations of norm cfg.epsilon.

    base is nn.predict_proba(net, x), held constant. Starts
    from a fresh random unit direction per row and runs cfg.power_iterations
    rounds of normalized finite-difference Hessian-vector products. Rows
    where the gradient collapses keep their previous direction (flat model;
    any direction is a valid maximizer). Each round's gradient is divided by
    its norms in place: grad_r_delta_kl returns a new array.
    """
    x = as_tensor(x)
    batch, dim = x.shape
    d = sample_unit_vector(rng, dim, batch)
    for _ in range(cfg.power_iterations):
        grad = divergence.grad_r_delta_kl(net, x, cfg.xi * d, base)
        # what np.linalg.norm(..., axis=1) computes for real rows
        norms = np.sqrt(np.add.reduce(grad * grad, axis=1, keepdims=True))
        degenerate = norms < ZERO_NORM
        if degenerate.any():
            log.debug("gen_vap: %d degenerate rows keep their previous direction",
                      int(degenerate.sum()))
            d = np.where(degenerate, d, grad / np.where(degenerate, 1.0, norms))
        else:
            grad /= norms  # the gradient is this search's own array
            d = grad
    d *= cfg.epsilon  # d is this search's own array
    return d


def vat_backward(net, x: Tensor, r_vadv: Tensor, base, *,
                 out: nn.GradientBundle) -> float:
    """Value of the mean KL sensitivity; its parameter gradient goes into out.

    The gradient of mean_rows KL[base || p(. | x + r_vadv, theta)] with
    respect to theta, with r_vadv and base held constant: one forward/backward
    pair through the perturbed input only, which skips the input gradient.
    base must be softmax rows; it is not checked. A non-finite penalty is
    returned, not raised: the training step checks it.
    """
    logits, cache = nn.forward(net, x + r_vadv)
    log_q = log_softmax_unchecked(logits)
    n = x.shape[0]
    penalty = float(np.add.reduce(divergence.kl_categorical_unchecked(base, log_q)) / n)
    d_logits = np.exp(log_q)
    d_logits -= base
    d_logits /= n
    nn.backward(net, cache, d_logits, out=out, input_grad=False)
    return penalty


def vat_step_cost_audit(net, x_reg: Tensor, cfg: VatConfig,
                        rng: np.random.Generator) -> dict[str, int]:
    """Run one regularizer pass under instrumentation and report pass counts.

    With power_iterations = 1 the path costs exactly 3 forward and 2 backward
    propagations: one forward for the base distribution, one forward/backward
    pair inside the perturbation search, one pair for the penalty gradient.
    """
    fwd_before, bwd_before = nn.propagation_counts()
    base = nn.predict_proba(net, x_reg)
    r = gen_vap(net, x_reg, cfg, rng, base)
    vat_backward(net, x_reg, r, base, out=net.zero_gradients())
    fwd, bwd = nn.propagation_counts()
    return {"forward": fwd - fwd_before, "backward": bwd - bwd_before,
            "power_iterations": cfg.power_iterations}
