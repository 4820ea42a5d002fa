"""Virtual-adversarial perturbation search and the smoothness penalty gradient.

The worst-case perturbation inside an epsilon ball is approximated by power
iteration on the KL sensitivity's Hessian at r = 0, J^T (diag p - p p^T) J.
Each product is exact (Pearlmutter 1994), for the cost of the paper's finite
difference of the KL gradient at r = xi * d: one tangent pass through the
clean forward pass's cache and one backward pass on it.

The penalty gradient treats both the perturbation and the base distribution
as constants and backpropagates only through the perturbed forward pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import divergence, nn
from .errors import ConfigError
from .numerics import ZERO_NORM, Tensor, log_softmax_unchecked, sample_unit_vector, softmax

log = logging.getLogger(__name__)


@dataclass
class VatConfig:
    epsilon: float          # perturbation radius, input-space L2 units
    power_iterations: int = 1

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.power_iterations < 1:
            raise ConfigError(f"power_iterations must be >= 1, got {self.power_iterations}")


def hessian_vector_product(net, cache: nn.ForwardCache, base: Tensor, d: Tensor) -> Tensor:
    """The KL sensitivity's Hessian at r = 0 times d, per row, as a new array:
    J^T (diag p - p p^T) J d, with J the logits' input Jacobian at the clean
    pass cache and p = base its softmax; one tangent and one backward pass."""
    u, _ = nn.forward(net, d, tangent_at=cache)
    u -= np.add.reduce(base * u, axis=1, keepdims=True)
    u *= base
    return nn.backward(net, cache, u)


def gen_vap(net, cache: nn.ForwardCache, cfg: VatConfig, rng: np.random.Generator,
            base: Tensor) -> Tensor:
    """Approximate per-row worst-case perturbations of norm cfg.epsilon at
    cache.x, where cache is the clean forward pass and base its softmax.

    Starts from a fresh random unit direction per row and runs
    cfg.power_iterations rounds of normalized Hessian-vector products. Rows
    whose product has a norm below ZERO_NORM keep their previous direction
    (flat model; any direction is a valid maximizer).
    """
    batch, dim = cache.x.shape
    d = sample_unit_vector(rng, dim, batch)
    for _ in range(cfg.power_iterations):
        hd = hessian_vector_product(net, cache, base, d)
        # what np.linalg.norm(..., axis=1) computes for real rows
        norms = np.sqrt(np.add.reduce(hd * hd, axis=1, keepdims=True))
        degenerate = norms < ZERO_NORM
        if degenerate.any():
            log.debug("gen_vap: %d degenerate rows keep their previous direction",
                      int(degenerate.sum()))
            d = np.where(degenerate, d, hd / np.where(degenerate, 1.0, norms))
        else:
            hd /= norms  # hessian_vector_product returns a new array
            d = hd
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
    propagations: one forward for the base distribution and the search's
    cache, one tangent/backward pair per search round, one pair for the penalty.
    """
    fwd_before, bwd_before = nn.propagation_counts()
    logits, cache = nn.forward(net, x_reg)
    base = softmax(logits)
    r = gen_vap(net, cache, cfg, rng, base)
    vat_backward(net, x_reg, r, base, out=net.zero_gradients())
    fwd, bwd = nn.propagation_counts()
    return {"forward": fwd - fwd_before, "backward": bwd - bwd_before,
            "power_iterations": cfg.power_iterations}
