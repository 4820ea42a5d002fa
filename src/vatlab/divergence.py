"""Categorical KL divergence and the perturbation sensitivity it induces.

The sensitivity of a network at x under a perturbation r is the KL divergence
from the unperturbed output distribution (held as a detached constant) to the
perturbed one. Both its value and its exact gradient with respect to r come
out of a single forward/backward pair through the perturbed input.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .numerics import PROB_FLOOR, Tensor, as_tensor, log_softmax, log_softmax_unchecked
from . import nn


def kl_categorical(p: Tensor, log_q: Tensor) -> Tensor:
    """Per-row KL divergence from probability rows p to log-probability rows log_q.

    0*log(0) is treated as 0; a probability floor keeps log(p) finite.
    """
    p = as_tensor(p)
    log_q = as_tensor(log_q)
    row_sums = p.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise DataError("first KL argument rows must sum to 1")
    return kl_categorical_unchecked(p, log_q)


def kl_categorical_unchecked(p: Tensor, log_q: Tensor) -> Tensor:
    """kl_categorical without the row-sum check, for float64 probability rows
    the caller has just built as a softmax."""
    log_p = np.log(np.maximum(p, PROB_FLOOR))
    return np.add.reduce(p * (log_p - log_q), axis=1)


def delta_kl(net, x: Tensor, r: Tensor, base: Tensor) -> Tensor:
    """Per-row KL from the base distribution to the network's output at x + r."""
    logits, _ = nn.forward(net, x + r)
    return kl_categorical(base, log_softmax(logits))


def grad_r_delta_kl(net, x: Tensor, r: Tensor, base: Tensor) -> Tensor:
    """Exact per-row gradient of delta_kl with respect to r, as a new array.

    The base distribution is a constant, so the logit gradient of each row's
    KL is softmax(logits) - base and one backward pass yields d/dr; that pass
    propagates to the input only and computes no parameter gradients.
    """
    logits, cache = nn.forward(net, x + r)
    d_logits = log_softmax_unchecked(logits)
    np.exp(d_logits, out=d_logits)
    d_logits -= base
    return nn.backward(net, cache, d_logits, param_grads=False).d_input
