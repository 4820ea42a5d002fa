"""Categorical KL divergence and the perturbation sensitivity it induces.

The sensitivity of a model at x under a perturbation r is the KL divergence
from the unperturbed output distribution (held as a detached constant) to the
perturbed one. Both its value and its exact gradient with respect to r come
out of a single forward/backward pair through the perturbed input.

All functions duck-type on the model: anything providing base_distribution /
delta_kl / grad_r_delta_kl methods (the analytic oracle models do) is used
directly, otherwise the model is treated as an MlpNetwork.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .numerics import (PROB_FLOOR, Tensor, as_tensor, log_softmax,
                       log_softmax_unchecked, softmax)
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
    return (p * (log_p - log_q)).sum(axis=1)


def base_distribution(model, x: Tensor):
    """Detached snapshot of the model's output distribution at x.

    For MLP models this is the softmax probability matrix; oracle models may
    return whatever representation their delta_kl understands.
    """
    if hasattr(model, "base_distribution"):
        return model.base_distribution(x)
    logits, _ = nn.forward(model, x)
    return softmax(logits)


def delta_kl(model, x: Tensor, r: Tensor, base) -> Tensor:
    """Per-row KL from the base distribution to the model's output at x + r."""
    if hasattr(model, "delta_kl"):
        return model.delta_kl(x, r, base)
    logits, _ = nn.forward(model, x + r)
    return kl_categorical(base, log_softmax(logits))


def grad_r_delta_kl(model, x: Tensor, r: Tensor, base) -> Tensor:
    """Exact per-row gradient of delta_kl with respect to r.

    The base distribution is a constant, so the logit gradient of each row's
    KL is softmax(logits) - base and one backward pass yields d/dr; that pass
    propagates to the input only and computes no parameter gradients.
    """
    if hasattr(model, "grad_r_delta_kl"):
        return model.grad_r_delta_kl(x, r, base)
    logits, cache = nn.forward(model, x + r)
    d_logits = np.exp(log_softmax_unchecked(logits)) - base
    return nn.backward(model, cache, d_logits, param_grads=False).d_input
