"""Optimizers: damped-momentum SGD, ADAM, and stepped exponential decay.

The momentum update is Delta_i = mu * Delta_{i-1} + (1 - mu) * gamma_i * g,
with the damping factor (1 - mu) kept as written; parameters move by
theta <- theta - Delta_i, so the supplied gradient is always the descent
direction of the minimized loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .numerics import Tensor


@dataclass
class DecaySchedule:
    """rate(step) = initial * factor ** floor(step / period)."""
    initial: float
    factor: float = 1.0
    period: int = 1

    def __post_init__(self):
        if self.initial <= 0:
            raise ConfigError("initial rate must be > 0")
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError("decay factor must be in (0, 1]")
        if self.period < 1:
            raise ConfigError("decay period must be >= 1")


def schedule_rate(schedule: DecaySchedule, step: int) -> float:
    if step < 0:
        raise ConfigError("step must be >= 0")
    return schedule.initial * schedule.factor ** (step // schedule.period)


class MomentumSgd:
    """SGD with damped momentum and a per-update decaying learning rate."""

    def __init__(self, mu: float, schedule: DecaySchedule):
        if not 0.0 <= mu < 1.0:
            raise ConfigError(f"momentum mu must be in [0, 1), got {mu}")
        self.mu = mu
        self.schedule = schedule
        self.step_count = 0
        self.prev_update: list[Tensor] | None = None

    def step(self, params: list[Tensor], grads: list[Tensor]) -> None:
        """Apply one in-place update; grads point in the ascent direction of the loss."""
        if self.prev_update is None:
            self.prev_update = [np.zeros_like(p) for p in params]
        if len(grads) != len(params):
            raise DimensionError("parameter/gradient count mismatch")
        gamma = schedule_rate(self.schedule, self.step_count)
        for p, g, prev in zip(params, grads, self.prev_update):
            if g.shape != p.shape:
                raise DimensionError("gradient shape does not match parameter")
            # Delta_i = mu * Delta_{i-1} + ((1 - mu) * gamma) * g, in place
            prev *= self.mu
            prev += ((1.0 - self.mu) * gamma) * g
            p -= prev
        self.step_count += 1


# Adam updates each parameter in consecutive blocks of this many elements of
# its flat view: 128 KiB of float64 per array, so the six arrays a block pass
# touches (parameter, gradient, both moments, two scratch blocks) take 768 KiB
# and stay in a 2 MB L2 cache across the update's 14 passes, where whole
# MNIST-size weight arrays (up to 7.5 MB each) go out to memory on every pass.
_ADAM_BLOCK = 16_384


class Adam:
    """ADAM with bias correction; default moment constants from the standard setting."""

    def __init__(self, schedule: DecaySchedule, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.schedule = schedule
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: list[Tensor] | None = None
        self.v: list[Tensor] | None = None
        self._scratch = (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK))

    def step(self, params: list[Tensor], grads: list[Tensor]) -> None:
        """Apply one in-place update to C-contiguous parameters."""
        if self.m is None:
            self.m = [np.zeros(p.shape) for p in params]
            self.v = [np.zeros(p.shape) for p in params]
        if len(grads) != len(params):
            raise DimensionError("parameter/gradient count mismatch")
        rate = schedule_rate(self.schedule, self.step_count)
        self.step_count += 1
        t = self.step_count
        bias1, bias2 = 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise DimensionError("gradient shape does not match parameter")
            if not p.flags.c_contiguous:
                raise UsageError("Adam updates C-contiguous parameters in place")
            p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for start in range(0, p.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                self._update(p[block], g[block], m[block], v[block], rate, bias1, bias2)

    def _update(self, p, g, m, v, rate, bias1, bias2) -> None:
        """The 14 passes of one update over one block."""
        s, denom = self._scratch
        if p.size < _ADAM_BLOCK:
            s, denom = s[:p.size], denom[:p.size]
        # m <- beta1 m + (1 - beta1) g;  v <- beta2 v + ((1 - beta2) g) g
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        v += np.multiply(s, g, out=s)
        # p <- p - (rate * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bias1, out=s)
        s *= rate
        s /= denom
        p -= s
