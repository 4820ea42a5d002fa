"""Optimizers: damped-momentum SGD, ADAM, and stepped exponential decay.

The momentum update is Delta_i = mu * Delta_{i-1} + (1 - mu) * gamma_i * g,
with the damping factor (1 - mu) kept as written; parameters move by
theta <- theta - Delta_i, so the supplied gradient is always the descent
direction of the minimized loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
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
        self._scratch: list[Tensor] | None = None

    def step(self, params: list[Tensor], grads: list[Tensor]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self._scratch = [np.empty_like(p) for p in params]
        if len(grads) != len(params):
            raise DimensionError("parameter/gradient count mismatch")
        rate = schedule_rate(self.schedule, self.step_count)
        self.step_count += 1
        t = self.step_count
        for p, g, m, v, s in zip(params, grads, self.m, self.v, self._scratch):
            if g.shape != p.shape:
                raise DimensionError("gradient shape does not match parameter")
            # m <- beta1 m + (1 - beta1) g;  v <- beta2 v + ((1 - beta2) g) g
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            v += np.multiply(s, g, out=s)
            # p <- p - (rate * m_hat) / (sqrt(v_hat) + eps)
            denom = v / (1.0 - self.beta2 ** t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, 1.0 - self.beta1 ** t, out=s)
            s *= rate
            s /= denom
            p -= s
