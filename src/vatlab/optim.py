"""Optimizers: damped-momentum SGD, ADAM, and stepped exponential decay.

The momentum update is Delta_i = mu * Delta_{i-1} + (1 - mu) * gamma_i * g,
with mu = MOMENTUM and the damping factor (1 - mu) kept as written;
parameters move by theta <- theta - Delta_i, so the supplied gradient is
always the descent direction of the minimized loss.

Each optimizer's step takes the parameters as one array, which it moves in
place, and their gradient as one array of the same shape: the training step
passes a network's parameter vector and its gradient vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
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


def _check_grads(params: Tensor, grads: Tensor) -> None:
    """Raise before an update moves anything when the gradient does not match."""
    if grads.shape != params.shape:
        raise DimensionError(f"gradient shape {grads.shape} does not match "
                             f"parameter shape {params.shape}")


# SGD's momentum mu, and ADAM's moment decay rates and denominator offset:
# the standard settings
MOMENTUM = 0.9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class MomentumSgd:
    """SGD with damped momentum MOMENTUM and a per-update decaying learning rate."""

    def __init__(self, schedule: DecaySchedule):
        self.schedule = schedule
        self.step_count = 0
        self.prev_update: Tensor | None = None
        self._scratch: Tensor | None = None

    def step(self, params: Tensor, grads: Tensor) -> None:
        """Apply one in-place update; grads point in the ascent direction of the loss."""
        _check_grads(params, grads)
        if self.prev_update is None:
            self.prev_update = np.zeros_like(params)
        if self._scratch is None:
            self._scratch = np.empty_like(params)
        scale = (1.0 - MOMENTUM) * schedule_rate(self.schedule, self.step_count)
        # Delta_i = mu * Delta_{i-1} + ((1 - mu) * gamma) * g, in place, with
        # scale = (1 - mu) * gamma; the scratch array holds the bits of scale * g
        self.prev_update *= MOMENTUM
        self.prev_update += np.multiply(grads, scale, out=self._scratch)
        params -= self.prev_update
        self.step_count += 1


# Adam updates the parameters in consecutive blocks of this many elements of
# their flat view: 128 KiB of float64 per array, so the six arrays a block pass
# touches (parameters, gradient, both moments, two scratch blocks) take 768 KiB
# and stay in a 2 MB L2 cache across the update's 14 passes, where a whole
# MNIST-size parameter vector (13 MB) goes out to memory on every pass. That
# vector is 102 blocks; split over two cores, each thread runs 51.
_ADAM_BLOCK = 16_384
# Elements of the smallest vector whose blocks run in two halves, one on a
# worker thread, when numerics.spare_core() holds. With OpenBLAS at 1 thread
# on a 2-vCPU host the split lost at 8 blocks (0.90 -> 0.96 ms) and won at
# 16 (1.80 -> 1.56 ms) and at the MNIST size's 1.66M (12.8 -> 8.3 ms).
_ADAM_SPLIT = 1 << 18


class Adam:
    """ADAM with bias correction and the ADAM_* constants."""

    def __init__(self, schedule: DecaySchedule):
        self.schedule = schedule
        self.step_count = 0
        self.m: Tensor | None = None
        self.v: Tensor | None = None
        # one scratch pair for the calling thread and one for the worker
        self._scratch = [(np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)) for _ in range(2)]

    def step(self, params: Tensor, grads: Tensor) -> None:
        """Apply one in-place update to C-contiguous parameters.

        A vector of at least _ADAM_SPLIT elements, where numerics.spare_core()
        holds, is updated in two halves of whole blocks: the second on a
        worker thread, the first on the caller's. Every block runs the same
        passes either way, so the bits are the serial ones. The step joins
        the worker before it returns or raises, and raises what it raised;
        where no thread can be started, the caller runs every block."""
        _check_grads(params, grads)
        if not params.flags.c_contiguous:
            raise UsageError("Adam updates C-contiguous parameters in place")
        if self.m is None:
            self.m = np.zeros(params.shape)
            self.v = np.zeros(params.shape)
        rate = schedule_rate(self.schedule, self.step_count)
        self.step_count += 1
        t = self.step_count
        consts = (ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
                  1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t, rate)
        flat = [a.reshape(-1) for a in (params, grads, self.m, self.v)]
        worker, raised, mine = None, [], flat
        if params.size >= _ADAM_SPLIT and numerics.spare_core():
            # the caller's half is the first ceil(blocks / 2) blocks
            mid = _ADAM_BLOCK * -(-params.size // (2 * _ADAM_BLOCK))
            worker, raised = numerics.start_thread("vatlab-adam-half", self._blocks,
                                                   [a[mid:] for a in flat],
                                                   self._scratch[1], consts)
            if worker is not None:
                mine = [a[:mid] for a in flat]
        try:
            self._blocks(mine, self._scratch[0], consts)
        finally:
            if worker is not None:
                worker.join()
        if raised:
            raise raised[0]

    def _blocks(self, flat, scratch, consts) -> None:
        """Update the flat arrays [p, g, m, v] block by block through one scratch pair."""
        p, g, m, v = flat
        for start in range(0, p.size, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            self._update(p[block], g[block], m[block], v[block], scratch, *consts)

    def _update(self, p, g, m, v, scratch, beta1, gain1, beta2, gain2, bias1, bias2,
                rate) -> None:
        """The 14 passes of one update over one block; gain1 and gain2 are
        1 - beta1 and 1 - beta2."""
        s, denom = scratch
        if p.size < _ADAM_BLOCK:
            s, denom = s[:p.size], denom[:p.size]
        # m <- beta1 m + (1 - beta1) g;  v <- beta2 v + ((1 - beta2) g) g
        m *= beta1
        m += np.multiply(g, gain1, out=s)
        v *= beta2
        np.multiply(g, gain2, out=s)
        v += np.multiply(s, g, out=s)
        # p <- p - (rate * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bias1, out=s)
        s *= rate
        s /= denom
        p -= s
