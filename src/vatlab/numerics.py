"""Core numeric primitives: float64 tensors, seeded RNG, stable softmax.

Everything downstream (networks, divergences, perturbation search) goes
through these helpers, so the finiteness and shape checks live here.
Tensors are plain float64 numpy arrays in row-major layout with the batch
as the leading dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

# Floor applied to probabilities before they enter a logarithm outside of
# log-sum-exp; keeps KL finite for near-degenerate distributions.
PROB_FLOOR = 1e-12

Tensor = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; equal seeds give bitwise-identical streams."""
    return np.random.default_rng(seed)


def as_tensor(values) -> Tensor:
    return np.asarray(values, dtype=np.float64)


def check_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(t)):
        raise NumericError(f"non-finite values in {what}")
    return t


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax with max subtraction for stability.

    Requires a (batch, C) tensor with C >= 2 and finite entries.
    """
    z = as_tensor(logits)
    if z.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"log_softmax expects (batch, C>=2), got {z.shape}")
    check_finite(z, "logits")
    return log_softmax_unchecked(z)


def log_softmax_unchecked(z: Tensor) -> Tensor:
    """log_softmax without its checks, for float64 (batch, C) logits the
    caller has already validated or whose result it checks itself."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: Tensor) -> Tensor:
    return np.exp(log_softmax(logits))


def _row_norms(v: Tensor) -> Tensor:
    # one (1, dim) @ (dim, 1) product per row rounds exactly like the norm of
    # a single 1-D draw; np.linalg.norm(v, axis=1) differs in the last bit
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, :, 0]


def sample_unit_vector(rng: np.random.Generator, dim: int,
                       batch: int | None = None) -> Tensor:
    """Uniform directions on the unit sphere: Gaussian draws, then normalize.

    Returns one (dim,) vector, or with batch a (batch, dim) tensor drawn in a
    single call whose rows equal `batch` successive single draws bit for bit.
    Rows of norm <= 1e-30 are drawn again.
    """
    if dim < 1:
        raise DimensionError("sample_unit_vector needs dim >= 1")
    v = rng.standard_normal((1 if batch is None else batch, dim))
    norms = _row_norms(v)
    while np.any(norms <= 1e-30):
        redraw = norms[:, 0] <= 1e-30
        v[redraw] = rng.standard_normal((int(redraw.sum()), dim))
        norms = _row_norms(v)
    out = v / norms
    return out[0] if batch is None else out


def normalize_rows(t: Tensor, fallback: Tensor | None = None, tol: float = 1e-12) -> Tensor:
    """L2-normalize each row; rows with norm below tol keep the fallback row.

    With no fallback, degenerate rows are left as zeros.
    """
    t = as_tensor(t)
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    degenerate = norms[:, 0] < tol
    safe = np.where(norms < tol, 1.0, norms)
    out = t / safe
    if degenerate.any():
        if fallback is not None:
            out[degenerate] = fallback[degenerate]
        else:
            out[degenerate] = 0.0
    return out
