"""Closed-form models and brute-force references used to validate the
perturbation search and the divergence layer.

The linear-Gaussian model has an exactly quadratic KL sensitivity with a
rank-1 Hessian theta theta^T / sigma^2, so the smoothness value and the
dominant direction are both known in closed form. The brute-force Hessian
and numpy's symmetric eigensolver give an independent route to the
dominant eigenvector for tiny networks; they never run in training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import divergence
from .errors import ConfigError, DataError, DimensionError
from .numerics import Tensor, as_tensor

_MAX_DENSE_DIM = 32
HESSIAN_STEP = 1e-4  # brute_force_hessian's finite-difference step


@dataclass
class LinearGaussianModel:
    """Scalar Gaussian regression y ~ N(theta^T x, sigma2).

    KL between the outputs at x and x + r is (theta^T r)^2 / (2 sigma2),
    independent of x, so the model doubles as an analytic probe target for
    the perturbation search (duck-typed methods below).
    """
    theta: Tensor
    sigma2: float = 1.0

    def __post_init__(self):
        self.theta = as_tensor(self.theta)
        if self.sigma2 <= 0:
            raise ConfigError("sigma2 must be > 0")

    def base_distribution(self, x: Tensor):
        return None  # sensitivity is independent of the base point

    def delta_kl(self, x: Tensor, r: Tensor, base) -> Tensor:
        proj = as_tensor(r) @ self.theta
        return proj ** 2 / (2.0 * self.sigma2)

    def grad_r_delta_kl(self, x: Tensor, r: Tensor, base) -> Tensor:
        proj = as_tensor(r) @ self.theta
        return np.outer(proj, self.theta) / self.sigma2


def gaussian_lds_exact(model: LinearGaussianModel, epsilon: float) -> float:
    """Exact smoothness value -eps^2 ||theta||^2 / (2 sigma2)."""
    return float(-(epsilon ** 2) * (model.theta @ model.theta) / (2.0 * model.sigma2))


def brute_force_hessian(model, x_row: Tensor) -> Tensor:
    """Symmetric finite-difference Hessian of the KL sensitivity at r = 0,
    with step HESSIAN_STEP.

    x_row is a single input point; refuses dimensions above 32 since the
    stencil costs O(I^2) forward passes.
    """
    x = as_tensor(x_row).reshape(1, -1)
    dim = x.shape[1]
    if dim > _MAX_DENSE_DIM:
        raise DimensionError(f"brute_force_hessian refuses I > {_MAX_DENSE_DIM}")
    base = divergence.base_distribution(model, x)

    def f(r_vec):
        return float(divergence.delta_kl(model, x, r_vec.reshape(1, -1), base)[0])

    h = HESSIAN_STEP
    hess = np.zeros((dim, dim))
    e = np.eye(dim)
    for i in range(dim):
        hess[i, i] = (f(h * e[i]) - 2.0 * f(np.zeros(dim)) + f(-h * e[i])) / h ** 2
        for j in range(i + 1, dim):
            val = (f(h * (e[i] + e[j])) - f(h * (e[i] - e[j]))
                   - f(h * (e[j] - e[i])) + f(-h * (e[i] + e[j]))) / (4.0 * h ** 2)
            hess[i, j] = hess[j, i] = val
    return 0.5 * (hess + hess.T)


def dominant_eigenvector(matrix: Tensor) -> tuple[float, Tensor]:
    """Largest-magnitude eigenpair of a small symmetric matrix; DataError for
    a matrix that is not square and symmetric."""
    a = as_tensor(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-10):
        raise DataError("dominant_eigenvector needs a symmetric square matrix")
    eigvals, eigvecs = np.linalg.eigh(a)
    idx = int(np.argmax(np.abs(eigvals)))
    return float(eigvals[idx]), eigvecs[:, idx]
