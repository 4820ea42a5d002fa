"""The reference curvature helpers in conftest: the exact KL Hessian and its
dominant eigenpair. conftest.grad_r_delta_kl, the finite-difference
reference, is checked in test_divergence.py."""

import numpy as np
import pytest
from conftest import dominant_eigenvector, kl_hessian, logistic_net, random_small_net

from vatlab import nn
from vatlab.errors import DataError


class TestKlHessian:
    def test_constant_network_zero(self, rng):
        net = nn.init_mlp([3, 4, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
        hess = kl_hessian(net, rng.standard_normal(3))
        assert np.max(np.abs(hess)) < 1e-8

    def test_positive_semidefinite(self, rng):
        net = random_small_net(rng, [4, 6, 3])
        eigvals = np.linalg.eigvalsh(kl_hessian(net, rng.standard_normal(4)))
        assert np.all(eigvals >= -1e-12 * np.max(np.abs(eigvals)))

    def test_logistic_rank_one(self):
        # logit columns [0, theta]: the logistic model, whose KL Hessian at
        # r = 0 is s(1-s) theta theta^T with s = sigmoid(theta^T x)
        theta = np.array([3.0, 4.0])
        net = logistic_net(theta)
        x_row = np.array([0.1, -0.2])
        s = 1.0 / (1.0 + np.exp(-(x_row @ theta)))
        expected = s * (1.0 - s) * np.outer(theta, theta)
        assert np.max(np.abs(kl_hessian(net, x_row) - expected)) < 1e-12


class TestDominantEigenvector:
    """dominant_eigenvector, which numpy's symmetric eigensolver backs."""

    def test_diagonal(self):
        val, vec = dominant_eigenvector(np.diag([3.0, 1.0]))
        assert abs(val - 3.0) < 1e-12
        assert abs(abs(vec[0]) - 1.0) < 1e-12

    def test_rank_one_outer_product(self):
        theta = np.array([3.0, 4.0])
        val, vec = dominant_eigenvector(np.outer(theta, theta))
        assert abs(val - 25.0) < 1e-10
        assert abs(abs(vec @ np.array([0.6, 0.8])) - 1.0) < 1e-10

    def test_residual_on_random_symmetric(self, rng):
        a = rng.standard_normal((5, 5))
        h = 0.5 * (a + a.T)
        val, vec = dominant_eigenvector(h)
        assert np.linalg.norm(h @ vec - val * vec) < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            dominant_eigenvector(np.array([[1.0, 2.0], [0.0, 1.0]]))
