import numpy as np
import pytest
from conftest import random_small_net

from vatlab import divergence, nn
from vatlab.errors import ConfigError, DataError, DimensionError
from vatlab.numerics import make_rng
from vatlab.oracles import (LinearGaussianModel, brute_force_hessian,
                            dominant_eigenvector, gaussian_lds_exact)


class TestGaussianLds:
    def test_zero_theta(self):
        assert gaussian_lds_exact(LinearGaussianModel(theta=np.zeros(3)), 1.0) == 0.0

    def test_plugin_value(self):
        model = LinearGaussianModel(theta=np.array([1.0, 0.0]), sigma2=1.0)
        assert gaussian_lds_exact(model, 1.0) == -0.5

    def test_depends_only_on_induced_function(self):
        # two parametrizations inducing the same map give the same value
        a = LinearGaussianModel(theta=np.array([2.0, -1.0]), sigma2=1.0)
        b = LinearGaussianModel(theta=np.array([2.0, -1.0]).copy(), sigma2=1.0)
        assert gaussian_lds_exact(a, 0.7) == gaussian_lds_exact(b, 0.7)

    def test_bad_variance(self):
        with pytest.raises(ConfigError):
            LinearGaussianModel(theta=np.ones(2), sigma2=0.0)


class TestBruteForceHessian:
    def test_linear_gaussian_rank_one(self):
        theta = np.array([3.0, 4.0])
        model = LinearGaussianModel(theta=theta, sigma2=2.0)
        hess = brute_force_hessian(model, np.zeros(2))
        assert np.max(np.abs(hess - np.outer(theta, theta) / 2.0)) < 1e-6

    def test_constant_network_zero(self, rng):
        net = nn.init_mlp([3, 4, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
        hess = brute_force_hessian(net, rng.standard_normal(3))
        assert np.max(np.abs(hess)) < 1e-8

    def test_positive_semidefinite(self, rng):
        net = random_small_net(rng, [4, 6, 3])
        hess = brute_force_hessian(net, rng.standard_normal(4))
        eigvals = np.linalg.eigvalsh(hess)
        # finite-difference noise in the stencil puts zero eigenvalues a
        # few 1e-8 below zero
        assert np.all(eigvals >= -1e-6)

    def test_refuses_large_dimension(self, rng):
        net = random_small_net(rng, [40, 4, 2])
        with pytest.raises(DimensionError):
            brute_force_hessian(net, rng.standard_normal(40))


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


def test_hvp_identity_on_tiny_nets():
    # H d should match grad at xi*d divided by xi (the finite-difference HVP)
    for seed in range(5):
        rng = make_rng(seed)
        net = random_small_net(rng, [5, 6, 3])
        x = rng.standard_normal((1, 5))
        hess = brute_force_hessian(net, x[0])
        base = divergence.base_distribution(net, x)
        d = rng.standard_normal(5)
        d /= np.linalg.norm(d)
        xi = 1e-4
        hvp_fd = divergence.grad_r_delta_kl(net, x, xi * d[None, :], base)[0] / xi
        hd = hess @ d
        assert np.linalg.norm(hd - hvp_fd) / np.linalg.norm(hd) < 1e-3
