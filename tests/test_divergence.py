import numpy as np
import pytest
from conftest import grad_r_delta_kl, max_rel_err, numeric_grad, random_small_net

from vatlab import divergence, nn
from vatlab.errors import DataError
from vatlab.numerics import log_softmax, softmax


class TestKlCategorical:
    def test_identical_distributions(self, rng):
        logits = rng.standard_normal((5, 4))
        log_q = log_softmax(logits)
        assert np.max(np.abs(divergence.kl_categorical(np.exp(log_q), log_q))) < 1e-12

    def test_point_mass_vs_uniform(self):
        kl = divergence.kl_categorical(np.array([[1.0, 0.0]]), np.log([[0.5, 0.5]]))
        assert abs(kl[0] - np.log(2)) < 1e-9

    def test_hand_value(self):
        kl = divergence.kl_categorical(np.array([[0.3, 0.7]]), np.log([[0.7, 0.3]]))
        expected = 0.3 * np.log(3 / 7) + 0.7 * np.log(7 / 3)
        assert abs(kl[0] - expected) < 1e-12
        # published rounding of the same quantity, only good to ~2e-5
        assert abs(kl[0] - 0.338936) < 1e-4

    def test_bad_row_sum(self):
        with pytest.raises(DataError):
            divergence.kl_categorical(np.array([[0.6, 0.6]]), np.log([[0.5, 0.5]]))

    def test_gibbs_nonnegativity(self, rng):
        for _ in range(50):
            p = softmax(rng.standard_normal((1, 6)))
            log_q = log_softmax(rng.standard_normal((1, 6)))
            assert divergence.kl_categorical(p, log_q)[0] >= -1e-15


class TestDeltaKl:
    def test_zero_perturbation(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((4, 4))
        base = nn.predict_proba(net, x)
        vals = divergence.delta_kl(net, x, np.zeros_like(x), base)
        assert np.max(np.abs(vals)) < 1e-15

    def test_zero_is_a_minimum(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((1, 4))
        base = nn.predict_proba(net, x)
        for _ in range(100):
            d = rng.standard_normal((1, 4))
            d /= np.linalg.norm(d)
            assert divergence.delta_kl(net, x, 0.05 * d, base)[0] >= 0.0

    def test_scalar_reference_on_tiny_net(self):
        # straight-line reference: explicit softmax KL on a fixed 2-2 linear net
        w = np.array([[1.0, -0.5], [0.25, 2.0]])
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(2))])
        x = np.array([[0.3, -0.7]])
        r = np.array([[0.11, 0.05]])

        def probs(v):
            z = v @ w
            e = np.exp(z - z.max())
            return e / e.sum()

        p, q = probs(x[0]), probs((x + r)[0])
        expected = float(np.sum(p * np.log(p / q)))
        base = nn.predict_proba(net, x)
        assert abs(divergence.delta_kl(net, x, r, base)[0] - expected) < 1e-12


class TestGradRDeltaKl:
    """conftest.grad_r_delta_kl, which the finite-difference Hessian-vector
    reference is built on."""

    def test_stationary_at_zero(self, rng):
        for _ in range(5):
            net = random_small_net(rng)
            x = rng.standard_normal((3, 4))
            base = nn.predict_proba(net, x)
            g = grad_r_delta_kl(net, x, np.zeros_like(x), base)
            assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(x))

    def test_matches_finite_differences(self, rng):
        net = random_small_net(rng, [4, 5, 3])
        x = rng.standard_normal((2, 4))
        base = nn.predict_proba(net, x)
        r = 0.1 * rng.standard_normal((2, 4))
        analytic = grad_r_delta_kl(net, x, r, base)

        def total():
            return float(divergence.delta_kl(net, x, r, base).sum())

        numeric = numeric_grad(total, r)
        assert max_rel_err(analytic, numeric, floor=1e-6) < 1e-5
