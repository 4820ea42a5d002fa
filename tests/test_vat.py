import numpy as np
import pytest
from conftest import (dominant_eigenvector, kl_hessian, logistic_net, max_rel_err,
                      numeric_grad, random_small_net)

from vatlab import baselines, divergence, nn, vat
from vatlab.errors import ConfigError
from vatlab.numerics import make_rng


class TestVatConfig:
    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0},
        {"epsilon": 1.0, "xi": 0.0},
        {"epsilon": 1.0, "power_iterations": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            vat.VatConfig(**kwargs)


class TestGenVap:
    def test_output_norm_is_epsilon(self, rng):
        net = random_small_net(rng, [6, 8, 3])
        x = rng.standard_normal((5, 6))
        base = nn.predict_proba(net, x)
        for eps in (0.1, 0.5, 2.0):
            for ip in (1, 3):
                r = vat.gen_vap(net, x, vat.VatConfig(epsilon=eps, power_iterations=ip), rng,
                                base)
                assert np.allclose(np.linalg.norm(r, axis=1), eps, atol=1e-9)

    def test_rank_one_logistic_alignment(self):
        # H is proportional to theta theta^T, so one iteration lands on +-theta_bar
        net = logistic_net([3.0, 4.0])
        x = np.array([[0.1, -0.2]])
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=1.0), make_rng(11),
                        nn.predict_proba(net, x))
        cos = abs(r[0] @ np.array([0.6, 0.8]))
        assert cos > 1 - 1e-6

    def test_two_classes_search_the_adversarial_l2_axis(self):
        # with two classes diag p - p p^T has rank 1, so the KL Hessian is
        # p(1-p) g g^T with g the input gradient of the logit margin z1 - z0;
        # the search lands on +-g, the NLL's input gradient is (p1 - y1) g, and
        # the adversarial-L2 direction shares the axis
        rng = make_rng(7)
        net = nn.init_mlp([100, 100, 2], rng)
        x = rng.standard_normal((20, 100))
        base = nn.predict_proba(net, x)
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=1.0), rng, base)
        r_adv = baselines.adv_perturbation(net, x, rng.integers(0, 2, 20), 1.0, "l2")
        _, cache = nn.forward(net, x)
        margin_grad = nn.backward(net, cache, np.tile([-1.0, 1.0], (20, 1)),
                                  param_grads=False).d_input
        for i in range(20):
            hess = kl_hessian(net, x[i])
            g, p1 = margin_grad[i], base[i, 1]
            eigvals = np.linalg.eigvalsh(hess)
            assert np.all(np.abs(eigvals[:-1]) <= 1e-12 * eigvals[-1])
            assert np.max(np.abs(hess - p1 * (1 - p1) * np.outer(g, g))) <= 1e-12 * eigvals[-1]
            _, top = dominant_eigenvector(hess)
            assert abs(r[i] @ top) > 1 - 1e-6
            assert abs(r_adv[i] @ top) > 1 - 1e-6

    def test_alignment_improves_with_iterations(self):
        # exact Hessian on tiny nets, averaged over instances
        improved, total = 0, 0
        for seed in range(12):
            rng = make_rng(seed)
            net = random_small_net(rng, [4, 6, 3])
            x = rng.standard_normal((1, 4))
            hess = kl_hessian(net, x[0])
            _, u1 = dominant_eigenvector(hess)
            base = nn.predict_proba(net, x)
            cosines = []
            for ip in (1, 2, 3, 4, 5):
                r = vat.gen_vap(net, x, vat.VatConfig(epsilon=1.0, power_iterations=ip),
                                make_rng(1000 + seed), base)
                cosines.append(abs(r[0] @ u1))
            total += 1
            if all(b >= a - 1e-6 for a, b in zip(cosines, cosines[1:])):
                improved += 1
            assert cosines[-1] >= cosines[0] - 1e-6
        assert improved >= 0.9 * total

    def test_flat_model_fallback(self, rng):
        net = nn.init_mlp([4, 3, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        x = rng.standard_normal((3, 4))
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=0.5), rng,
                        nn.predict_proba(net, x))
        assert np.allclose(np.linalg.norm(r, axis=1), 0.5)


class TestLdsEstimate:
    def test_constant_output_network(self, rng):
        net = nn.init_mlp([4, 3, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
        x = rng.standard_normal((5, 4))
        base = nn.predict_proba(net, x)
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=1.0), rng, base)
        assert np.max(np.abs(divergence.delta_kl(net, x, r, base))) < 1e-15

    def test_logistic_model_exact(self):
        # the search lands on +-theta/||theta||, and ||theta|| = 3, so at
        # theta^T x = 0 the value is -KL(Bern(1/2) || Bern(sigmoid(+-3 eps)))
        # = -log cosh(3 eps / 2)
        net = logistic_net([1.0, 2.0, 2.0])
        eps = 0.7
        x = np.zeros((1, 3))
        base = nn.predict_proba(net, x)
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=eps), make_rng(5), base)
        expected = -np.log(np.cosh(1.5 * eps))
        assert abs(-divergence.delta_kl(net, x, r, base)[0] - expected) < 1e-9

    def test_logistic_second_order_value(self):
        # two-class net with logit columns [theta, 0] equals a logistic model;
        # at theta^T x = 0 and eps=0.5 the second-order value is -0.03125
        theta = np.array([1.0, 0.0])
        w = np.column_stack([theta, np.zeros(2)])
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(2))])
        x = np.zeros((1, 2))
        base = nn.predict_proba(net, x)
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=0.5), make_rng(2), base)
        got = float(-divergence.delta_kl(net, x, r, base)[0])
        assert abs(got - (-0.03125)) < 1e-3

    def test_never_positive(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((6, 4))
        base = nn.predict_proba(net, x)
        r = vat.gen_vap(net, x, vat.VatConfig(epsilon=0.5), rng, base)
        assert np.all(-divergence.delta_kl(net, x, r, base) <= 1e-12)


class TestVatBackward:
    def test_zero_perturbation_zero_gradient(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((3, 4))
        penalty, g = vat.vat_backward(net, x, np.zeros_like(x),
                                      nn.predict_proba(net, x))
        assert penalty < 1e-15
        for arr in g.parameter_grads():
            assert np.max(np.abs(arr)) < 1e-12

    def test_matches_theta_finite_differences(self, rng):
        net = random_small_net(rng, [4, 5, 3])
        x = rng.standard_normal((3, 4))
        base = nn.predict_proba(net, x).copy()
        r = 0.3 * rng.standard_normal((3, 4))
        _, g = vat.vat_backward(net, x, r, base=base)

        def surrogate():
            # KL[detached base || theta-dependent perturbed output], mean over rows
            logits, _ = nn.forward(net, x + r)
            from vatlab.numerics import log_softmax
            return float(divergence.kl_categorical(base, log_softmax(logits)).mean())

        for analytic, arr in zip(g.parameter_grads(), net.parameters()):
            assert max_rel_err(analytic, numeric_grad(surrogate, arr), floor=1e-6) < 1e-4

    def test_full_step_scalar_reference(self):
        # total gradient on a fixed 2-2 linear net = NLL grad + weight * penalty grad
        w = np.array([[0.8, -0.3], [0.1, 1.2]])
        net = nn.MlpNetwork([nn.Layer(w.copy(), np.zeros(2))])
        x = np.array([[0.5, -0.2]])
        y = np.array([1])
        r = np.array([[0.3, 0.4]])
        weight = 1.0

        logits, cache = nn.forward(net, x)
        loss, d_logits, _ = nn.nll_loss(logits, y)
        nll_grads = nn.backward(net, cache, d_logits)
        base = nn.predict_proba(net, x)
        _, reg_grads = vat.vat_backward(net, x, r, base=base)
        total = [g + weight * rg for g, rg in zip(nll_grads.parameter_grads(),
                                                  reg_grads.parameter_grads())]

        def objective():
            out, _ = nn.forward(net, x)
            nll = nn.nll_loss(out, y)[0]
            from vatlab.numerics import log_softmax
            pen = float(divergence.kl_categorical(base, log_softmax(
                nn.forward(net, x + r)[0])).mean())
            return nll + weight * pen

        for analytic, arr in zip(total, net.parameters()):
            assert max_rel_err(analytic, numeric_grad(objective, arr), floor=1e-6) < 1e-5


class TestCostAudit:
    def test_single_iteration_counts(self, rng):
        net = random_small_net(rng, [8, 6, 3])
        x = rng.standard_normal((4, 8))
        counts = vat.vat_step_cost_audit(net, x, vat.VatConfig(epsilon=1.0), rng)
        assert counts["forward"] == 3
        assert counts["backward"] == 2

    def test_extra_iterations_add_pairs(self, rng):
        net = random_small_net(rng, [8, 6, 3])
        x = rng.standard_normal((4, 8))
        cfg = vat.VatConfig(epsilon=1.0, power_iterations=2)
        counts = vat.vat_step_cost_audit(net, x, cfg, rng)
        assert counts["forward"] == 4
        assert counts["backward"] == 3


def test_probe_scale_direction_stability(rng):
    # the searched direction should not depend on the finite-difference scale
    net = random_small_net(rng, [5, 7, 3])
    x = rng.standard_normal((2, 5))
    base = nn.predict_proba(net, x)
    directions = []
    for xi in (1e-6, 1e-4, 1e-2):
        cfg = vat.VatConfig(epsilon=1.0, xi=xi, power_iterations=3)
        r = vat.gen_vap(net, x, cfg, make_rng(42), base)
        directions.append(r / np.linalg.norm(r, axis=1, keepdims=True))
    for other in directions[1:]:
        cos = np.abs((directions[0] * other).sum(axis=1))
        assert np.all(cos > 0.999)


def test_parametrization_invariance_of_lds(rng):
    # duplicating a hidden unit and halving its outgoing weights keeps the
    # function, hence the smoothness value, unchanged
    net = random_small_net(rng, [4, 6, 3])
    x = rng.standard_normal((3, 4))
    dup = nn.MlpNetwork([
        nn.Layer(np.hstack([net.layers[0].weights, net.layers[0].weights[:, :1]]),
                 np.concatenate([net.layers[0].biases, net.layers[0].biases[:1]])),
        nn.Layer(np.vstack([
            np.vstack([0.5 * net.layers[1].weights[:1], net.layers[1].weights[1:]]),
            0.5 * net.layers[1].weights[:1]]),
            net.layers[1].biases.copy()),
    ])
    base = nn.predict_proba(net, x)
    r = vat.gen_vap(net, x, vat.VatConfig(epsilon=0.5), make_rng(3), base)
    a = -divergence.delta_kl(net, x, r, base)
    b = -divergence.delta_kl(dup, x, r, nn.predict_proba(dup, x))
    assert np.max(np.abs(a - b)) < 1e-9
