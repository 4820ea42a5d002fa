import numpy as np
import pytest
from conftest import max_rel_err, numeric_grad, random_small_net

from vatlab import baselines, divergence, nn, vat
from vatlab.errors import ConfigError
from vatlab.numerics import make_rng
from vatlab.vat import VatConfig


class TestRegularizer:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            baselines.Regularizer(kind="bogus")

    def test_vat_needs_config(self):
        with pytest.raises(ConfigError):
            baselines.Regularizer(kind="vat")

    def test_needs_labels_flags(self):
        assert baselines.KINDS["adversarial_l2"].needs_labels
        assert not baselines.KINDS["vat"].needs_labels


@pytest.mark.parametrize("kind, expected", [
    ("none", baselines.Regularizer(kind="none", weight=0.0)),
    ("l2_decay", baselines.Regularizer(kind="l2_decay", weight=0.3)),
    ("dropout", baselines.Regularizer(kind="dropout", keep_prob=0.7, weight=0.0)),
    ("random_perturbation",
     baselines.Regularizer(kind="random_perturbation", epsilon=2.0, weight=0.3)),
    ("adversarial_linf", baselines.Regularizer(kind="adversarial_linf", epsilon=2.0, weight=0.3)),
    ("adversarial_l2", baselines.Regularizer(kind="adversarial_l2", epsilon=2.0, weight=0.3)),
    ("vat", baselines.Regularizer(kind="vat", weight=0.3,
                                  vat=VatConfig(epsilon=2.0, xi=1e-5, power_iterations=3))),
])
def test_make_regularizer_keeps_only_what_each_kind_reads(kind, expected):
    assert baselines.make_regularizer(kind, weight=0.3, epsilon=2.0, keep_prob=0.7,
                                      xi=1e-5, power_iterations=3) == expected


class TestAdvPerturbation:
    def test_flat_model_gives_zero(self, rng):
        net = nn.init_mlp([4, 3, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
        x = rng.standard_normal((3, 4))
        r = baselines.adv_perturbation(net, x, np.zeros(3, dtype=int), 0.5, "l2")
        assert np.all(r == 0.0)

    def test_linf_sign_structure(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 3, 4)
        r = baselines.adv_perturbation(net, x, y, 0.25, "linf")
        assert set(np.unique(np.abs(r))) <= {0.0, 0.25}

    def test_logistic_direction(self):
        # logistic net: gradient of NLL w.r.t. x is (sigma - y_onehot') theta;
        # the l2 perturbation must align with +-theta
        theta = np.array([2.0, -1.0])
        w = np.column_stack([theta, np.zeros(2)])
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(2))])
        x = np.array([[0.3, 0.4]])
        r = baselines.adv_perturbation(net, x, np.array([0]), 1.0, "l2")
        cos = abs(r[0] @ theta / (np.linalg.norm(r) * np.linalg.norm(theta)))
        assert cos > 1 - 1e-9

    def test_l2_norm_budget(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        r = baselines.adv_perturbation(net, x, y, 0.7, "l2")
        assert np.allclose(np.linalg.norm(r, axis=1), 0.7)

    def test_l2_is_first_order_optimal(self, rng):
        # among 50 random perturbations of the same norm, none increases the
        # linearized loss more than the gradient direction
        net = random_small_net(rng, [4, 8, 3])
        x = rng.standard_normal((1, 4))
        y = np.array([1])
        eps = 1e-3  # stay in the locally linear regime
        r_adv = baselines.adv_perturbation(net, x, y, eps, "l2")
        base_loss = nn.nll_loss(nn.forward(net, x)[0], y)[0]
        adv_gain = nn.nll_loss(nn.forward(net, x + r_adv)[0], y)[0] - base_loss
        for _ in range(50):
            d = rng.standard_normal((1, 4))
            d *= eps / np.linalg.norm(d)
            gain = nn.nll_loss(nn.forward(net, x + d)[0], y)[0] - base_loss
            assert gain <= adv_gain + 1e-6


class TestRandomPerturbation:
    def test_row_norms(self, rng):
        x = np.zeros((6, 10))
        r = baselines.random_perturbation(x, 1.5, rng)
        assert np.allclose(np.linalg.norm(r, axis=1), 1.5)

    def test_rows_uncorrelated(self):
        rng = make_rng(9)
        r = baselines.random_perturbation(np.zeros((10_000, 8)), 1.0, rng)
        corr = np.mean([r[2 * i] @ r[2 * i + 1] for i in range(5_000)])
        assert abs(corr) < 0.03

    def test_one_dimensional(self, rng):
        r = baselines.random_perturbation(np.zeros((20, 1)), 0.3, rng)
        assert set(np.unique(np.round(r, 12))) <= {0.3, -0.3}


class TestL2Penalty:
    def test_zero_weight(self, rng):
        net = random_small_net(rng)
        penalty, grads = baselines.l2_penalty(net, 0.0)
        assert penalty == 0.0
        assert np.all(grads.vector == 0)

    def test_single_weight_plugin(self):
        net = nn.MlpNetwork([nn.Layer(np.array([[3.0]]), np.zeros(1))])
        penalty, grads = baselines.l2_penalty(net, 2.0)
        assert penalty == 9.0
        assert grads.vector.tolist() == [6.0, 0.0]

    def test_bias_invariance(self, rng):
        net = random_small_net(rng)
        p1, _ = baselines.l2_penalty(net, 1.0)
        for layer in net.layers:
            layer.biases += 100.0
        p2, _ = baselines.l2_penalty(net, 1.0)
        assert p1 == p2


class TestAdvLossTerm:
    def test_zero_perturbation_equals_nll(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 3, 4)
        loss, _ = baselines.adv_loss_term(net, x, y, np.zeros_like(x))
        assert abs(loss - nn.nll_loss(nn.forward(net, x)[0], y)[0]) < 1e-15

    def test_theta_gradient_finite_differences(self, rng):
        net = random_small_net(rng, [4, 5, 3])
        x = rng.standard_normal((3, 4))
        y = rng.integers(0, 3, 3)
        r = 0.1 * rng.standard_normal((3, 4))
        _, g = baselines.adv_loss_term(net, x, y, r)

        def loss():
            return baselines.adv_loss_term(net, x, y, r)[0]

        for analytic, arr in zip(g.parameter_grads(), net.parameters()):
            assert max_rel_err(analytic, numeric_grad(loss, arr), floor=1e-6) < 1e-4

    def test_adversarial_not_below_clean(self, rng):
        net = random_small_net(rng, [4, 8, 3])
        x = rng.standard_normal((1, 4))
        y = np.array([2])
        r = baselines.adv_perturbation(net, x, y, 1e-3, "l2")
        clean = nn.nll_loss(nn.forward(net, x)[0], y)[0]
        pert, _ = baselines.adv_loss_term(net, x, y, r)
        assert pert >= clean - 1e-9


def test_random_direction_hurts_less_than_searched(rng):
    # the searched direction should provoke a larger KL response than a
    # random one of the same size, on a non-degenerate model
    net = random_small_net(rng, [10, 20, 2])
    x = rng.standard_normal((20, 10))
    base = nn.predict_proba(net, x)
    cfg = VatConfig(epsilon=0.5, power_iterations=3)
    r_vadv = vat.gen_vap(net, x, cfg, rng, base=base)
    r_rand = baselines.random_perturbation(x, 0.5, rng)
    kl_vadv = divergence.delta_kl(net, x, r_vadv, base).mean()
    kl_rand = divergence.delta_kl(net, x, r_rand, base).mean()
    assert kl_rand < kl_vadv


@pytest.mark.parametrize("kind", baselines.KINDS)
def test_hyperparameters_are_the_ones_make_regularizer_keeps(kind):
    given = {"epsilon": 2.0, "keep_prob": 0.7, "xi": 1e-5, "power_iterations": 3}
    reg = baselines.make_regularizer(kind, weight=0.3, **given)
    assert reg.hyperparameters() == {name: given[name]
                                     for name in baselines.KINDS[kind].hyperparameters}
