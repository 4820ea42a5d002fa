import numpy as np
import pytest

from vatlab.errors import ConfigError, UsageError
from vatlab.optim import Adam, DecaySchedule, MomentumSgd, schedule_rate


class TestSchedule:
    def test_step_zero_is_initial(self):
        assert schedule_rate(DecaySchedule(0.1, 0.5, 10), 0) == 0.1

    def test_plugin_value(self):
        assert abs(schedule_rate(DecaySchedule(0.002, 0.9, 500), 1000) - 0.00162) < 1e-12

    def test_constant_factor(self):
        s = DecaySchedule(0.3, 1.0, 5)
        assert all(schedule_rate(s, k) == 0.3 for k in range(20))

    def test_non_increasing(self):
        s = DecaySchedule(1.0, 0.95, 3)
        rates = [schedule_rate(s, k) for k in range(30)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("kwargs", [
        {"initial": 0.0}, {"initial": 1.0, "factor": 0.0},
        {"initial": 1.0, "factor": 1.5}, {"initial": 1.0, "period": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DecaySchedule(**kwargs)


class TestMomentumSgd:
    def test_zero_momentum_is_plain_sgd(self, rng):
        p_a = [rng.standard_normal((3, 2))]
        p_b = [p_a[0].copy()]
        g = [rng.standard_normal((3, 2))]
        opt = MomentumSgd(0.0, DecaySchedule(0.1))
        opt.step(p_a, g)
        p_b[0] -= 0.1 * g[0]
        assert np.array_equal(p_a[0], p_b[0])

    def test_damped_momentum_carry(self):
        # previous update 1, zero gradient, mu=0.9 -> next update 0.9
        p = [np.array([0.0])]
        opt = MomentumSgd(0.9, DecaySchedule(1.0))
        opt.prev_update = [np.array([1.0])]
        opt.step(p, [np.array([0.0])])
        assert np.allclose(opt.prev_update[0], 0.9)
        assert np.allclose(p[0], -0.9)

    def test_rate_decays_per_update(self):
        opt = MomentumSgd(0.0, DecaySchedule(1.0, 0.995, 1))
        p = [np.array([0.0])]
        opt.step(p, [np.array([1.0])])
        first = -p[0][0]
        p[0][0] = 0.0
        opt.step(p, [np.array([1.0])])
        assert np.isclose(-p[0][0], first * 0.995)

    def test_bad_momentum(self):
        with pytest.raises(ConfigError):
            MomentumSgd(1.0, DecaySchedule(1.0))


class TestAdam:
    def test_zero_gradient_zero_update(self):
        p = [np.array([1.0, 2.0])]
        before = p[0].copy()
        Adam(DecaySchedule(0.01)).step(p, [np.zeros(2)])
        assert np.array_equal(p[0], before)

    def test_constant_gradient_step_magnitude(self):
        # with a constant gradient the bias-corrected step approaches the base rate
        p = [np.array([0.0])]
        opt = Adam(DecaySchedule(0.01))
        prev = 0.0
        for _ in range(500):
            prev = p[0][0]
            opt.step(p, [np.array([1.0])])
        assert abs((prev - p[0][0]) / 0.01 - 1.0) < 1e-3

    def test_sign_equivariance(self, rng):
        g = [rng.standard_normal((4,))]
        p_a = [np.zeros(4)]
        p_b = [np.zeros(4)]
        Adam(DecaySchedule(0.01)).step(p_a, g)
        Adam(DecaySchedule(0.01)).step(p_b, [-g[0]])
        assert np.allclose(p_a[0], -p_b[0], atol=1e-15)

    def test_non_contiguous_parameter_rejected(self):
        # the blocked update writes through a flat view, which a transposed
        # array does not have
        p = [np.zeros((3, 4)).T]
        with pytest.raises(UsageError):
            Adam(DecaySchedule(0.01)).step(p, [np.ones((4, 3))])
        assert np.all(p[0] == 0.0)

    def test_validation_schedule_values(self):
        # base rate 0.002 decaying x0.9 every 500 updates
        opt = Adam(DecaySchedule(0.002, 0.9, 500))
        assert schedule_rate(opt.schedule, 0) == 0.002
        assert abs(schedule_rate(opt.schedule, 500) - 0.0018) < 1e-15


def test_in_place_updates_match_textbook_expressions(rng):
    # the optimizers update their state in place; each must round exactly
    # like the update written out as plain expressions
    shapes = [(3, 2), (2,), (131, 257)]  # the last spans three ADAM blocks
    params = {name: [rng.standard_normal(s) for s in shapes] for name in ("sgd", "adam")}
    ref = {name: [p.copy() for p in ps] for name, ps in params.items()}
    sgd = MomentumSgd(0.9, DecaySchedule(0.5, 0.99, 2))
    adam = Adam(DecaySchedule(0.01, 0.9, 3))
    delta = [np.zeros(s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        sgd.step(params["sgd"], grads)
        adam.step(params["adam"], grads)
        gamma = 0.5 * 0.99 ** ((t - 1) // 2)
        rate = 0.01 * 0.9 ** ((t - 1) // 3)
        for i, g in enumerate(grads):
            delta[i] = 0.9 * delta[i] + (1.0 - 0.9) * gamma * g
            ref["sgd"][i] = ref["sgd"][i] - delta[i]
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
            m_hat = m[i] / (1.0 - 0.9 ** t)
            v_hat = v[i] / (1.0 - 0.999 ** t)
            ref["adam"][i] = ref["adam"][i] - rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        for name in ("sgd", "adam"):
            for got, want in zip(params[name], ref[name]):
                assert np.array_equal(got, want), (name, t)
        for got, want in zip(sgd.prev_update, delta):
            assert np.array_equal(got, want)
        for got_m, got_v, want_m, want_v in zip(adam.m, adam.v, m, v):
            assert np.array_equal(got_m, want_m) and np.array_equal(got_v, want_v)
