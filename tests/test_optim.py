import numpy as np
import pytest

from vatlab.errors import ConfigError, DimensionError, UsageError
from vatlab.optim import MOMENTUM, Adam, DecaySchedule, MomentumSgd, schedule_rate


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
    def test_first_step_is_damped_sgd(self, rng):
        # no earlier update to carry: the step is (1 - mu) * rate * g
        p_a = rng.standard_normal((3, 2))
        p_b = p_a.copy()
        g = rng.standard_normal((3, 2))
        opt = MomentumSgd(DecaySchedule(0.1))
        opt.step(p_a, g)
        p_b -= (1.0 - MOMENTUM) * 0.1 * g
        assert np.array_equal(p_a, p_b)

    def test_damped_momentum_carry(self):
        # previous update 1, zero gradient, mu=0.9 -> next update 0.9
        p = np.array([0.0])
        opt = MomentumSgd(DecaySchedule(1.0))
        opt.prev_update = np.array([1.0])
        opt.step(p, np.array([0.0]))
        assert np.allclose(opt.prev_update, 0.9)
        assert np.allclose(p, -0.9)

    def test_rate_decays_per_update(self):
        # an update less mu times the one before it is its gradient term,
        # (1 - mu) * rate * g, whose rate falls by 0.995 per update
        opt = MomentumSgd(DecaySchedule(1.0, 0.995, 1))
        p = np.array([0.0])
        updates = []
        for _ in range(3):
            opt.step(p, np.array([1.0]))
            updates.append(opt.prev_update[0])
        terms = [updates[0]] + [b - MOMENTUM * a for a, b in zip(updates, updates[1:])]
        assert np.isclose(terms[0], 1.0 - MOMENTUM)
        assert np.allclose(terms[1:], [terms[0] * 0.995, terms[0] * 0.995 ** 2])
        assert np.isclose(-p[0], sum(updates))


class TestAdam:
    def test_zero_gradient_zero_update(self):
        p = np.array([1.0, 2.0])
        before = p.copy()
        Adam(DecaySchedule(0.01)).step(p, np.zeros(2))
        assert np.array_equal(p, before)

    def test_constant_gradient_step_magnitude(self):
        # with a constant gradient the bias-corrected step approaches the base rate
        p = np.array([0.0])
        opt = Adam(DecaySchedule(0.01))
        prev = 0.0
        for _ in range(500):
            prev = p[0]
            opt.step(p, np.array([1.0]))
        assert abs((prev - p[0]) / 0.01 - 1.0) < 1e-3

    def test_sign_equivariance(self, rng):
        g = rng.standard_normal((4,))
        p_a = np.zeros(4)
        p_b = np.zeros(4)
        Adam(DecaySchedule(0.01)).step(p_a, g)
        Adam(DecaySchedule(0.01)).step(p_b, -g)
        assert np.allclose(p_a, -p_b, atol=1e-15)

    def test_non_contiguous_parameter_rejected(self):
        # the blocked update writes through a flat view, which a transposed
        # array does not have; nothing moves before the check
        p = np.zeros((3, 4)).T
        opt = Adam(DecaySchedule(0.01))
        with pytest.raises(UsageError):
            opt.step(p, np.ones((4, 3)))
        assert np.all(p == 0.0)
        assert opt.step_count == 0 and opt.m is None and opt.v is None

    def test_validation_schedule_values(self):
        # base rate 0.002 decaying x0.9 every 500 updates
        opt = Adam(DecaySchedule(0.002, 0.9, 500))
        assert schedule_rate(opt.schedule, 0) == 0.002
        assert abs(schedule_rate(opt.schedule, 500) - 0.0018) < 1e-15


def _state(opt):
    """step_count and the values of the optimizer's arrays (None before the first step)."""
    arrays = [opt.prev_update] if isinstance(opt, MomentumSgd) else [opt.m, opt.v]
    return opt.step_count, [None if a is None else a.tolist() for a in arrays]


@pytest.mark.parametrize("make", [lambda: MomentumSgd(DecaySchedule(0.1)),
                                  lambda: Adam(DecaySchedule(0.1))], ids=["sgd", "adam"])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-a-step"])
def test_bad_gradients_leave_everything_unchanged(make, warm):
    # the gradient's shape is checked before anything moves
    opt = make()
    params = np.zeros(8)
    if warm:
        opt.step(params, np.ones(8))
    before = params.copy(), _state(opt)
    with pytest.raises(DimensionError):
        opt.step(params, np.ones(7))
    assert np.array_equal(params, before[0])
    assert _state(opt) == before[1]


def test_in_place_updates_match_textbook_expressions(rng):
    # the optimizers update their state in place; each must round exactly
    # like the update written out as plain expressions
    size = 131 * 257  # spans three ADAM blocks
    params = {name: rng.standard_normal(size) for name in ("sgd", "adam")}
    ref = {name: p.copy() for name, p in params.items()}
    sgd = MomentumSgd(DecaySchedule(0.5, 0.99, 2))
    adam = Adam(DecaySchedule(0.01, 0.9, 3))
    delta, m, v = np.zeros(size), np.zeros(size), np.zeros(size)
    for t in range(1, 6):
        g = rng.standard_normal(size)
        sgd.step(params["sgd"], g)
        adam.step(params["adam"], g)
        gamma = 0.5 * 0.99 ** ((t - 1) // 2)
        rate = 0.01 * 0.9 ** ((t - 1) // 3)
        delta = 0.9 * delta + (1.0 - 0.9) * gamma * g
        ref["sgd"] = ref["sgd"] - delta
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref["adam"] = ref["adam"] - rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        for name in ("sgd", "adam"):
            assert np.array_equal(params[name], ref[name]), (name, t)
        assert np.array_equal(sgd.prev_update, delta)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
