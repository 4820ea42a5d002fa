import numpy as np
import pytest
from conftest import max_rel_err, numeric_grad, random_small_net

from vatlab import nn
from vatlab.errors import ConfigError, DataError, DimensionError, UsageError
from vatlab.numerics import make_rng, softmax


class TestForward:
    def test_zero_weights_give_uniform(self, rng):
        net = nn.init_mlp([3, 4, 5], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        logits, _ = nn.forward(net, rng.standard_normal((6, 3)))
        assert np.all(logits == 0.0)
        assert np.allclose(softmax(logits), 0.2)

    def test_identity_layer(self):
        net = nn.MlpNetwork([nn.Layer(np.eye(3), np.zeros(3))])
        x = np.arange(6.0).reshape(2, 3)
        logits, _ = nn.forward(net, x)
        assert np.array_equal(logits, x)

    def test_hand_computed_relu_chain(self):
        # 2-2-2 net: W1 = [[1,-1],[2,0]], b1 = [0,1]; W2 = [[1,1],[0,-1]], b2 = [0.5,0]
        net = nn.MlpNetwork([
            nn.Layer(np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([0.0, 1.0])),
            nn.Layer(np.array([[1.0, 1.0], [0.0, -1.0]]), np.array([0.5, 0.0])),
        ])
        # x = (1, 1): z1 = (3, 0), h = (3, 0); logits = (3.5, 3)
        logits, _ = nn.forward(net, np.array([[1.0, 1.0]]))
        assert np.allclose(logits, [[3.5, 3.0]])

    @pytest.mark.parametrize("sizes", [[5, 3], [5, 7, 3], [5, 7, 6, 3]])
    def test_matches_a_reference_loop(self, sizes, rng):
        # the bias and ReLU act in place on the product; the bits, the input
        # and the cache's separation from it are as with a new array for each
        net = random_small_net(rng, sizes)
        x = rng.standard_normal((9, sizes[0]))
        before = x.copy()
        reference, h = [], x
        for i, layer in enumerate(net.layers):
            h = h @ layer.weights + layer.biases
            h = np.maximum(h, 0.0) if i < len(net.layers) - 1 else h
            reference.append(h)
        logits, cache = nn.forward(net, x)
        assert logits.tobytes() == reference[-1].tobytes()
        assert [a.tobytes() for a in cache.activations] == [a.tobytes() for a in reference]
        assert x.tobytes() == before.tobytes()
        assert not any(np.shares_memory(a, x) for a in cache.activations)

    def test_shape_mismatch(self, rng):
        net = nn.init_mlp([3, 4, 2], rng)
        with pytest.raises(DimensionError):
            nn.forward(net, np.zeros((2, 5)))

    def test_tangent_pass_is_the_jacobian_product(self, rng):
        # off the ReLU kinks the logits are linear in the input along d, so
        # a central difference of two clean passes is J d up to round-off
        net = random_small_net(rng, [5, 7, 4, 3])
        x = rng.standard_normal((4, 5))
        d = rng.standard_normal((4, 5))
        _, cache = nn.forward(net, x)
        before = nn.propagation_counts()
        jd, returned = nn.forward(net, d, tangent_at=cache)
        assert returned is cache
        assert nn.propagation_counts() == (before[0] + 1, before[1])
        step = 1e-6
        hi, lo = nn.forward(net, x + step * d)[0], nn.forward(net, x - step * d)[0]
        assert max_rel_err(jd, (hi - lo) / (2 * step)) < 1e-6


class TestBackward:
    def test_zero_d_logits(self, rng):
        net = random_small_net(rng)
        x = rng.standard_normal((3, 4))
        logits, cache = nn.forward(net, x)
        g = net.zero_gradients()
        g.vector.fill(1.0)
        d_input = nn.backward(net, cache, np.zeros_like(logits), out=g)
        assert np.all(g.vector == 0)
        assert np.all(d_input == 0)

    def test_linear_net_input_gradient(self, rng):
        w = rng.standard_normal((4, 3))
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(3))])
        x = rng.standard_normal((2, 4))
        logits, cache = nn.forward(net, x)
        # loss = sum(logits) => d_input rows are the column sums of W^T
        d_input = nn.backward(net, cache, np.ones_like(logits))
        assert np.allclose(d_input, np.tile(w.sum(axis=1), (2, 1)))

    def test_matches_finite_differences(self, rng):
        net = random_small_net(rng, [5, 7, 4, 3])
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, 4)
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, y)
        g = net.zero_gradients()
        d_input = nn.backward(net, cache, d_logits, out=g)

        def loss():
            out, _ = nn.forward(net, x)
            return nn.nll_loss(out, y)[0]

        # every parameter array is a view of net.parameter_vector
        assert max_rel_err(g.vector, numeric_grad(loss, net.parameter_vector)) < 1e-6
        assert max_rel_err(d_input, numeric_grad(loss, x)) < 1e-6

    def test_skipping_input_grad_keeps_parameter_grads(self, rng):
        net = random_small_net(rng, [5, 7, 4, 3])
        x = rng.standard_normal((4, 5))
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, rng.integers(0, 3, 4))
        full, lean = net.zero_gradients(), net.zero_gradients()
        nn.backward(net, cache, d_logits, out=full)
        assert nn.backward(net, cache, d_logits, out=lean, input_grad=False) is None
        assert np.array_equal(full.vector, lean.vector)

    def test_out_bundle_is_written_in_place(self, rng):
        net = random_small_net(rng, [5, 7, 4, 3])
        x = rng.standard_normal((4, 5))
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, rng.integers(0, 3, 4))
        d_before = d_logits.copy()
        want = net.zero_gradients()
        want_input = nn.backward(net, cache, d_logits, out=want)
        out = net.zero_gradients()
        nn.backward(net, cache, np.ones_like(d_logits), out=out)  # overwritten below
        arrays = [*out.d_weights, *out.d_biases]
        got_input = nn.backward(net, cache, d_logits, out=out)
        for a, g in zip(arrays, [*out.d_weights, *out.d_biases]):
            assert a is g
        assert np.array_equal(out.vector, want.vector)
        assert np.array_equal(got_input, want_input)
        assert not np.shares_memory(got_input, d_logits)
        assert np.array_equal(d_logits, d_before)

    def test_new_bundle_is_laid_out_like_the_parameter_vector(self, rng):
        net = random_small_net(rng, [5, 7, 3])
        logits, cache = nn.forward(net, rng.standard_normal((4, 5)))
        got = net.zero_gradients()
        nn.backward(net, cache, logits, out=got, input_grad=False)
        assert got.vector.shape == net.parameter_vector.shape
        grads = [g for pair in zip(got.d_weights, got.d_biases) for g in pair]
        for g, p in zip(grads, net.parameters()):
            assert g.base is got.vector and g.shape == p.shape

    def test_input_only_backward_matches_full_input_gradient(self, rng):
        net = random_small_net(rng, [5, 7, 4, 3])
        logits, cache = nn.forward(net, rng.standard_normal((4, 5)))
        d_logits = rng.standard_normal(logits.shape)
        full = nn.backward(net, cache, d_logits, out=net.zero_gradients())
        lean = nn.backward(net, cache, d_logits)
        assert np.array_equal(lean, full)

    def test_stale_cache_rejected(self, rng):
        net = random_small_net(rng)
        other = random_small_net(rng)
        logits, cache = nn.forward(net, rng.standard_normal((2, 4)))
        with pytest.raises(UsageError):
            nn.backward(other, cache, np.zeros_like(logits))


class TestNllLoss:
    def test_uniform_ten_classes(self):
        loss = nn.nll_loss(np.zeros((4, 10)), np.array([0, 3, 5, 9]))[0]
        assert abs(loss - np.log(10)) < 1e-12

    def test_saturated_logit(self):
        loss = nn.nll_loss(np.array([[50.0, 0.0, 0.0]]), np.array([0]))[0]
        assert loss < 1e-12

    def test_hand_value(self):
        loss = nn.nll_loss(np.array([[1.0, 0.0]]), np.array([0]))[0]
        assert abs(loss - 0.313262) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nn.nll_loss(np.zeros((1, 3)), np.array([3]))

    def test_probabilities_are_the_softmax(self, rng):
        logits = 3.0 * rng.standard_normal((5, 4))
        proba = nn.nll_loss(logits, rng.integers(0, 4, 5))[2]
        assert np.array_equal(proba, softmax(logits))


class TestDropout:
    def test_keep_all(self, rng):
        x = rng.standard_normal((5, 8))
        assert np.array_equal(nn.apply_dropout(x, 1.0, rng), x)

    def test_empirical_keep_rate(self):
        rng = make_rng(3)
        x = np.ones((1000, 100))
        out = nn.apply_dropout(x, 0.7, rng)
        keep_rate = np.mean(out != 0)
        assert abs(keep_rate - 0.7) < 0.01

    def test_unbiased_expectation(self):
        rng = make_rng(4)
        x = np.full((2000, 50), 3.0)
        out = nn.apply_dropout(x, 0.5, rng)
        assert abs(out.mean() - 3.0) < 0.05

    def test_bad_probability(self, rng):
        with pytest.raises(ConfigError):
            nn.apply_dropout(np.ones((1, 1)), 0.0, rng)


def test_piecewise_linearity_off_kinks(rng):
    net = random_small_net(rng, [4, 8, 2])
    x = rng.standard_normal((1, 4))
    d = rng.standard_normal((1, 4))
    alpha = 1e-4
    f = lambda a: nn.forward(net, x + a * d)[0]
    mid, lo, hi = f(0.0), f(-alpha), f(alpha)
    assert np.allclose(2 * mid, lo + hi, atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    net = random_small_net(rng, [6, 5, 4, 3])
    path = tmp_path / "net.npz"
    nn.save_checkpoint(net, path)
    restored = nn.load_checkpoint(path)
    for a, b in zip(net.parameters(), restored.parameters()):
        assert np.array_equal(a, b)
    with np.load(path) as data:
        assert data["activations"].tolist() == ["relu", "relu", "identity"]


def test_init_shapes_and_scaling(rng):
    net = nn.init_mlp([100, 50, 10], rng)
    assert net.layers[0].weights.shape == (100, 50)
    assert np.all(net.layers[0].biases == 0)
    observed_std = net.layers[0].weights.std()
    assert abs(observed_std - np.sqrt(2.0 / 100)) < 0.02


class TestParameterVector:
    """Every network keeps its parameters in one float64 vector."""

    def test_parameters_are_views_of_one_vector_in_order(self, rng):
        net = nn.init_mlp([5, 7, 3], rng)
        vector = net.parameter_vector
        assert vector.ndim == 1 and vector.dtype == np.float64
        start = 0
        for p in net.parameters():
            assert p.base is vector and p.flags.c_contiguous
            assert p.ctypes.data == vector[start:].ctypes.data
            start += p.size
        assert start == vector.size
        vector += 1.0
        assert np.all(net.layers[0].biases == 1.0)

    def test_layers_passed_in_are_copied_into_a_new_vector(self):
        w, b = np.array([[1.0, 2.0]]), np.array([0.5, 0.0])
        net = nn.MlpNetwork([nn.Layer(w, b)])
        assert net.parameter_vector.tolist() == [1.0, 2.0, 0.5, 0.0]
        assert not np.shares_memory(w, net.parameter_vector)
        net.check_views()

    @pytest.mark.parametrize("source", ["separate-arrays", "another-network"])
    def test_construction_leaves_the_given_layers_alone(self, source, rng):
        # the network builds its own Layers on views of its own vector
        if source == "separate-arrays":
            given = [nn.Layer(rng.standard_normal((4, 6)), np.zeros(6)),
                     nn.Layer(rng.standard_normal((6, 3)), np.ones(3))]
        else:
            given = nn.init_mlp([4, 6, 3], rng).layers
        arrays = [(layer.weights, layer.biases) for layer in given]
        before = [(w.copy(), b.copy()) for w, b in arrays]
        net = nn.MlpNetwork(given)
        net.parameter_vector[:] += 1.0
        for layer, mine, (w, b), (w0, b0) in zip(given, net.layers, arrays, before):
            assert mine is not layer
            assert layer.weights is w and layer.biases is b
            assert np.array_equal(w, w0) and np.array_equal(b, b0)
            assert np.array_equal(mine.weights, w0 + 1.0)

    def test_init_draws_match_separate_arrays(self):
        # the same bits as rng.standard_normal(shape) * sqrt(2 / fan_in) per layer
        net = nn.init_mlp([5, 7, 3], make_rng(3))
        rng = make_rng(3)
        for layer, fan_in in zip(net.layers, (5, 7)):
            want = rng.standard_normal(layer.weights.shape) * np.sqrt(2.0 / fan_in)
            assert np.array_equal(layer.weights, want)

    def test_copy_and_checkpoint_own_their_vector(self, tmp_path, rng):
        net = random_small_net(rng, [6, 5, 3])
        path = tmp_path / "net.npz"
        nn.save_checkpoint(net, path)
        for other in (nn.MlpNetwork(net.layers), nn.load_checkpoint(path)):
            assert not np.shares_memory(other.parameter_vector, net.parameter_vector)
            assert all(p.base is other.parameter_vector for p in other.parameters())
            assert np.array_equal(other.parameter_vector, net.parameter_vector)

    @pytest.mark.parametrize("name", ["weights", "biases"])
    def test_rebound_layer_array_is_rejected(self, name, rng):
        net = random_small_net(rng, [4, 6, 3])
        layer = net.layers[1]
        getattr(layer, name)[...] += 1.0  # in place: still the vector's view
        net.check_views()
        setattr(layer, name, getattr(layer, name) + 1.0)
        with pytest.raises(UsageError):
            net.check_views()
        with pytest.raises(UsageError):
            net.zero_gradients()
