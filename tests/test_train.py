import tracemalloc

import numpy as np
import pytest
from conftest import clean_pass, random_small_net

from vatlab import baselines, data as dm, divergence, nn, train as tm, vat
from vatlab.baselines import Regularizer
from vatlab.errors import ConfigError, NumericError, UsageError
from vatlab.numerics import make_rng, softmax
from vatlab.optim import Adam, DecaySchedule, MomentumSgd
from vatlab.train import TrainConfig, evaluate, grid_search, supervised_step
from vatlab.vat import VatConfig

MLE = Regularizer(kind="none", weight=0.0)
PENALIZED = {
    "none": MLE,
    "l2_decay": Regularizer(kind="l2_decay", weight=0.1),
    "dropout": Regularizer(kind="dropout", keep_prob=0.5, weight=0.0),
    "random_perturbation": Regularizer(kind="random_perturbation", weight=0.7, epsilon=0.5),
    "adversarial_linf": Regularizer(kind="adversarial_linf", weight=0.7, epsilon=0.1),
    "adversarial_l2": Regularizer(kind="adversarial_l2", weight=0.7, epsilon=0.5),
    "vat": Regularizer(kind="vat", weight=0.7, vat=VatConfig(epsilon=0.5)),
}


class Probe:
    """Optimizer stand-in that records the gradient of the last step."""
    grads = None

    def step(self, params, grads):
        self.grads = grads.copy()


def small_config(reg=MLE, **kwargs):
    defaults = dict(input_dim=4, hidden_sizes=[8], n_classes=3, regularizer=reg,
                    total_updates=20, seed=3)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def toy_batch(rng, n=10, dim=4, classes=3):
    return rng.standard_normal((n, dim)), rng.integers(0, classes, n)


class TestSupervisedStep:
    def test_zero_weight_vat_equals_mle(self, rng):
        x, y = toy_batch(rng)
        vat_reg = Regularizer(kind="vat", weight=0.0, vat=VatConfig(epsilon=0.5))
        net_a, _ = tm.train_supervised(small_config(MLE), x, y)
        net_b, _ = tm.train_supervised(small_config(vat_reg), x, y)
        for a, b in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["vat", "random_perturbation",
                                      "adversarial_linf", "adversarial_l2"])
    def test_gradient_additivity(self, kind, rng):
        # the applied step, which shares the likelihood pass with the penalty,
        # must equal the sum of the separately computed likelihood and
        # penalty gradients bit for bit
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        reg = PENALIZED[kind]

        from vatlab import baselines, divergence, vat as vatmod
        step_rng = make_rng(99)
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, y)
        nll_grads, reg_grads = net.zero_gradients(), net.zero_gradients()
        nn.backward(net, cache, d_logits, out=nll_grads)
        if kind in ("vat", "random_perturbation"):
            base = nn.predict_proba(net, x)
            if kind == "vat":
                r = vatmod.gen_vap(net, cache, reg.vat, step_rng, base=base)
            else:
                r = baselines.random_perturbation(x, reg.epsilon, step_rng)
            vatmod.vat_backward(net, x, r, base=base, out=reg_grads)
        else:
            norm = "linf" if kind == "adversarial_linf" else "l2"
            r = baselines.adv_perturbation(net, x, y, reg.epsilon, norm)
            baselines.adv_loss_term(net, x, y, r, out=reg_grads)
        expected = nll_grads.vector + reg.weight * reg_grads.vector

        probe = Probe()
        supervised_step(net, x, y, reg, probe, make_rng(99))
        # the optimizer sees one gradient vector, in parameters() order
        assert np.array_equal(probe.grads, expected)

    @pytest.mark.parametrize("kind, counts", [
        ("none", (1, 1)), ("l2_decay", (1, 1)), ("dropout", (1, 1)),
        ("random_perturbation", (2, 2)), ("adversarial_linf", (2, 2)),
        ("adversarial_l2", (2, 2)), ("vat", (3, 3)), ("vat-semisup", (4, 3)),
    ])
    def test_propagations_per_update(self, kind, counts, rng):
        # the penalty reuses the likelihood pass unless it runs on its own batch
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        x_reg = rng.standard_normal((6, 4)) if kind == "vat-semisup" else None
        reg = PENALIZED["vat" if kind == "vat-semisup" else kind]
        fwd, bwd = nn.propagation_counts()
        supervised_step(net, x, y, reg, Probe(), make_rng(0), x_reg=x_reg)
        after = nn.propagation_counts()
        assert (after[0] - fwd, after[1] - bwd) == counts

    def test_one_step_scalar_reference(self):
        # 2-2 linear net, one SGD step from rest, checked end to end
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        net = nn.MlpNetwork([nn.Layer(w.copy(), np.zeros(2))])
        x = np.array([[1.0, 2.0]])
        y = np.array([0])
        from vatlab.optim import MOMENTUM, MomentumSgd
        opt = MomentumSgd(DecaySchedule(0.5))
        supervised_step(net, x, y, MLE, opt, make_rng(0))
        # softmax at logits (1, 2): p = (p0, p1); dW = x^T (p - onehot)
        p = softmax(np.array([[1.0, 2.0]]))[0]
        expected_w = w - (1.0 - MOMENTUM) * 0.5 * np.outer([1.0, 2.0], p - np.array([1.0, 0.0]))
        assert np.allclose(net.layers[0].weights, expected_w, atol=1e-12)


def _state(net, opt) -> list:
    """Copies of the parameters and the optimizer's state arrays, and its step count."""
    arrays = [opt.prev_update] if isinstance(opt, MomentumSgd) else [opt.m, opt.v]
    return [a.copy() for a in [net.parameter_vector] + arrays] + [opt.step_count]


def _same_state(a, b) -> bool:
    return a[-1] == b[-1] and all(np.array_equal(p, q) for p, q in zip(a[:-1], b[:-1]))


class TestNonFiniteUpdate:
    """A non-finite loss stops the update before any parameter or state moves."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", sorted(PENALIZED))
    def test_nan_input_row(self, kind, optimizer, rng):
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        opt = (MomentumSgd(DecaySchedule(0.1)) if optimizer == "sgd"
               else Adam(DecaySchedule(0.01)))
        supervised_step(net, x, y, PENALIZED[kind], opt, make_rng(0))
        before = _state(net, opt)
        x[3, 1] = np.nan
        with pytest.raises(NumericError):
            supervised_step(net, x, y, PENALIZED[kind], opt, make_rng(1))
        assert _same_state(before, _state(net, opt))

    @pytest.mark.parametrize("reg", [
        Regularizer(kind="vat", vat=VatConfig(epsilon=1e308)),
        Regularizer(kind="random_perturbation", epsilon=1e308),
        Regularizer(kind="adversarial_l2", epsilon=1e308),
    ], ids=lambda reg: reg.kind)
    def test_overflowing_penalty_pass(self, reg, rng):
        # finite inputs, but the perturbed logits overflow: only the penalty
        # value shows it
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        opt = MomentumSgd(DecaySchedule(0.1))
        supervised_step(net, x, y, MLE, opt, make_rng(0))
        before = _state(net, opt)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            supervised_step(net, x, y, reg, opt, make_rng(1))
        assert _same_state(before, _state(net, opt))


ALLOCATION_KINDS = ["none", "dropout", "random_perturbation", "adversarial_linf",
                    "adversarial_l2", "vat", "vat-semisup", "l2_decay"]


def _optimizer(name):
    return (MomentumSgd(DecaySchedule(0.1)) if name == "sgd"
            else Adam(DecaySchedule(0.01)))


def _buffers(net):
    return net.zero_gradients(), net.zero_gradients()


class TestGradientBuffers:
    """The step writes its gradients into the bundles the caller passes as out."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", [*sorted(PENALIZED), "vat-semisup"])
    def test_reused_buffers_match_fresh_ones(self, kind, optimizer, rng):
        # three steps writing into one pair of bundles equal, bit for bit,
        # the same steps writing into new bundles each time
        x, y = toy_batch(rng)
        x_reg = rng.standard_normal((6, 4)) if kind == "vat-semisup" else None
        reg = PENALIZED["vat" if kind == "vat-semisup" else kind]
        start = random_small_net(rng, [4, 8, 3])

        def run(reuse):
            net, opt, step_rng = nn.MlpNetwork(start.layers), _optimizer(optimizer), make_rng(5)
            out = _buffers(net) if reuse else None
            for _ in range(3):
                supervised_step(net, x, y, reg, opt, step_rng, x_reg=x_reg, out=out)
            return net

        reused, fresh = run(True), run(False)
        assert np.array_equal(reused.parameter_vector, fresh.parameter_vector)

    def test_the_optimizer_reads_the_likelihood_bundle(self, rng):
        # the penalty's vector is added into the likelihood's, which the
        # optimizer receives
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        out, seen = _buffers(net), []

        class Recorder:
            def step(self, params, grads):
                seen.append(grads)

        supervised_step(net, x, y, PENALIZED["vat"], Recorder(), make_rng(0), out=out)
        assert len(seen) == 1 and seen[0] is out[0].vector
        assert np.any(out[1].vector != 0)

    def test_training_rejects_a_rebound_layer_array(self, rng):
        # the optimizer moves the parameter vector, which a rebound array has left
        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        net.layers[0].weights = net.layers[0].weights.copy()
        with pytest.raises(UsageError):
            supervised_step(net, x, y, MLE, _optimizer("sgd"), make_rng(0))

    @pytest.mark.parametrize("kind, optimizer", [
        *[pytest.param(kind, "adam", id=kind) for kind in ALLOCATION_KINDS],
        *[pytest.param(kind, "sgd", id=f"{kind}-sgd") for kind in ALLOCATION_KINDS],
    ])
    def test_steady_state_update_allocates_no_weight_sized_array(self, kind, optimizer, rng):
        # a 200-300-10 net on 4 rows: the 60,000-element first weight matrix
        # dwarfs every batch-sized array, so a traced peak below half its
        # size means no gradient or temporary of its size was made
        x, y = toy_batch(rng, n=4, dim=200, classes=10)
        x_reg = rng.standard_normal((4, 200)) if kind == "vat-semisup" else None
        reg = PENALIZED["vat" if kind == "vat-semisup" else kind]
        net = nn.init_mlp([200, 300, 10], rng)
        opt, step_rng, out = _optimizer(optimizer), make_rng(0), _buffers(net)
        for _ in range(2):
            supervised_step(net, x, y, reg, opt, step_rng, x_reg=x_reg, out=out)
        tracemalloc.start()
        try:
            supervised_step(net, x, y, reg, opt, step_rng, x_reg=x_reg, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < net.layers[0].weights.nbytes / 2


class TestKindsTable:
    """baselines.KINDS holds every per-kind decision of a training update."""

    def test_a_new_row_is_all_a_new_kind_needs(self, monkeypatch, rng):
        # L2 decay of strength epsilon, weighted by the regularizer's weight,
        # that asks for the likelihood pass's input gradient and for labels
        seen = []

        def penalty(net, reg, x, y, rng, clean, out):
            seen.append(clean[1].shape)
            return baselines.l2_penalty(net, reg.epsilon, out=out), reg.weight

        monkeypatch.setitem(baselines.KINDS, "scaled_l2", baselines.Kind(
            ("epsilon",), needs_labels=True, reads_input_grad=True, penalty=penalty))
        reg = baselines.make_regularizer("scaled_l2", weight=0.5, epsilon=0.2, keep_prob=0.7)
        assert reg == Regularizer(kind="scaled_l2", weight=0.5, epsilon=0.2)
        assert reg.hyperparameters() == {"epsilon": 0.2}
        with pytest.raises(ConfigError):
            Regularizer(kind="scaled_l2", epsilon=0.0)

        x, y = toy_batch(rng)
        net = random_small_net(rng, [4, 8, 3])
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, y)
        nll_grads, decay_grads = net.zero_gradients(), net.zero_gradients()
        nn.backward(net, cache, d_logits, out=nll_grads)
        decay = baselines.l2_penalty(net, 0.2, out=decay_grads)
        probe = Probe()
        losses = supervised_step(net, x, y, reg, probe, make_rng(0))
        assert seen == [x.shape]
        assert losses["reg"] == decay
        assert np.array_equal(probe.grads, nll_grads.vector + decay_grads.vector * 0.5)
        with pytest.raises(ConfigError):
            supervised_step(net, x, y, reg, probe, make_rng(0), x_reg=x)

        _, record = tm.train_supervised(small_config(reg, total_updates=3), x, y)
        assert len(seen) == 4 and record.final["reg"] > 0

    @pytest.mark.parametrize("kind", sorted(baselines.KINDS))
    def test_a_copied_row_trains_like_its_original(self, kind, monkeypatch, rng):
        # nothing outside the table tells one kind from another
        monkeypatch.setitem(baselines.KINDS, "copy", baselines.KINDS[kind])
        given = dict(weight=0.3, epsilon=0.5, keep_prob=0.7)
        x, y = toy_batch(rng)
        nets = [tm.train_supervised(small_config(baselines.make_regularizer(name, **given)),
                                    x, y)[0] for name in (kind, "copy")]
        assert np.array_equal(nets[0].parameter_vector, nets[1].parameter_vector)


class TestSemisupStep:
    """supervised_step with a separate regularizer batch x_reg."""

    def test_reduces_to_supervised_on_same_batch(self, rng):
        # a penalty on a copy of x, with its own passes, gives the same update
        # as the penalty that shares the likelihood pass
        x, y = toy_batch(rng)
        reg = Regularizer(kind="vat", weight=1.0, vat=VatConfig(epsilon=0.5))
        net_a = random_small_net(make_rng(1), [4, 8, 3])
        net_b = nn.MlpNetwork(net_a.layers)
        from vatlab.optim import MomentumSgd
        opt_a = MomentumSgd(DecaySchedule(0.1))
        opt_b = MomentumSgd(DecaySchedule(0.1))
        supervised_step(net_a, x, y, reg, opt_a, make_rng(7))
        supervised_step(net_b, x, y, reg, opt_b, make_rng(7), x_reg=x.copy())
        for a, b in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b)

    def test_rejects_label_requiring_regularizer(self, rng):
        x, y = toy_batch(rng)
        reg = Regularizer(kind="adversarial_l2", epsilon=0.5)
        from vatlab.optim import MomentumSgd
        with pytest.raises(ConfigError):
            supervised_step(random_small_net(rng, [4, 8, 3]), x, y, reg,
                            MomentumSgd(DecaySchedule(0.1)), rng, x_reg=x)

    def test_unlabeled_rows_skip_likelihood(self, rng):
        # the NLL component must be computed from the labeled batch alone
        x, y = toy_batch(rng, n=4)
        x_reg = rng.standard_normal((6, 4))
        net = random_small_net(rng, [4, 8, 3])
        reg = Regularizer(kind="vat", weight=0.0, vat=VatConfig(epsilon=0.5))

        probe = Probe()
        supervised_step(net, x, y, reg, probe, make_rng(0), x_reg=x_reg)
        logits, cache = nn.forward(net, x)
        _, d_logits, _ = nn.nll_loss(logits, y)
        expected = net.zero_gradients()
        nn.backward(net, cache, d_logits, out=expected)
        assert np.array_equal(probe.grads, expected.vector)

    def test_l2_decay_applies(self, rng):
        # weight decay needs no labels, so the semi-supervised loop keeps it
        ds, _ = dm.make_synthetic_dataset("moons", make_rng(0), n_unlabeled=40)
        base = dict(input_dim=100, hidden_sizes=[10], n_classes=2,
                    total_updates=20, reg_batch_size=8, seed=1)
        net_mle, _ = tm.train_semisup(TrainConfig(regularizer=MLE, **base), ds)
        l2 = Regularizer(kind="l2_decay", weight=0.1)
        net_l2, _ = tm.train_semisup(TrainConfig(regularizer=l2, **base), ds)
        assert not all(np.array_equal(a, b) for a, b in
                       zip(net_mle.parameters(), net_l2.parameters()))


class TestEvaluate:
    def test_perfect_classifier(self):
        w = np.array([[10.0, -10.0]])
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(2))])
        x = np.array([[1.0], [-1.0]])
        y = np.array([0, 1])
        assert evaluate(net, x, y, with_lds=False)["error"] == 0.0

    def test_uniform_predictor_error_rate(self):
        rng = make_rng(0)
        # fixed random logit assignment over balanced 10-class samples
        w = rng.standard_normal((20, 10))
        net = nn.MlpNetwork([nn.Layer(w, np.zeros(10))])
        x = rng.standard_normal((10_000, 20))
        y = np.repeat(np.arange(10), 1000)
        err = evaluate(net, x, y, with_lds=False)["error"]
        assert abs(err - 0.9) < 0.01

    def test_memory_of_a_prediction(self, rng):
        # 1000 x 100 rows through a 100-100-2 net: the hidden layer's one
        # array is 0.8 MB; its product, bias sum and ReLU output took 1.67 MB
        net = nn.init_mlp([100, 100, 2], rng)
        x, y = rng.standard_normal((1000, 100)), rng.integers(0, 2, 1000)
        evaluate(net, x, y, with_lds=False)
        tracemalloc.start()
        try:
            evaluate(net, x, y, with_lds=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6

    def test_memory_of_a_split_larger_than_a_block(self, rng):
        # in one batch the search held about 39 copies of a block's inputs
        # here; in blocks it holds about 8, however many rows the split has
        n = 6 * tm.EVAL_BLOCK
        net = nn.init_mlp([64, 64, 10], rng)
        x, y = rng.standard_normal((n, 64)), rng.integers(0, 10, n)
        tracemalloc.start()
        try:
            out = evaluate(net, x, y, rng=make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * x[:tm.EVAL_BLOCK].nbytes
        # the same numbers as one batch: the mismatch count exactly, the mean
        # estimate up to how OpenBLAS rounds products of fewer rows
        cache, proba = clean_pass(net, x)
        assert out["error"] == float((proba.argmax(axis=1) != y).mean())
        r_vadv = vat.gen_vap(net, cache, tm.EVAL_VAT, make_rng(1), base=proba)
        one_batch = float(-divergence.delta_kl(net, x, r_vadv, proba).mean())
        assert abs(out["mean_lds"] - one_batch) < 1e-12

    def test_constant_network_lds_zero(self, rng):
        net = nn.init_mlp([4, 3, 2], rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
        out = evaluate(net, rng.standard_normal((5, 4)), None, rng=rng)
        assert out["mean_lds"] == 0.0

    def test_default_generator_is_seed_zero(self, rng):
        net = random_small_net(rng, [4, 8, 3])
        x, y = toy_batch(rng)
        assert evaluate(net, x, y) == evaluate(net, x, y, rng=make_rng(0))

    def test_lds_reuses_the_prediction_pass(self, rng):
        # one pass predicts and is the smoothness estimate's base; then 5
        # power iterations of a forward/backward pair and one final forward
        net = random_small_net(rng, [4, 8, 3])
        x, y = toy_batch(rng)
        fwd, bwd = nn.propagation_counts()
        evaluate(net, x, y, rng=make_rng(0))
        after = nn.propagation_counts()
        assert (after[0] - fwd, after[1] - bwd) == (7, 5)


class TestTrainingLoops:
    def test_determinism(self, rng):
        x, y = toy_batch(rng, n=12)
        cfg = small_config(Regularizer(kind="vat", vat=VatConfig(epsilon=0.5)),
                           total_updates=15)
        net_a, rec_a = tm.train_supervised(cfg, x, y)
        net_b, rec_b = tm.train_supervised(cfg, x, y)
        for a, b in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(a, b)
        assert rec_a.rows == rec_b.rows

    @pytest.mark.parametrize("semisup", [False, True])
    def test_record_lds_leaves_weights_unchanged(self, semisup):
        ds, _ = dm.make_synthetic_dataset("moons", make_rng(2), n_unlabeled=20)
        cfg = TrainConfig(input_dim=100, hidden_sizes=[10], n_classes=2,
                          regularizer=Regularizer(kind="vat", vat=VatConfig(epsilon=0.5)),
                          total_updates=20, eval_every=5, reg_batch_size=8, seed=4)
        tx, ty = ds.subset("labeled")
        sx, sy = ds.subset("test")

        def fit(record_lds):
            if semisup:
                return tm.train_semisup(cfg, ds, record_lds=record_lds)
            return tm.train_supervised(cfg, tx, ty, sx, sy, record_lds=record_lds)

        (net_off, _), (net_on, record) = fit(False), fit(True)
        assert record.final["train_lds"] is not None
        for a, b in zip(net_off.parameters(), net_on.parameters()):
            assert np.array_equal(a, b)

    def test_record_csv(self, tmp_path, rng):
        x, y = toy_batch(rng)
        cfg = small_config(total_updates=10, eval_every=5)
        _, record = tm.train_supervised(cfg, x, y)
        path = tmp_path / "rec.csv"
        record.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "update,train_err,test_err,train_lds,test_lds,nll,reg"
        assert len(lines) == 3  # updates 5 and 10

    def test_semisup_minibatches_do_not_copy_the_pool(self):
        # 16 labeled and 19,984 unlabeled rows of width 100, regularized 50 rows at a time
        rng = make_rng(0)
        n = 20_000
        labeled = np.arange(n) < 16
        ds = dm.Dataset(rng.standard_normal((n, 100)), np.where(labeled, np.arange(n) % 2, -1),
                        np.where(labeled, "labeled", "unlabeled"))
        cfg = TrainConfig(input_dim=100, hidden_sizes=[10], n_classes=2,
                          regularizer=Regularizer(kind="vat", vat=VatConfig(epsilon=0.5)),
                          total_updates=3, reg_batch_size=50, seed=0)
        tracemalloc.start()
        try:
            tm.train_semisup(cfg, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.inputs.nbytes / 2

    def test_semisup_beats_plain_supervised_on_moons(self):
        # 16 labels, no regularizer vs 16 labels + 1000 unlabeled with the
        # smoothness penalty, paired over 6 seeds. The assertion measures the
        # penalty and the pool together against MLE; the third arm, the
        # penalty on the 16 labeled rows alone, is only reported.
        sup_errs, vat_errs, semi_errs = [], [], []
        for seed in range(6):
            data_rng = make_rng(seed)
            ds, _ = dm.make_synthetic_dataset("moons", data_rng, n_unlabeled=1000)
            vat_reg = Regularizer(kind="vat", vat=VatConfig(epsilon=0.5))
            base = dict(input_dim=100, hidden_sizes=[100], n_classes=2,
                        total_updates=500, seed=seed, reg_batch_size=250)
            tx, ty = ds.subset("labeled")
            sx, sy = ds.subset("test")
            net_sup, _ = tm.train_supervised(TrainConfig(regularizer=MLE, **base),
                                             tx, ty)
            net_vat, _ = tm.train_supervised(TrainConfig(regularizer=vat_reg, **base),
                                             tx, ty)
            net_semi, _ = tm.train_semisup(TrainConfig(regularizer=vat_reg, **base),
                                           ds)
            sup_errs.append(evaluate(net_sup, sx, sy, with_lds=False)["error"])
            vat_errs.append(evaluate(net_vat, sx, sy, with_lds=False)["error"])
            semi_errs.append(evaluate(net_semi, sx, sy, with_lds=False)["error"])
        # a report, not a gate: on how many seeds the pool lowers (wins) or
        # keeps (ties) the supervised penalty's test error
        vat, semi = np.asarray(vat_errs), np.asarray(semi_errs)
        print(f"INFO: moons mean test error over {vat.size} seeds: MLE "
              f"{np.mean(sup_errs):.4f}, VAT {vat.mean():.4f}, VAT + pool {semi.mean():.4f}; "
              f"pool wins/ties {int(np.sum(semi < vat))}/{int(np.sum(semi == vat))}")
        assert np.mean(semi_errs) < np.mean(sup_errs)


class TestGridSearch:
    def _make_data(self, seed):
        rng = make_rng(seed)
        x, y = rng.standard_normal((30, 4)), rng.integers(0, 3, 30)
        vx, vy = rng.standard_normal((30, 4)), rng.integers(0, 3, 30)
        return x, y, vx, vy

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search([], self._make_data, 1)

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_no_repetitions_rejected(self, repetitions):
        # with none, every mean is nan and the first config would win
        with pytest.raises(ConfigError):
            grid_search([small_config(), small_config()], self._make_data, repetitions)

    def test_singleton_grid(self):
        cfg = small_config(total_updates=5)
        assert grid_search([cfg], self._make_data, repetitions=2) is cfg

    def test_selects_lower_validation_error(self):
        # a config that cannot learn (zero updates worth of rate) vs a normal one
        good = small_config(total_updates=30)
        bad = small_config(total_updates=1)

        def separable(seed):
            rng = make_rng(seed)
            x = rng.standard_normal((40, 4))
            y = (x[:, 0] > 0).astype(int)
            vx = rng.standard_normal((40, 4))
            vy = (vx[:, 0] > 0).astype(int)
            return x, y, vx, np.where(vy < 2, vy, 0)

        assert grid_search([bad, good], separable, repetitions=3) is good


def test_config_rejects_negative_eval_every():
    # 0 means the final evaluation only; a negative value evaluated every update
    with pytest.raises(ConfigError):
        small_config(eval_every=-1)
