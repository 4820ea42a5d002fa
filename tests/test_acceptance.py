"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline;
they also appear in captured output on failure). The two MNIST checks skip
with an explanatory line when no IDX files are available; everything else
runs from scratch on CPU.
"""

import os

import numpy as np
import pytest
from conftest import (dominant_eigenvector, kl_hessian, logistic_net, numeric_grad,
                      random_small_net)

from vatlab import baselines, data as dm, divergence, nn, vat
from vatlab.baselines import Regularizer, make_regularizer
from vatlab.errors import DataError
from vatlab.numerics import make_rng, log_softmax
from vatlab.optim import DecaySchedule
from vatlab.train import TrainConfig, evaluate, run_errors, train_semisup, train_supervised
from vatlab.vat import VatConfig


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def rel_errs(analytic, numeric, floor=1e-6):
    # floor guards the denominator for coordinates that are essentially zero
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), floor)
    return np.abs(analytic - numeric) / denom


class TestGradientFidelity:
    """Analytic gradients vs central finite differences, 20 random nets."""

    def test_all_backward_paths(self):
        worst = 0.0
        for trial in range(20):
            rng = make_rng(1000 + trial)
            net = random_small_net(rng, [3, 5, 3])
            x = 0.5 * rng.standard_normal((4, 3))
            y = rng.integers(0, 3, 4)

            # likelihood gradient with respect to the parameters
            logits, cache = nn.forward(net, x)
            loss, d_logits, _ = nn.nll_loss(logits, y)
            analytic = nn.backward(net, cache, d_logits).parameter_grads()
            for param, grad in zip(net.parameters(), analytic):
                num = numeric_grad(lambda: nn.nll_loss(nn.forward(net, x)[0], y)[0],
                                   param)
                worst = max(worst, float(np.max(rel_errs(grad, num))))

            # divergence gradient with respect to the perturbation
            base = nn.predict_proba(net, x)
            r = 0.1 * rng.standard_normal((4, 3))
            grad_r = divergence.grad_r_delta_kl(net, x, r, base)
            num_r = numeric_grad(
                lambda: float(np.sum(divergence.delta_kl(net, x, r, base))), r)
            worst = max(worst, float(np.max(rel_errs(grad_r, num_r))))

            # penalty gradient with respect to the parameters, base held fixed
            _, bundle = vat.vat_backward(net, x, r, base=base)
            for param, grad in zip(net.parameters(), bundle.parameter_grads()):
                num = numeric_grad(
                    lambda: float(divergence.kl_categorical(
                        base, log_softmax(nn.forward(net, x + r)[0])).mean()),
                    param)
                worst = max(worst, float(np.max(rel_errs(grad, num))))

            # adversarial loss term with respect to the parameters, r fixed
            r_adv = baselines.adv_perturbation(net, x, y, 0.1, "l2")
            _, adv_bundle = baselines.adv_loss_term(net, x, y, r_adv)
            for param, grad in zip(net.parameters(), adv_bundle.parameter_grads()):
                num = numeric_grad(
                    lambda: nn.nll_loss(nn.forward(net, x + r_adv)[0], y)[0],
                    param)
                worst = max(worst, float(np.max(rel_errs(grad, num))))
        report("gradient fidelity on 20 random nets", worst < 1e-4,
               f"worst coordinate relative error {worst:.2e}")


class TestHessianVectorIdentity:
    """Finite-difference Hessian-vector products vs the exact KL Hessian, on
    tiny nets and at the synthetic tasks' size, 100 -> 100 -> 2."""

    def test_identity_on_tiny_nets(self):
        worst = 0.0
        xi = 1e-4
        for trial in range(15):
            rng = make_rng(2000 + trial)
            if trial < 10:
                dim = int(rng.integers(2, 9))
                net = random_small_net(rng, [dim, 6, 3])
            else:
                dim = 100
                net = random_small_net(rng, [dim, 100, 2])
            x_row = 0.5 * rng.standard_normal(dim)
            hess = kl_hessian(net, x_row)
            x = x_row.reshape(1, -1)
            base = nn.predict_proba(net, x)
            d = rng.standard_normal(dim)
            d /= np.linalg.norm(d)
            hvp_fd = divergence.grad_r_delta_kl(net, x, xi * d[None, :], base)[0] / xi
            hvp_true = hess @ d
            rel = np.linalg.norm(hvp_true - hvp_fd) / np.linalg.norm(hvp_true)
            worst = max(worst, float(rel))
        report("Hessian-vector finite-difference identity", worst < 1e-3,
               f"worst relative error {worst:.2e}")


class TestPowerIterationAlignment:
    """Perturbation search converges to the dominant curvature direction."""

    def _alignment(self, net, x_row, oracle_dir, iterations, seed):
        cfg = VatConfig(epsilon=1.0, power_iterations=iterations)
        x = x_row.reshape(1, -1)
        r = vat.gen_vap(net, x, cfg, make_rng(seed), nn.predict_proba(net, x))[0]
        return abs(float(r @ oracle_dir) / np.linalg.norm(r))

    def test_alignment_and_monotonicity(self):
        # With 5 iterations the misalignment angle only shrinks by gap^5 per
        # the convergence rate, so near the 0.9 gap boundary a worst-case
        # random start cannot reach 0.99; the alignment bar is therefore
        # statistical (>= 90% of gapped instances), like the monotonicity bar.
        aligned_checked = 0
        aligned_pass = 0
        min_alignment = 1.0
        monotone = 0
        total = 30
        for trial in range(total):
            rng = make_rng(3000 + trial)
            dim = int(rng.integers(2, 7))
            net = random_small_net(rng, [dim, 6, 3])
            x_row = 0.5 * rng.standard_normal(dim)
            hess = kl_hessian(net, x_row)
            eigvals = np.linalg.eigvalsh(hess)
            _, oracle_dir = dominant_eigenvector(hess)
            mags = np.sort(np.abs(eigvals))[::-1]
            gap_ratio = mags[1] / mags[0] if mags[0] > 0 else 1.0

            cosines = [self._alignment(net, x_row, oracle_dir, k, 3000 + trial)
                       for k in range(1, 6)]
            if gap_ratio < 0.9:
                aligned_checked += 1
                aligned_pass += cosines[-1] > 0.99
                min_alignment = min(min_alignment, cosines[-1])
            if all(b >= a - 1e-6 for a, b in zip(cosines, cosines[1:])):
                monotone += 1

        report("power-iteration alignment with the oracle eigenvector",
               aligned_checked > 0 and aligned_pass >= 0.9 * aligned_checked,
               f"{aligned_pass}/{aligned_checked} gapped instances above 0.99, "
               f"min |cos| {min_alignment:.4f}")
        report("alignment non-decreasing in iteration count",
               monotone >= 0.9 * total, f"{monotone}/{total} monotone")


class TestClosedFormOracles:
    """vatlab's search on one-layer logistic nets against closed forms: the
    exact smoothness value, and the second-order value."""

    def test_logistic_exact(self):
        # a two-class net with logit columns [0, theta] is the logistic model
        # p(y=1|x) = sigmoid(theta^T x); the search gradient at any xi*d is
        # parallel to theta, so gen_vap returns +-eps*theta/||theta|| and the
        # smoothness value is -KL(Bern(s) || Bern(sigmoid(theta^T x +- eps ||theta||)))
        def log_sigmoid(z):
            return -np.logaddexp(0.0, -z)

        worst = 0.0
        for trial in range(10):
            rng = make_rng(4000 + trial)
            theta = rng.standard_normal(5)
            net = logistic_net(theta)
            cfg = VatConfig(epsilon=float(rng.uniform(0.1, 2.0)), power_iterations=1)
            x = rng.standard_normal((3, 5))
            base = nn.predict_proba(net, x)
            r = vat.gen_vap(net, x, cfg, rng, base=base)
            lds = -divergence.delta_kl(net, x, r, base=base)
            z = x @ theta
            z_r = z + np.sign(r @ theta) * cfg.epsilon * np.linalg.norm(theta)
            s = np.exp(log_sigmoid(z))
            exact = -(s * (log_sigmoid(z) - log_sigmoid(z_r))
                      + (1.0 - s) * (log_sigmoid(-z) - log_sigmoid(-z_r)))
            worst = max(worst, float(np.max(np.abs(lds - exact))))
        report("logistic smoothness matches the exact value",
               worst < 1e-10, f"worst error {worst:.2e}")

    def test_logistic_taylor_error_is_cubic(self):
        # a two-class net with logit columns [0, theta] is the logistic model
        # p(y=1|x) = s = sigmoid(theta^T x), whose KL Hessian at r = 0 is
        # s(1-s) theta theta^T, so the second-order smoothness value is
        # -1/2 s(1-s) eps^2 ||theta||^2
        theta = np.array([1.2, -0.7])
        x = np.array([[0.3, 0.4]])
        net = logistic_net(theta)
        s = 1.0 / (1.0 + np.exp(-(x[0] @ theta)))
        base = nn.predict_proba(net, x)
        eps_values = [0.1, 0.05, 0.025]
        errors = []
        for eps in eps_values:
            r_vadv = vat.gen_vap(net, x, VatConfig(epsilon=eps), make_rng(4100), base)
            second_order = -0.5 * s * (1.0 - s) * eps ** 2 * (theta @ theta)
            errors.append(abs(float(-divergence.delta_kl(net, x, r_vadv, base)[0]) - second_order))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        # halving epsilon should shrink the quadratic-fit error about 8x
        ok = all(5.0 < ratio < 16.0 for ratio in ratios)
        report("logistic quadratic-fit error shrinks cubically", ok,
               "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


class TestPropagationBudget:
    def test_three_forward_two_backward(self):
        rng = make_rng(5000)
        net = nn.init_mlp([20, 16, 4], rng)
        x = rng.standard_normal((8, 20))
        counts = vat.vat_step_cost_audit(
            net, x, VatConfig(epsilon=1.0, power_iterations=1), rng)
        ok = (counts["forward"], counts["backward"]) == (3, 2)
        report("regularizer path costs exactly 3 forward / 2 backward passes",
               ok, f"got {counts['forward']} forward, {counts['backward']} backward")


class TestStationarityAtZero:
    def test_gradient_vanishes_at_unperturbed_input(self):
        worst = 0.0
        for trial in range(10):
            rng = make_rng(6000 + trial)
            net = random_small_net(rng, [4, 8, 3])
            x = rng.standard_normal((6, 4))
            base = nn.predict_proba(net, x)
            grad = divergence.grad_r_delta_kl(net, x, np.zeros_like(x), base)
            worst = max(worst, float(np.linalg.norm(grad)))
        report("divergence gradient vanishes at zero perturbation",
               worst < 1e-8, f"worst norm {worst:.2e}")


# Frozen hyperparameters for the 50-repetition synthetic benchmark. Values
# were selected once with a validation grid at these exact training settings
# and are kept fixed so the comparison is deterministic.
BENCHMARK_SETTINGS = {
    "moons": {
        "l2_decay": {"weight": 1e-3},
        "dropout": {"keep_prob": 0.3},
        "random_perturbation": {"epsilon": 4.0},
        "adversarial_linf": {"epsilon": 0.1},
        "adversarial_l2": {"epsilon": 1.0},
        "vat": {"epsilon": 0.5},
    },
    "circles": {
        "l2_decay": {"weight": 1e-4},
        "dropout": {"keep_prob": 0.5},
        "random_perturbation": {"epsilon": 2.0},
        "adversarial_linf": {"epsilon": 0.01},
        "adversarial_l2": {"epsilon": 0.2},
        "vat": {"epsilon": 0.2},
    },
}


def _run_benchmark(task, repetitions=50):
    make_data = dm.SyntheticSplits(task, n_train=16, n_eval=1000)
    seeds = [(seed, seed + 7) for seed in range(repetitions)]
    errors = {}
    for method in ["none"] + list(BENCHMARK_SETTINGS[task]):
        reg = make_regularizer(method, **BENCHMARK_SETTINGS[task].get(method, {}))
        cfg = TrainConfig(input_dim=100, hidden_sizes=[100], n_classes=2,
                          regularizer=reg, total_updates=1000)
        errors[method] = np.asarray(run_errors(cfg, make_data, seeds))
    return errors


@pytest.mark.slow
class TestSyntheticBenchmarkOrdering:
    """50-repetition method comparison on both synthetic tasks."""

    @pytest.mark.parametrize("task", ["moons", "circles"])
    def test_ordering(self, task):
        errors = _run_benchmark(task)
        means = {m: float(v.mean()) for m, v in errors.items()}
        vat_mean = means["vat"]

        beats = all(vat_mean < means[m] for m in
                    ("none", "l2_decay", "dropout", "random_perturbation"))
        within_sd = all(
            abs(vat_mean - means[m]) <= float(errors[m].std())
            or vat_mean < means[m]
            for m in ("adversarial_linf", "adversarial_l2"))
        detail = " ".join(f"{m}={means[m]:.4f}" for m in sorted(means))
        # a report, not a gate: on how many seeds the penalty's test error is
        # below (wins) or equal to (ties) each other method's
        paired = " ".join(
            f"{m}={int(np.sum(errors['vat'] < v))}/{int(np.sum(errors['vat'] == v))}"
            for m, v in sorted(errors.items()) if m != "vat")
        print(f"INFO: {task}: smoothness penalty's per-seed wins/ties out of "
              f"{errors['vat'].size}: {paired}")
        report(f"{task}: smoothness penalty beats the non-adversarial baselines",
               beats, detail)
        report(f"{task}: smoothness penalty within 1 sd of adversarial training",
               within_sd, detail)
        report(f"{task}: smoothness-penalty mean test error at most 10%",
               vat_mean <= 0.10, f"mean {vat_mean:.4f}")


class TestTrainingDynamics:
    """Unregularized vs penalized runs on the moons task, 10 seeds."""

    def test_final_errors_and_smoothness(self):
        rows = {"none": [], "vat": []}
        for seed in range(10):
            data_rng = make_rng(seed)
            ds, _ = dm.make_synthetic_dataset("moons", data_rng)
            tx, ty = ds.subset("labeled")
            sx, sy = ds.subset("test")
            for method in rows:
                reg = make_regularizer(method, epsilon=0.5)
                cfg = TrainConfig(input_dim=100, hidden_sizes=[100], n_classes=2,
                                  regularizer=reg, total_updates=1000,
                                  seed=seed + 7)
                net, _ = train_supervised(cfg, tx, ty)
                train_err = evaluate(net, tx, ty, with_lds=False)["error"]
                test = evaluate(net, sx, sy, rng=make_rng(seed + 99))
                rows[method].append((train_err, test["error"], test["mean_lds"]))
        stats = {m: np.asarray(v).mean(axis=0) for m, v in rows.items()}

        report("both methods reach zero training error",
               stats["none"][0] == 0.0 and stats["vat"][0] == 0.0,
               f"plain {stats['none'][0]:.4f}, penalized {stats['vat'][0]:.4f}")
        report("penalized runs generalize better",
               stats["vat"][1] < stats["none"][1],
               f"test error {stats['vat'][1]:.4f} vs {stats['none'][1]:.4f}")
        report("penalized runs are smoother at test points",
               stats["vat"][2] > stats["none"][2],
               f"mean smoothness {stats['vat'][2]:.4f} vs {stats['none'][2]:.4f}")


def _require_mnist():
    directory = os.environ.get("VATLAB_MNIST_DIR", "data/mnist")
    try:
        files = {prefix: dm.find_mnist_file(directory, prefix)
                 for prefix in ("train-images-idx3", "train-labels-idx1",
                                "t10k-images-idx3", "t10k-labels-idx1")}
    except DataError:
        print("SKIP: MNIST checks need IDX files under data/mnist "
              "(or $VATLAB_MNIST_DIR); none found and this environment "
              "has no network access to fetch them")
        pytest.skip("MNIST IDX files not available")
    train = dm.load_mnist_idx(files["train-images-idx3"],
                              files["train-labels-idx1"])
    test = dm.load_mnist_idx(files["t10k-images-idx3"],
                             files["t10k-labels-idx1"])
    return train, test


def _mnist_config(reg, hidden, semisup=False, updates=50_000, seed=0):
    return TrainConfig(input_dim=784, hidden_sizes=hidden, n_classes=10,
                       regularizer=reg, optimizer="adam",
                       schedule=DecaySchedule(0.002, 0.9, 500),
                       batch_size=100, reg_batch_size=250 if semisup else 0,
                       total_updates=updates, seed=seed)


class TestMnistSupervised:
    def test_reduced_supervised_run(self):
        train, test = _require_mnist()
        results = {}
        for method, reg in [
            ("none", Regularizer(kind="none", weight=0.0)),
            ("vat", Regularizer(kind="vat", vat=VatConfig(epsilon=2.0))),
        ]:
            cfg = _mnist_config(reg, hidden=[1200, 600])
            net, _ = train_supervised(cfg, train.inputs, train.labels)
            results[method] = evaluate(net, test.inputs, test.labels,
                                       with_lds=False)["error"]
        gap = results["none"] - results["vat"]
        report("supervised digit benchmark",
               results["vat"] <= 0.0085 and gap >= 0.0025,
               f"penalized {results['vat']:.4f}, plain {results['none']:.4f}")


class TestMnistSemisup:
    def test_hundred_label_run(self):
        train, test = _require_mnist()
        rng = make_rng(0)
        ds = dm.make_semisup_split(train, 100, 1000, rng)
        results = {}
        for method, reg in [
            ("none", Regularizer(kind="none", weight=0.0)),
            ("vat", Regularizer(kind="vat", vat=VatConfig(epsilon=0.3))),
        ]:
            cfg = _mnist_config(reg, hidden=[1200, 1200], semisup=True)
            net, _ = train_semisup(cfg, ds)
            results[method] = evaluate(net, test.inputs, test.labels,
                                       with_lds=False)["error"]
        report("semi-supervised 100-label digit benchmark",
               results["vat"] <= 0.05 and results["vat"] <= 0.5 * results["none"],
               f"penalized {results['vat']:.4f}, plain {results['none']:.4f}")
