"""The three benchmark workloads, each a closed loop of rounds in one process.

A workload generates its inputs from the benchmark seed in `setup`, which
also runs one throw-away update per method and shape, and `run_round(r)`
performs one round of user operations, returning one `Op` per timed call.
Round r draws its data and training seeds from (seed, r), so the same seed
gives the same inputs and the same trained weights.

Every operation carries its own output checks (finite final NLL, error rates
in [0, 1], test error under a loose sanity bound, CLI exit code 0). They are
deliberately tolerance checks, not checksums: a change that alters the
random stream still passes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from vatlab import cli, data, nn, train, vat
from vatlab.baselines import Regularizer
from vatlab.numerics import make_rng
from vatlab.optim import DecaySchedule
from vatlab.train import TrainConfig
from vatlab.vat import VatConfig

clock = time.perf_counter


@dataclass
class Op:
    """One timed call: a training run, an evaluation or a CLI command."""
    kind: str              # "train", "eval" or "boundary"
    label: str             # method name (train) or the method whose model it used
    seconds: float
    updates: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str | None = None   # hash of the trained weights, train ops only
    error: float | None = None  # test error, eval ops only
    ref: float = 0.0            # mean seconds of the reference bursts on either side
    key: tuple = ()             # (round, method[, updates]), pairs traced and untraced ops

    @property
    def ok(self) -> bool:
        return not self.failures


def weights_digest(params) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_error(failures: list[str], error, bound: float, what: str) -> None:
    """Error rate in [0, 1], and below bound when bound < 1."""
    check(failures, error is not None and 0.0 <= error <= 1.0, f"{what} error {error} outside [0, 1]")
    check(failures, error is not None and (bound >= 1.0 or error < bound),
          f"{what} error {error} not below {bound}")


def round_seed(seed: int, r: int) -> int:
    return seed * 100_000 + r


# Frozen per-task hyperparameters of the repository's 50-repetition
# acceptance comparison, copied so the benchmark does not import the tests.
SYNTH_SETTINGS = {
    "moons": {"l2": 1e-3, "dropout": 0.3, "random": 4.0,
              "adv-linf": 0.1, "adv-l2": 1.0, "vat": 0.5},
    "circles": {"l2": 1e-4, "dropout": 0.5, "random": 2.0,
                "adv-linf": 0.01, "adv-l2": 0.2, "vat": 0.2},
}
SYNTH_METHODS = ("mle", "l2", "dropout", "random", "adv-linf", "adv-l2", "vat")
TASKS = ("moons", "circles")


def make_regularizer(method: str, value: float = 0.0) -> Regularizer:
    """Regularizer for a CLI method name; value is its one hyperparameter."""
    if method == "mle":
        return Regularizer(kind="none", weight=0.0)
    if method == "l2":
        return Regularizer(kind="l2_decay", weight=value)
    if method == "dropout":
        return Regularizer(kind="dropout", keep_prob=value, weight=0.0)
    if method in ("vat", "vat-semisup"):
        return Regularizer(kind="vat", vat=VatConfig(epsilon=value))
    kinds = {"random": "random_perturbation", "adv-linf": "adversarial_linf",
             "adv-l2": "adversarial_l2"}
    return Regularizer(kind=kinds[method], epsilon=value)


class Reference:
    """A fixed burst of small numpy calls that never touches vatlab.

    On a shared virtual machine the speed of a core switches within seconds:
    on a 2-vCPU guest this burst took between 21 ms and 63 ms within one
    minute, and wall-clock medians of whole 30 s runs of the synthetic
    workloads differed by a third. Their timed operations are therefore each
    run between two bursts and reported at nominal host speed: seconds *
    NOMINAL_S / mean burst seconds. The burst is small-matrix work dominated
    by per-call overhead, like those workloads, so a slow phase of the host
    slows both alike, while a change to vatlab moves only the operation.
    Over 69 1000-update VAT runs in one minute, their time varied by 0.152
    (standard deviation over mean); scaled by the burst before each, by
    0.138; by the mean of the bursts before and after, by 0.110.
    """
    NOMINAL_S = 0.025

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.standard_normal((16, 100)), rng.standard_normal((100, 100))
        self.spent = 0.0                  # seconds spent in bursts so far

    def __call__(self) -> float:
        start = clock()
        for _ in range(1000):
            z = np.maximum(self.a @ self.b, 0.0)
            z = np.exp(z - z.max(axis=1, keepdims=True))
            z /= z.sum(axis=1, keepdims=True)
        seconds = clock() - start
        self.spent += seconds
        return seconds


class Workload:
    name = ""
    methods: tuple[str, ...] = ()
    error_bound = 1.0
    # (m, k, n) of the largest matrix product the workload runs
    blas_shape = (1, 1, 1)
    # time operations at nominal host speed (see Reference)
    normalized = True

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.last_vat = None      # (net, batch) from the latest VAT training run
        self.before = 0.0         # seconds of the latest burst, see close()
        self.reference = Reference()
        if tiny:                  # a few updates cannot be held to the sanity bound
            self.error_bound = 1.0

    def label(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.label = name

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def audit_net(self):
        """(net, batch) for the 3-forward/2-backward cost audit."""
        return self.last_vat

    def burst(self) -> float:
        """Seconds of one reference burst, or 0.0 when timing as measured."""
        return self.reference() if self.normalized else 0.0

    def start_bursts(self) -> None:
        """Run the burst before the next op; call right before a round's first op."""
        self.before = self.burst()

    def close(self, op: Op) -> Op:
        """Give op the mean of the burst before it and one run now, just after
        it, which is also the burst before the next op."""
        after = self.burst()
        op.ref, self.before = (self.before + after) / 2, after
        return op

    def nominal(self, op: Op) -> float:
        """The op's seconds at nominal host speed."""
        return op.seconds * Reference.NOMINAL_S / op.ref if op.ref else op.seconds

    def nominal_wall(self, ops: list[Op], wall: float, ref_spent: float) -> float:
        """Timed wall time without the reference bursts, at nominal host speed:
        each op scaled by its own burst, the rest (data generation, checks) by
        the median burst."""
        timed = [o for o in ops if o.ref]
        rest = wall - ref_spent - sum(o.seconds for o in timed)
        if timed:
            rest *= Reference.NOMINAL_S / statistics.median(o.ref for o in timed)
        return sum(self.nominal(o) for o in timed) + rest

    def samples(self, ops: list[Op], nominal: bool = True) -> dict[str, list[float]]:
        """Timing samples by metric name, at nominal host speed or as wall time."""
        def seconds(o):
            return self.nominal(o) if nominal else o.seconds
        samples = {f"ms_per_kupdate.{m}": [seconds(o) / o.updates * 1e6 for o in ops
                                           if o.kind == "train" and o.label == m]
                   for m in self.methods}
        samples["eval_ms"] = [seconds(o) * 1e3 for o in ops if o.kind == "eval"]
        return samples


class SynthCompare(Workload):
    """The paper's 7-method comparison, 16 labels, 100-100-2 net, full-batch SGD."""
    name = "synth-compare"
    methods = SYNTH_METHODS
    # chance level; the worst of 420 runs (60 data seeds x 7 methods) erred 0.34
    error_bound = 0.5
    blas_shape = (1000, 100, 100)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.updates = 5 if tiny else 1000

    def _config(self, method: str, task: str, updates: int, seed: int) -> TrainConfig:
        reg = make_regularizer(method, SYNTH_SETTINGS[task].get(method, 0.0))
        return TrainConfig(input_dim=data.EMBED_DIM, hidden_sizes=[100], n_classes=2,
                           regularizer=reg, total_updates=updates, seed=seed)

    def _dataset(self, task: str, seed: int):
        ds, _ = data.make_synthetic_dataset(task, make_rng(seed))
        return ds.subset("labeled"), ds.subset("test")

    def setup(self) -> None:
        (tx, ty), (sx, sy) = self._dataset(TASKS[0], round_seed(self.seed, 0))
        for method in self.methods:
            net, _ = train.train_supervised(self._config(method, TASKS[0], 1, 0), tx, ty)
            train.evaluate(net, sx, sy, with_lds=False)

    def run_round(self, r: int) -> list[Op]:
        task = TASKS[r % 2]
        seed = round_seed(self.seed, r)
        (tx, ty), (sx, sy) = self._dataset(task, seed)
        ops = []
        self.start_bursts()
        for method in self.methods:
            self.label(method)
            cfg = self._config(method, task, self.updates, seed + 7)
            start = clock()
            net, record = train.train_supervised(cfg, tx, ty)
            fit = self.close(Op("train", method, clock() - start, self.updates))
            fit.digest, fit.key = weights_digest(net.parameters()), (r, method)
            check(fit.failures, np.isfinite(record.final["nll"]), "final NLL not finite")
            check_error(fit.failures, record.final["train_err"], 1.0, "train")
            start = clock()
            result = train.evaluate(net, sx, sy, with_lds=False)
            ev = self.close(Op("eval", method, clock() - start, error=result["error"]))
            check_error(ev.failures, result["error"], self.error_bound, f"{task} {method} test")
            ops += [fit, ev]
            if method == "vat":
                self.last_vat = (net, tx)
        return ops


def write_idx(path: str, magic: int, dims: tuple[int, ...], payload: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + len(dims)}i", magic, *dims))
        fh.write(payload.astype(np.uint8).tobytes())


def digit_like(rng: np.random.Generator, n: int, prototypes: np.ndarray):
    """Random 28x28 pixels around one random prototype per class."""
    labels = rng.integers(0, 10, n)
    noise = rng.normal(0.0, 60.0, (n, 784))
    pixels = np.clip(prototypes[labels] + noise, 0, 255)
    return pixels.reshape(n, 28, 28), labels


class MnistSize(Workload):
    """784-1200-600-10 with ADAM and batch 100 on random MNIST-shaped IDX data."""
    name = "mnist-size"
    methods = ("mle", "vat", "vat-semisup")
    # chance is 0.9; the class prototypes make the inputs learnable in a few updates
    error_bound = 0.5
    blas_shape = (250, 784, 1200)
    # BLAS- and memory-bound calls of 0.1 to 2 seconds, reported as measured:
    # scaling them by the small-matrix burst did not narrow their run-to-run
    # spread (0.07-0.12 against 0.08-0.10 over 6 runs), and a burst of
    # ADAM-like passes over 1.66M-element arrays before and after each call
    # widened it (0.08-0.12 against 0.03-0.07 over 5 runs)
    normalized = False
    n_train = 500
    n_test = 500

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.updates = 2 if tiny else 10

    def _config(self, method: str, updates: int, seed: int) -> TrainConfig:
        # epsilons of the repository's supervised and 100-label MNIST checks
        eps = {"mle": 0.0, "vat": 2.0, "vat-semisup": 0.3}[method]
        return TrainConfig(input_dim=784, hidden_sizes=[1200, 600], n_classes=10,
                           regularizer=make_regularizer(method, eps), optimizer="adam",
                           schedule=DecaySchedule(0.002, 0.9, 500), batch_size=100,
                           reg_batch_size=250 if method == "vat-semisup" else 0,
                           total_updates=updates, seed=seed)

    def setup(self) -> None:
        rng = make_rng(self.seed)
        prototypes = rng.uniform(0, 255, (10, 784))
        paths = {}
        for split, n in (("train", self.n_train), ("t10k", self.n_test)):
            images, labels = digit_like(rng, n, prototypes)
            paths[split] = (os.path.join(self.workdir, f"{split}-images-idx3-ubyte"),
                            os.path.join(self.workdir, f"{split}-labels-idx1-ubyte"))
            write_idx(paths[split][0], 0x803, (n, 28, 28), images)
            write_idx(paths[split][1], 0x801, (n,), labels)
        self.train_set = data.load_mnist_idx(*paths["train"])
        self.test_set = data.load_mnist_idx(*paths["t10k"])
        self.semisup = data.make_semisup_split(self.train_set, 100, 0, rng)
        for method in self.methods:
            self._train(method, 1, 0)

    def _train(self, method: str, updates: int, seed: int):
        cfg = self._config(method, updates, seed)
        if method == "vat-semisup":
            return train.train_semisup(cfg, self.semisup)
        return train.train_supervised(cfg, self.train_set.inputs, self.train_set.labels)

    def _fit(self, r: int, method: str, updates: int, seed: int):
        start = clock()
        net, record = self._train(method, updates, seed)
        fit = Op("train", method, clock() - start, updates,
                 digest=weights_digest(net.parameters()), key=(r, method, updates))
        check(fit.failures, np.isfinite(record.final["nll"]), "final NLL not finite")
        check_error(fit.failures, record.final["train_err"], 1.0, "train")
        return fit, net

    def run_round(self, r: int) -> list[Op]:
        seed = round_seed(self.seed, r)
        ops = []
        for method in self.methods:
            self.label(method)
            # the same call with one update: its per-call fixed costs only
            ops.append(self._fit(r, method, 1, seed)[0])
            fit, net = self._fit(r, method, self.updates, seed)
            start = clock()
            result = train.evaluate(net, self.test_set.inputs, self.test_set.labels,
                                    with_lds=False)
            ev = Op("eval", method, clock() - start, error=result["error"])
            check_error(ev.failures, result["error"], self.error_bound, f"{method} test")
            ops += [fit, ev]
            if method == "vat":
                self.last_vat = (net, self.train_set.inputs[:100])
        return ops

    def samples(self, ops, nominal=True):
        """ms_per_kupdate without the per-call fixed costs (net init, optimizer
        state, final train-set error): each N-update call minus the 1-update
        call of the same method and seed just before it, over N - 1. Times
        are as measured."""
        one = {o.key[:2]: o.seconds for o in ops if o.kind == "train" and o.updates == 1}
        samples = super().samples([o for o in ops if o.kind != "train"], nominal)
        for m in self.methods:
            samples[f"ms_per_kupdate.{m}"] = [
                (o.seconds - one[o.key[:2]]) / (o.updates - 1) * 1e6 for o in ops
                if o.kind == "train" and o.label == m and o.updates > 1 and o.key[:2] in one]
        return samples


class SynthArtifacts(Workload):
    """The CLI path: train (checkpoint, CSV, embedding), eval, boundary plot."""
    name = "synth-artifacts"
    methods = ("mle", "vat")
    error_bound = 0.5
    blas_shape = (40_000, 100, 100)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.updates = 5 if tiny else 1000
        self.resolution = 20 if tiny else 200
        self.audit_path = os.path.join(workdir, "audit.ckpt.npz")

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def _sequence(self, r: int, method: str, updates: int, resolution: int,
                  seed: int) -> list[Op]:
        task = TASKS[r % 2]
        prefix = os.path.join(self.workdir, f"r{r}-{method}")
        ckpt, emb = prefix + ".ckpt.npz", prefix + ".embedding.npz"
        self.label(method)
        start = clock()
        code, _ = self._cli(["train", "--task", task, "--reg", method, "--seed", str(seed),
                             "--updates", str(updates), "--out-prefix", prefix])
        fit = self.close(Op("train", method, clock() - start, updates, key=(r, method)))
        check(fit.failures, code == 0, f"train exited {code}")
        if code == 0:
            with open(prefix + ".summary.json") as fh:
                final = json.load(fh)["final"]
            check(fit.failures, np.isfinite(final["nll"]), "final NLL not finite")
            check_error(fit.failures, final["train_err"], 1.0, "train")
            with np.load(ckpt) as npz:
                fit.digest = weights_digest(npz[k] for k in sorted(npz.files))

        self.label("eval")
        start = clock()
        code, out = self._cli(["eval", "--task", task, "--checkpoint", ckpt,
                               "--embedding", emb, "--seed", str(seed)])
        ev = self.close(Op("eval", method, clock() - start))
        check(ev.failures, code == 0, f"eval exited {code}")
        if code == 0:
            result = json.loads(out)
            ev.error = result["error"]
            check_error(ev.failures, result["error"], self.error_bound, f"{task} {method} test")
            check(ev.failures, result["mean_lds"] <= 0.0, "mean LDS above 0")

        self.label("boundary")
        start = clock()
        code, _ = self._cli(["boundary", "--checkpoint", ckpt, "--embedding", emb,
                             "--train-csv", prefix + ".train.csv",
                             "--resolution", str(resolution), "--out", prefix + "-boundary"])
        plot = self.close(Op("boundary", method, clock() - start))
        check(plot.failures, code == 0, f"boundary exited {code}")
        for suffix in (".svg", ".csv"):
            path = prefix + "-boundary" + suffix
            check(plot.failures, os.path.exists(path) and os.path.getsize(path) > 0,
                  f"missing or empty {os.path.basename(path)}")
        return [fit, ev, plot]

    def setup(self) -> None:
        self.start_bursts()
        for method in self.methods:
            self._sequence(-1, method, 1, self.resolution, self.seed)
        self._clean(keep=self.audit_path)

    def _clean(self, keep: str | None = None) -> None:
        for entry in os.listdir(self.workdir):
            path = os.path.join(self.workdir, entry)
            if path != keep:
                os.unlink(path)

    def run_round(self, r: int) -> list[Op]:
        ops = []
        self.start_bursts()
        for method in self.methods:
            ops += self._sequence(r, method, self.updates, self.resolution,
                                  round_seed(self.seed, r))
        os.replace(os.path.join(self.workdir, f"r{r}-vat.ckpt.npz"), self.audit_path)
        self._clean(keep=self.audit_path)
        return ops

    def audit_net(self):
        net = nn.load_checkpoint(self.audit_path)
        return net, make_rng(self.seed).standard_normal((16, net.input_dim))

    def samples(self, ops, nominal=True):
        samples = super().samples(ops, nominal)
        for kind in ("train", "eval", "boundary"):
            samples[f"cli_{kind}_s"] = [self.nominal(o) if nominal else o.seconds
                                        for o in ops if o.kind == kind and o.label == "vat"]
        return samples


WORKLOADS = {w.name: w for w in (SynthCompare, MnistSize, SynthArtifacts)}


def audit(workload: Workload) -> Op:
    """The paper's cost contract on the workload's own VAT model and data."""
    net, batch = workload.audit_net()
    start = clock()
    counts = vat.vat_step_cost_audit(net, batch, VatConfig(epsilon=1.0, power_iterations=1),
                                     make_rng(workload.seed))
    op = Op("audit", "vat", clock() - start)
    check(op.failures, (counts["forward"], counts["backward"]) == (3, 2),
          f"cost audit gave {counts}, expected 3 forward / 2 backward")
    return op
