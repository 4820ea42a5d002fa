"""Command-line interface: dataset generation, training, evaluation,
boundary plots, hyperparameter grids, and the propagation-cost audit.

The lines of an optional flat key=value config file act as the command's
flags, given ahead of the command line's own, so a given flag wins, a file
may supply a required flag, and a value from the file meets its flag's type
and choices. A command makes a temp file next to each output path before any
work, writes into them, and renames them onto the paths only when it
succeeds, so its outputs appear all together or not at all, with the mode
the umask gives a new file. Exit codes: 0 ok, 2 usage or config error (a
request too large for memory included), 3 numeric failure, 4 data/format
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import pathlib
import sys
import warnings

import numpy as np

from . import contour, data as datamod, nn, train as trainmod, vat
from .baselines import Regularizer, make_regularizer
from .data import SYNTH_TASKS, Dataset, EmbeddingMap
from .errors import (ConfigError, DataError, FormatError, NumericError,
                     UsageError)
from .numerics import Tensor, environment, make_rng
from .optim import DecaySchedule
from .train import TrainConfig, grid_search, run_errors, train_semisup, train_supervised
from .vat import VatConfig

# CLI name -> regularizer kind
METHOD_NAMES = {
    "mle": "none",
    "l2": "l2_decay",
    "dropout": "dropout",
    "random": "random_perturbation",
    "adv-linf": "adversarial_linf",
    "adv-l2": "adversarial_l2",
    "vat": "vat",
}

# Per-method hyperparameter candidates for the synthetic grid command,
# downsampled from the full search ranges.
SYNTH_GRIDS = {
    "mle": [{}],
    "l2": [{"weight": w} for w in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)],
    "dropout": [{"keep_prob": p} for p in (0.3, 0.5, 0.7, 0.9)],
    "random": [{"epsilon": e} for e in (0.5, 1.0, 2.0, 4.0)],
    "adv-linf": [{"epsilon": e} for e in (0.01, 0.05, 0.1, 0.2)],
    "adv-l2": [{"epsilon": e} for e in (0.1, 0.5, 1.0, 2.0)],
    "vat": [{"epsilon": e} for e in (0.1, 0.5, 1.0, 2.0)],
}


# the values a switch such as --record-lds takes, in any case
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(text: str) -> bool:
    try:
        return _SWITCH_VALUES[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not one of {', '.join(_SWITCH_VALUES)}") from None


@contextlib.contextmanager
def _outputs(*paths: str):
    """Yield a list of new empty temp files, one in each path's directory.

    They are made on entry, so a path that cannot be written (a directory, or
    in a missing one) is a ConfigError before any work. Each is created by
    open() under a random .vatlab- name, so it gets the mode open() gives a new
    file, 0666 less the umask, and a name that exists already fails instead of
    being overwritten. When the body returns, each temp file is renamed onto
    its path; when it raises, the temp files are removed and no path is touched.
    """
    temps = []
    try:
        for path in paths:
            if os.path.isdir(path):
                raise ConfigError(f"cannot write {path}: it is a directory")
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               f".vatlab-{os.urandom(8).hex()}")
            try:
                open(tmp, "x").close()
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from exc
            temps.append(tmp)
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):  # renamed onto its path
                os.unlink(tmp)


def _config_path(argv: list[str]) -> str | None:
    """The --config value of argv, or None; argv's errors are left to the
    command's parser."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        return pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return None


def _read_config(path: str) -> dict[str, str]:
    """The key=value lines of a config file, key -> value text. Each line is
    blank, a # comment or key=value; a key's dashes read as underscores."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _make_regularizer(args) -> Regularizer:
    """The regularizer of args.reg, one of the flag's choices."""
    return make_regularizer(METHOD_NAMES[args.reg], weight=args.weight,
                            epsilon=args.epsilon, keep_prob=args.keep_prob,
                            power_iterations=args.ip)


# (input width, class count) of the networks of a synthetic and of an MNIST task
SYNTH_SHAPE = (datamod.EMBED_DIM, 2)
MNIST_SHAPE = (datamod.MNIST_DIM, 10)


def _task_shape(task: str) -> tuple[int, int]:
    return SYNTH_SHAPE if task in SYNTH_TASKS else MNIST_SHAPE


def _train_config(args, reg: Regularizer, hidden: list[int], semisup: bool,
                  eval_every: int) -> TrainConfig:
    """A run of args.task: full-batch SGD on a synthetic task; on MNIST, ADAM
    on minibatches of 100 labeled rows, and a semi-supervised run's penalty
    on 250 rows of the pool."""
    if args.task in SYNTH_TASKS:
        family = dict(optimizer="sgd", schedule=DecaySchedule(1.0, 0.995, 1), batch_size=0)
    else:
        family = dict(optimizer="adam", schedule=DecaySchedule(0.002, 0.9, 500),
                      batch_size=100, reg_batch_size=250 if semisup else 0)
    input_dim, n_classes = _task_shape(args.task)
    return TrainConfig(input_dim=input_dim, hidden_sizes=hidden, n_classes=n_classes,
                       regularizer=reg, total_updates=args.updates, eval_every=eval_every,
                       seed=args.seed, **family)


def _load_checkpoint(path: str, shape: tuple[int, int], user: str) -> nn.MlpNetwork:
    """The network a checkpoint holds; UsageError unless it maps shape's input
    width to its class count."""
    net = nn.load_checkpoint(path)
    got = (net.input_dim, net.layers[-1].weights.shape[1])
    if got != shape:
        raise UsageError(f"the checkpoint maps {got[0]} inputs to {got[1]} outputs, "
                         f"{user} needs {shape[0]} inputs and {shape[1]} classes")
    return net


def args_hidden(args) -> list[int]:
    try:
        sizes = [int(h) for h in str(args.hidden).split(",") if h]
    except ValueError as exc:
        raise ConfigError(f"--hidden must be comma-separated integers: {exc}") from exc
    if any(size < 1 for size in sizes):
        raise ConfigError(f"--hidden sizes must be >= 1, got {args.hidden!r}")
    return sizes


def _save_embedding(path: str, emb: EmbeddingMap) -> None:
    with open(path, "wb") as fh:  # handle avoids savez appending .npz
        np.savez(fh, matrix=emb.matrix, offset=np.zeros(datamod.EMBED_DIM))


def _load_embedding(path: str) -> EmbeddingMap:
    """The map an embedding file holds. The file's offset entry, written as
    zeros so that older readers can read it, must be zero."""
    try:
        with np.load(path) as npz:
            if not np.array_equal(npz["offset"], np.zeros(datamod.EMBED_DIM)):
                raise FormatError("the offset is not zero")
            return EmbeddingMap(matrix=npz["matrix"])
    except (EOFError, OSError, KeyError, ValueError, TypeError, ConfigError,
            FormatError) as exc:
        raise FormatError(f"bad embedding file {path}: {exc}") from exc


def cmd_gen_data(args) -> int:
    with _outputs(args.out, args.out + ".embedding.npz") as (csv_out, emb_out):
        dataset, emb = datamod.make_synthetic_dataset(
            args.task, make_rng(args.seed), n_train=args.n_train, n_test=args.n_test,
            n_unlabeled=args.n_unlabeled)
        datamod.export_csv(dataset, csv_out)
        _save_embedding(emb_out, emb)
    print(f"wrote {dataset.n} rows to {args.out}")
    return 0


def _load_mnist(args, split: str = "train") -> Dataset:
    """The train or t10k IDX pair under --mnist-dir."""
    return datamod.load_mnist_idx(
        datamod.find_mnist_file(args.mnist_dir, f"{split}-images-idx3"),
        datamod.find_mnist_file(args.mnist_dir, f"{split}-labels-idx1"))


def _task_data(args, rng) -> tuple[Tensor, np.ndarray, Dataset | None, Dataset,
                                   EmbeddingMap | None]:
    """A run of args.task's labeled training inputs and labels, its tagged
    rows if it is semi-supervised (else None), its test split, and the
    embedding of a synthetic task (None for MNIST)."""
    if args.task in SYNTH_TASKS:
        dataset, emb = datamod.make_synthetic_dataset(
            args.task, rng, n_train=args.n_train,
            n_test=args.n_test, n_unlabeled=args.n_unlabeled)
        tagged = dataset if args.n_unlabeled > 0 else None
        return (*dataset.subset("labeled"), tagged, Dataset(*dataset.subset("test")), emb)
    full = _load_mnist(args)  # the tasks are argparse choices
    if args.task == "mnist":
        return full.inputs, full.labels, None, _load_mnist(args, "t10k"), None
    tagged = datamod.make_semisup_split(full, args.n_labeled, args.n_validation, rng)
    return (*tagged.subset("labeled"), tagged, _load_mnist(args, "t10k"), None)


def cmd_train(args) -> int:
    suffixes = [".ckpt.npz", ".record.csv", ".summary.json"]
    if args.task in SYNTH_TASKS:
        suffixes += [".embedding.npz", ".train.csv"]
    with _outputs(*(args.out_prefix + suffix for suffix in suffixes)) as temps:
        out = dict(zip(suffixes, temps))
        reg, hidden = _make_regularizer(args), args_hidden(args)
        train_x, train_y, tagged, test, emb = _task_data(args, make_rng(args.seed))
        cfg = _train_config(args, reg, hidden, tagged is not None, args.eval_every)
        if tagged is not None:
            net, record = train_semisup(cfg, tagged, test.inputs, test.labels,
                                        record_lds=args.record_lds)
        else:
            net, record = train_supervised(cfg, train_x, train_y, test.inputs, test.labels,
                                           record_lds=args.record_lds)
        if emb is not None:
            _save_embedding(out[".embedding.npz"], emb)
            datamod.export_csv(Dataset(datamod.project_2d(train_x, emb), train_y),
                               out[".train.csv"])
        nn.save_checkpoint(net, out[".ckpt.npz"])
        record.to_csv(out[".record.csv"])
        # every update checked its losses (NumericError, exit 3)
        summary = {"task": args.task, "method": args.reg, "seed": args.seed,
                   "final": record.final, "env": environment()}
        pathlib.Path(out[".summary.json"]).write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary["final"]))
    return 0


def cmd_eval(args) -> int:
    net = _load_checkpoint(args.checkpoint, _task_shape(args.task), f"task {args.task}")
    rng = make_rng(args.seed)
    if args.task in SYNTH_TASKS:
        # checkpoints do not carry their embedding, and a fresh one would
        # score the model on a different plane
        if not args.embedding:
            raise ConfigError("synthetic tasks need --embedding, the file train wrote "
                              "next to the checkpoint")
        dataset, _ = datamod.make_synthetic_dataset(
            args.task, rng, n_test=args.n_test, emb=_load_embedding(args.embedding))
        x, y = dataset.subset("test")
    else:  # mnist, the tasks being argparse choices
        test = _load_mnist(args, "t10k")
        x, y = test.inputs, test.labels
    out = trainmod.evaluate(net, x, y, rng=rng)
    print(json.dumps(out))
    return 0


def cmd_boundary(args) -> int:
    with _outputs(args.out + ".svg", args.out + ".csv") as (svg_out, csv_out):
        net = _load_checkpoint(args.checkpoint, SYNTH_SHAPE, "a boundary plot")
        emb = _load_embedding(args.embedding)
        points, labels = _read_points_csv(args.train_csv)
        bounds = contour.lattice_bounds(points)
        grid = contour.probe_grid(net, emb, bounds, resolution=args.resolution)
        rng = make_rng(args.seed)
        embedded = datamod.embed_100d(points, emb)
        mean_lds = trainmod.evaluate(net, embedded, None, rng=rng)["mean_lds"]
        pathlib.Path(svg_out).write_text(contour.boundary_svg(grid, points, labels, mean_lds))
        contour.grid_csv(grid, csv_out)
    print(f"wrote {args.out}.svg and {args.out}.csv (mean LDS {mean_lds:.4f})")
    return 0


def _read_points_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels) of a 2-D training CSV: a header line, then at least two
    rows of finite x0,x1 and a 0/1 label, spanning both axes."""
    try:
        with warnings.catch_warnings():  # a header-only file warns, then fails below
            warnings.simplefilter("ignore", UserWarning)
            raw = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw.shape[0] < 2 or raw.shape[1] != 3:
        raise DataError(f"{path}: need at least 2 rows of x0,x1,label, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise DataError(f"{path}: non-numeric or non-finite value")
    points, labels = raw[:, :2], raw[:, 2]
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError(f"{path}: labels must be 0 or 1")
    if np.any(points.max(axis=0) <= points.min(axis=0)):
        raise DataError(f"{path}: the points must span a positive range on both axes")
    return points, labels.astype(np.int64)


def cmd_grid(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods names no method")
    unknown = set(methods) - set(SYNTH_GRIDS)
    if unknown:
        raise ConfigError(f"unknown grid methods: {sorted(unknown)}")
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")

    def run_method(method):
        kind = METHOD_NAMES[method]
        configs = [_train_config(
            args, make_regularizer(kind, power_iterations=args.ip, **params), [100],
            semisup=False, eval_every=0)
            for params in SYNTH_GRIDS[method]]
        best = grid_search(configs, datamod.SyntheticSplits(args.task, args.n_train, args.n_val),
                           repetitions=args.grid_reps, base_seed=args.seed)
        # final protocol: retrain the winner on fresh data, report test error
        seeds = range(args.seed + 10_000, args.seed + 10_000 + args.reps)
        errors = run_errors(best, datamod.SyntheticSplits(args.task, args.n_train, args.n_test),
                            [(s, s) for s in seeds])
        return method, best, float(np.mean(errors)), float(np.std(errors))

    with _outputs(*([args.out] if args.out else [])) as temps:
        rows = [run_method(m) for m in methods]
        table = [["method", "mean_test_error", "sd_test_error", "best_hyperparameters"]]
        for method, cfg, mean, sd in rows:
            best = json.dumps(_config_summary(cfg), sort_keys=True)
            table.append([method, repr(mean), repr(sd), best])
            print(f"{method:10s} {mean:.4f} +/- {sd:.4f}  {best}")
        for path in temps:  # the --out file, if given
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(table)
    return 0


def _config_summary(cfg: TrainConfig) -> dict:
    reg = cfg.regularizer
    return {"regularizer": reg.kind, "weight": reg.weight, **reg.hyperparameters(),
            "optimizer": cfg.optimizer, "total_updates": cfg.total_updates}


def cmd_audit_cost(args) -> int:
    rng = make_rng(args.seed)
    net = nn.init_mlp([20, 16, 4], rng)
    x = rng.standard_normal((8, 20))
    cfg = VatConfig(epsilon=1.0, power_iterations=args.ip)
    counts = vat.vat_step_cost_audit(net, x, cfg, rng)
    print(json.dumps(counts))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, so that main
    exits 2 on a bad flag, given or from a config file, as on every other
    usage error. Its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The root parser, with a subparser for each command."""
    parser = _Parser(prog="vatlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mnist=False):
        p.add_argument("--config", default=None, help="flat key=value file; flags override")
        p.add_argument("--seed", type=int, default=0)
        if mnist:
            p.add_argument("--mnist-dir", default="data/mnist")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset as CSV")
    common(p)
    p.add_argument("--task", choices=SYNTH_TASKS, required=True)
    p.add_argument("--n-train", type=int, default=16)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--n-unlabeled", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model and write artifacts")
    common(p, mnist=True)
    p.add_argument("--task", required=True, choices=[*SYNTH_TASKS, "mnist", "mnist-semisup"])
    p.add_argument("--reg", default="mle", choices=sorted(METHOD_NAMES))
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--keep-prob", type=float, default=0.5)
    p.add_argument("--ip", type=int, default=1)
    p.add_argument("--updates", type=int, default=1000)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--record-lds", type=_switch, nargs="?", const=True, default=False)
    p.add_argument("--hidden", default="100")
    p.add_argument("--n-train", type=int, default=16)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--n-unlabeled", type=int, default=0)
    p.add_argument("--n-labeled", type=int, default=100)
    p.add_argument("--n-validation", type=int, default=1000)
    p.add_argument("--out-prefix", default="run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, mnist=True)
    p.add_argument("--task", required=True, choices=[*SYNTH_TASKS, "mnist"])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embedding", default=None)
    p.add_argument("--n-test", type=int, default=1000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("boundary", help="decision-boundary grid CSV + SVG contour")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--train-csv", required=True, help="2-D points CSV from train")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("grid", help="per-method hyperparameter search on a synthetic task")
    common(p)
    p.add_argument("--task", choices=SYNTH_TASKS, required=True)
    p.add_argument("--methods", default="mle,l2,dropout,random,adv-linf,adv-l2,vat")
    p.add_argument("--n-train", type=int, default=16)
    p.add_argument("--n-val", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--grid-reps", type=int, default=5)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--updates", type=int, default=1000)
    p.add_argument("--ip", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("audit-cost", help="count forward/backward passes per step")
    common(p)
    p.add_argument("--ip", type=int, default=1)
    p.set_defaults(func=cmd_audit_cost)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        path = _config_path(argv)
        values = _read_config(path) if path else {}
        # the file's flags go ahead of the given ones, which win as later flags do
        flags = [f"--{key.replace('_', '-')}={raw}" for key, raw in values.items()]
        args = build_parser().parse_args(argv[:1] + flags + argv[1:])
        unknown = [key for key in values if key not in vars(args)]  # abbreviations of flags
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        # every non-finite value is checked, and exits 3 with a line of its own
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
