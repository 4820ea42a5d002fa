"""Command-line interface: dataset generation, training, evaluation,
boundary plots, hyperparameter grids, and the propagation-cost audit.

Configuration comes from an optional flat key=value file plus flags; given
flags win. Output paths are checked before any work, and output files are
written atomically (temp file + rename). Exit codes: 0 ok, 2 config error
(a request too large for memory included), 3 numeric failure, 4 data/format
error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import warnings

import numpy as np

from . import contour, data as datamod, nn, train as trainmod, vat
from .baselines import Regularizer, make_regularizer
from .data import SYNTH_TASKS, Dataset, EmbeddingMap
from .errors import (ConfigError, DataError, FormatError, NumericError,
                     UsageError)
from .numerics import environment, make_rng
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


def _atomic_write(path: str, text: str) -> None:
    _atomic_call(path, lambda tmp: pathlib.Path(tmp).write_text(text))


def _atomic_call(path: str, writer) -> None:
    """Run writer(tmp_path) then rename tmp_path onto path."""
    tmp = _temp_file_next_to(path)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _temp_file_next_to(path: str) -> str:
    """A new empty file in path's directory. A path that cannot be written (a
    directory, or in a missing one) is a ConfigError."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".vatlab-")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    os.close(fd)
    return tmp


def _check_outputs(*paths: str) -> None:
    """Run _atomic_call's test on every output path of a command before its
    work starts, so a bad path fails at once instead of after the work."""
    for path in paths:
        os.unlink(_temp_file_next_to(path))


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv) -> argparse.Namespace:
    """Overlay config-file values under the flags argv gives explicitly, even
    where a flag's value equals its default."""
    if not getattr(args, "config", None):
        return args
    file_values = _load_config_file(args.config)
    # the keys are the active subcommand's flags, not the root parser's
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for action in actions.values():  # parsed again without defaults, argv sets only what it gives
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, raw in file_values.items():
        if key not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        action = actions[key]
        try:  # a malformed value is an error even where a flag overrides it
            if action.nargs == 0:  # a switch such as --record-lds
                value = raw.lower() in ("1", "true", "yes")
            else:
                value = (action.type or str)(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if key not in given:
            setattr(args, key, value)
    return args


def _make_regularizer(args) -> Regularizer:
    if args.reg not in METHOD_NAMES:
        raise ConfigError(f"unknown method {args.reg!r}; choose from {sorted(METHOD_NAMES)}")
    return make_regularizer(METHOD_NAMES[args.reg], weight=args.weight,
                            epsilon=args.epsilon, keep_prob=args.keep_prob,
                            xi=args.xi, power_iterations=args.ip)


def _synthetic_train_config(args, reg: Regularizer, hidden_sizes: list[int],
                            eval_every: int = 0) -> TrainConfig:
    return TrainConfig(
        input_dim=datamod.EMBED_DIM, hidden_sizes=hidden_sizes, n_classes=2,
        regularizer=reg, optimizer="sgd",
        schedule=DecaySchedule(1.0, 0.995, 1),
        batch_size=0, total_updates=args.updates,
        eval_every=eval_every, seed=args.seed,
    )


def _mnist_train_config(args, reg: Regularizer, semisup: bool) -> TrainConfig:
    return TrainConfig(
        input_dim=datamod.MNIST_DIM, hidden_sizes=args_hidden(args), n_classes=10,
        regularizer=reg, optimizer="adam",
        schedule=DecaySchedule(0.002, 0.9, 500),
        batch_size=100, reg_batch_size=250 if semisup else 0,
        total_updates=args.updates, eval_every=args.eval_every, seed=args.seed,
    )


def args_hidden(args) -> list[int]:
    try:
        sizes = [int(h) for h in str(args.hidden).split(",") if h]
    except ValueError as exc:
        raise ConfigError(f"--hidden must be comma-separated integers: {exc}") from exc
    if any(size < 1 for size in sizes):
        raise ConfigError(f"--hidden sizes must be >= 1, got {args.hidden!r}")
    return sizes


def _save_embedding(path: str, emb: EmbeddingMap) -> None:
    def writer(tmp):
        with open(tmp, "wb") as fh:  # handle avoids savez appending .npz
            np.savez(fh, matrix=emb.matrix, offset=np.zeros(datamod.EMBED_DIM))
    _atomic_call(path, writer)


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
    _check_outputs(args.out, args.out + ".embedding.npz")
    rng = make_rng(args.seed)
    dataset, emb = datamod.make_synthetic_dataset(
        args.task, rng, n_train=args.n_train, n_test=args.n_test,
        n_unlabeled=args.n_unlabeled)
    _atomic_call(args.out, lambda tmp: datamod.export_csv(dataset, tmp))
    _save_embedding(args.out + ".embedding.npz", emb)
    print(f"wrote {dataset.n} rows to {args.out}")
    return 0


def _load_mnist(args, split: str = "train") -> Dataset:
    """The train or t10k IDX pair under --mnist-dir."""
    return datamod.load_mnist_idx(
        datamod.find_mnist_file(args.mnist_dir, f"{split}-images-idx3"),
        datamod.find_mnist_file(args.mnist_dir, f"{split}-labels-idx1"))


def cmd_train(args) -> int:
    prefix = args.out_prefix
    suffixes = [".ckpt.npz", ".record.csv", ".summary.json"]
    if args.task in SYNTH_TASKS:
        suffixes += [".embedding.npz", ".train.csv"]
    _check_outputs(*(prefix + suffix for suffix in suffixes))
    reg = _make_regularizer(args)
    rng = make_rng(args.seed)
    if args.task in SYNTH_TASKS:
        dataset, emb = datamod.make_synthetic_dataset(
            args.task, rng, n_train=args.n_train,
            n_test=args.n_test, n_unlabeled=args.n_unlabeled)
        cfg = _synthetic_train_config(args, reg, args_hidden(args), args.eval_every)
        if args.n_unlabeled > 0:
            net, record = train_semisup(cfg, dataset, record_lds=args.record_lds)
        else:
            train_x, train_y = dataset.subset("labeled")
            test_x, test_y = dataset.subset("test")
            net, record = train_supervised(cfg, train_x, train_y, test_x, test_y,
                                           record_lds=args.record_lds)
        _save_embedding(prefix + ".embedding.npz", emb)
        train_pts = datamod.project_2d(dataset.subset("labeled")[0], emb)
        train_dataset = Dataset(train_pts, dataset.subset("labeled")[1])
        _atomic_call(prefix + ".train.csv", lambda tmp: datamod.export_csv(train_dataset, tmp))
    elif args.task == "mnist":  # the tasks are argparse choices
        full = _load_mnist(args)
        test = _load_mnist(args, "t10k")
        cfg = _mnist_train_config(args, reg, semisup=False)
        net, record = train_supervised(cfg, full.inputs, full.labels,
                                       test.inputs, test.labels)
    else:  # mnist-semisup
        full = _load_mnist(args)
        tagged = datamod.make_semisup_split(full, args.n_labeled, args.n_validation, rng)
        test = _load_mnist(args, "t10k")
        inputs = np.vstack([tagged.inputs, test.inputs])
        labels = np.concatenate([tagged.labels, test.labels])
        split = np.concatenate([tagged.split, np.full(test.n, "test")])
        cfg = _mnist_train_config(args, reg, semisup=True)
        net, record = train_semisup(cfg, Dataset(inputs, labels, split))

    final = record.final  # every update checked its losses (NumericError, exit 3)
    _atomic_call(prefix + ".ckpt.npz", lambda tmp: nn.save_checkpoint(net, tmp))
    _atomic_call(prefix + ".record.csv", lambda tmp: record.to_csv(tmp))
    summary = {"task": args.task, "method": args.reg, "seed": args.seed, "final": final,
               "env": environment()}
    _atomic_write(prefix + ".summary.json", json.dumps(summary, indent=2))
    print(json.dumps(summary["final"]))
    return 0


def cmd_eval(args) -> int:
    net = nn.load_checkpoint(args.checkpoint)
    input_dim = datamod.EMBED_DIM if args.task in SYNTH_TASKS else datamod.MNIST_DIM
    if net.input_dim != input_dim:
        raise UsageError(f"the checkpoint takes {net.input_dim} inputs, task {args.task} "
                         f"has {input_dim}")
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
    _check_outputs(args.out + ".svg", args.out + ".csv")
    net = nn.load_checkpoint(args.checkpoint)
    if net.input_dim != datamod.EMBED_DIM:
        raise UsageError("boundary plots need a synthetic-task checkpoint")
    emb = _load_embedding(args.embedding)
    points, labels = _read_points_csv(args.train_csv)
    bounds = contour.lattice_bounds(points)
    grid = contour.probe_grid(net, emb, bounds, resolution=args.resolution)
    rng = make_rng(args.seed)
    embedded = datamod.embed_100d(points, emb)
    mean_lds = trainmod.evaluate(net, embedded, None, rng=rng)["mean_lds"]
    _atomic_write(args.out + ".svg", contour.boundary_svg(grid, points, labels, mean_lds))
    _atomic_call(args.out + ".csv", lambda tmp: contour.grid_csv(grid, tmp))
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
    if args.out:
        _check_outputs(args.out)

    def run_method(method):
        kind = METHOD_NAMES[method]
        configs = [_synthetic_train_config(
            args, make_regularizer(kind, power_iterations=args.ip, **params), [100])
            for params in SYNTH_GRIDS[method]]
        best = grid_search(configs, datamod.SyntheticSplits(args.task, args.n_train, args.n_val),
                           repetitions=args.grid_reps, base_seed=args.seed)
        # final protocol: retrain the winner on fresh data, report test error
        seeds = range(args.seed + 10_000, args.seed + 10_000 + args.reps)
        errors = run_errors(best, datamod.SyntheticSplits(args.task, args.n_train, args.n_test),
                            [(s, s) for s in seeds])
        return method, best, float(np.mean(errors)), float(np.std(errors))

    rows = [run_method(m) for m in methods]

    lines = ["method,mean_test_error,sd_test_error,best_hyperparameters"]
    for method, cfg, mean, sd in rows:
        best = json.dumps(_config_summary(cfg), sort_keys=True)
        lines.append(f'{method},{mean!r},{sd!r},"{best}"')
        print(f"{method:10s} {mean:.4f} +/- {sd:.4f}  {best}")
    if args.out:
        _atomic_write(args.out, "\n".join(lines) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vatlab")
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
    p.add_argument("--task", required=True,
                   choices=[*SYNTH_TASKS, "mnist", "mnist-semisup"])
    p.add_argument("--reg", default="mle", choices=sorted(METHOD_NAMES))
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--keep-prob", type=float, default=0.5)
    p.add_argument("--xi", type=float, default=1e-6)
    p.add_argument("--ip", type=int, default=1)
    p.add_argument("--updates", type=int, default=1000)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--record-lds", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser, argv)
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
