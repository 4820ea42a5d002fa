"""vatlab benchmark: one workload, closed loop, one process.

    python3 vatbench/run.py --workload synth-compare --seed 0 --seconds 30 --trace 0

Run from the root of a vatlab checkout; the package is imported from its
`src/` directory. With --trace 0 the run times the workload untraced and
prints the end-to-end metrics. With --trace 1 it runs the workload untraced
for half the time and traced for the other half, prints the per-layer
metrics and the tracing overhead, and checks that the traced run trained
bitwise-identical weights. Human-readable lines and one JSON line with the
environment record and every detail metric come first; the last line of
standard output is the JSON result.
"""

import os
import sys
import time

START = time.perf_counter()

# Fixed before numpy loads, so OpenBLAS starts with this many threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("cli", "train", "optim", "vat", "divergence", "baselines", "nn",
          "numerics", "data", "contour")
SETUP_REPEATS = 3  # set-ups at each end of the timed loop

# Metric name -> unit. Every workload reports every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "updates_per_s": "1/s",
    "ms_per_kupdate.mle": "ms",
    "ms_per_kupdate.vat": "ms",
    "eval_ms": "ms",
}
ALL_METHODS = ("mle", "l2", "dropout", "random", "adv-linf", "adv-l2", "vat", "vat-semisup")


def per_layer_units() -> dict:
    units = {
        "train.step.self_us": "us",
        "train.evaluate.us": "us",
        "numerics.sample_unit_vector.calls_per_update": "count",
        "numerics.check_finite.calls_per_update": "count",
    }
    for kind in ("forward", "backward"):
        for method in ALL_METHODS:
            units[f"nn.{kind}_per_update.{method}"] = "count"
    units.update({
        "nn.forward.us": "us", "nn.backward.us": "us", "nn.nll_loss.us": "us",
        "nn.gflop_per_update": "GFLOP", "nn.achieved_gflops": "GFLOP/s",
        "nn.blas_peak_gflops": "GFLOP/s",
        "optim.step.us": "us", "optim.step.calls": "count",
        "vat.gen_vap.us": "us", "vat.gen_vap.self_us": "us", "vat.vat_backward.us": "us",
        "vat.generate.us": "us", "vat.degenerate_row_share": "share",
        "divergence.base_distribution.us": "us", "divergence.grad_r_delta_kl.us": "us",
        "divergence.delta_kl.us": "us",
        "baselines.adv_perturbation.us": "us", "baselines.adv_loss_term.us": "us",
        "baselines.random_perturbation.us": "us", "baselines.l2_penalty.us": "us",
        "data.make_synthetic_dataset.us": "us", "data.load_mnist_idx.s": "s",
        "data.load_mnist_idx.mb_per_s": "MB/s", "data.export_csv.ms": "ms",
        "nn.save_checkpoint.ms": "ms", "nn.load_checkpoint.ms": "ms",
        "cli.train.self_ms": "ms", "cli.eval.self_ms": "ms", "cli.boundary.self_ms": "ms",
        "contour.probe_grid.ms": "ms", "contour.marching_squares.ms": "ms",
        "contour.boundary_svg.ms": "ms", "contour.grid_csv.ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER = per_layer_units()


def import_vatlab():
    """Import vatlab from this checkout's src/, never from an installed copy."""
    if not (SRC / "vatlab" / "__init__.py").is_file():
        print(f"error: no vatlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    harness = str(Path(__file__).resolve().parent)
    if harness not in sys.path:
        sys.path.insert(0, harness)
    import vatlab
    if Path(vatlab.__file__).resolve().parent != SRC / "vatlab":
        print(f"error: imported vatlab from {vatlab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return [importlib.import_module(f"vatlab.{name}") for name in LAYERS]


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        out[f"p{pct}"] = cut
    return out


def measure(workload, seconds: float):
    """Closed loop: whole rounds, the next starting only after the previous ends,
    until the time is up (at least one round). Returns the ops, the wall time
    and the part of it spent in reference bursts."""
    from workloads import Op
    ops, rounds = [], 0
    spent = workload.reference.spent
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        try:
            ops += workload.run_round(rounds)
        except Exception:  # a failed round is a failed operation; keep measuring
            traceback.print_exc()
            ops.append(Op("round", "error", 0.0, failures=["round raised"]))
        rounds += 1
    return ops, time.perf_counter() - start, workload.reference.spent - spent


def fresh_import(env: dict) -> float:
    """Seconds for a fresh interpreter to import vatlab.cli. No timeout: with
    one, subprocess polls for the exit in steps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vatlab.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def set_up(workload) -> dict:
    """Set up SETUP_REPEATS times; each repeat is a fresh interpreter importing
    vatlab (how every user starts, as measured) plus workload.setup(), timed
    like the workload's operations (between two reference bursts where they
    are, without any bursts run inside it). Returns the seconds of each part
    and their sums per repeat."""
    from workloads import Op
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload.burst()  # the first burst pays numpy's lazy initialisation
    out = {"import_s": [], "setup_s": [], "total_s": []}
    for _ in range(SETUP_REPEATS):
        imported = fresh_import(env)
        before = workload.burst()
        spent = workload.reference.spent
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start - (workload.reference.spent - spent)
        ref = (before + workload.burst()) / 2
        setup = workload.nominal(Op("setup", "", seconds, ref=ref))
        out["import_s"].append(imported)
        out["setup_s"].append(setup)
        out["total_s"].append(imported + setup)
    return out


def updates_per_s(ops, seconds: float) -> float:
    return sum(op.updates for op in ops) / seconds


def blas_peak_gflops(shape, seed: int) -> float:
    import numpy as np
    m, k, n = shape
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    a @ b
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < 0.3:
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def layer_metrics(tracer, blas_gflops: float, overhead_pct: float) -> dict:
    updates = sum(tracer.updates.values())
    step_self = sum(tracer.stats[s][2] for s in ("train.supervised_step", "train.semisup_step")
                    if s in tracer.stats)

    def per_update(name):
        calls = sum(c for (_, n), c in tracer.step_calls.items() if n == name)
        return calls / updates if updates else 0.0

    out = {
        "train.step.self_us": step_self / updates * 1e6 if updates else 0.0,
        "train.evaluate.us": tracer.mean("train.evaluate", 1e6),
        "numerics.sample_unit_vector.calls_per_update": per_update("numerics.sample_unit_vector"),
        "numerics.check_finite.calls_per_update": per_update("numerics.check_finite"),
    }
    for kind in ("forward", "backward"):
        for method in ALL_METHODS:
            n = tracer.updates[method]
            calls = tracer.step_calls[(method, f"nn.{kind}")]
            out[f"nn.{kind}_per_update.{method}"] = calls / n if n else 0.0
    nn_seconds = tracer.total("nn.forward") + tracer.total("nn.backward")
    out.update({
        "nn.forward.us": tracer.mean("nn.forward", 1e6),
        "nn.backward.us": tracer.mean("nn.backward", 1e6),
        "nn.nll_loss.us": tracer.mean("nn.nll_loss", 1e6),
        "nn.gflop_per_update": tracer.flops_step / updates / 1e9 if updates else 0.0,
        "nn.achieved_gflops": tracer.flops_all / nn_seconds / 1e9 if nn_seconds else 0.0,
        "nn.blas_peak_gflops": blas_gflops,
        "optim.step.us": tracer.mean("optim.step", 1e6),
        "optim.step.calls": tracer.calls("optim.step"),
        "vat.gen_vap.us": tracer.mean("vat.gen_vap", 1e6),
        "vat.gen_vap.self_us": tracer.mean("vat.gen_vap", 1e6, self_time=True),
        "vat.vat_backward.us": tracer.mean("vat.vat_backward", 1e6),
        "vat.generate.us": tracer.mean("vat.generate", 1e6),
        "vat.degenerate_row_share": (tracer.rows_degenerate / tracer.rows_searched
                                     if tracer.rows_searched else 0.0),
    })
    for name in ("divergence.base_distribution", "divergence.grad_r_delta_kl",
                 "divergence.delta_kl", "baselines.adv_perturbation",
                 "baselines.adv_loss_term", "baselines.random_perturbation",
                 "baselines.l2_penalty", "data.make_synthetic_dataset"):
        out[f"{name}.us"] = tracer.mean(name, 1e6)
    idx_seconds = tracer.total("data.load_mnist_idx")
    out["data.load_mnist_idx.s"] = tracer.mean("data.load_mnist_idx", 1.0)
    out["data.load_mnist_idx.mb_per_s"] = (tracer.bytes_read["data.load_mnist_idx"] / 1e6
                                           / idx_seconds if idx_seconds else 0.0)
    for name in ("data.export_csv", "nn.save_checkpoint", "nn.load_checkpoint",
                 "contour.probe_grid", "contour.marching_squares", "contour.boundary_svg",
                 "contour.grid_csv"):
        out[f"{name}.ms"] = tracer.mean(name, 1e3)
    for command in ("train", "eval", "boundary"):
        out[f"cli.{command}.self_ms"] = tracer.mean(f"cli.cmd_{command}", 1e3, self_time=True)
    out["trace.overhead_pct"] = overhead_pct
    return out


def timed_run(wl, seconds: float, import_s: float):
    """Untraced: set up, measure, and compute the end-to-end metrics."""
    import workloads
    # set-ups before measuring (they also warm up) and after it, so that
    # setup_s samples the host at both ends of the run
    setup = set_up(wl)
    ops, wall, ref_spent = measure(wl, seconds)
    for part, values in set_up(wl).items():
        setup[part] += values
    samples = wl.samples(ops)
    metrics = {
        "setup_s": statistics.median(setup["total_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "updates_per_s": updates_per_s(ops, wl.nominal_wall(ops, wall, ref_spent)),
    }
    metrics.update({name: statistics.median(v) for name, v in samples.items()
                    if name in END_TO_END})
    bursts = [o.ref for o in ops if o.ref]
    errors = [o.error for o in ops if o.error is not None]
    details = {
        "setup": dict(setup, in_process_import_s=import_s),
        "timed_wall_s": wall,
        "reference": {"nominal_s": workloads.Reference.NOMINAL_S,
                      "median_s": statistics.median(bursts) if bursts else None,
                      "spent_s": ref_spent},
        "samples": {name: summarize(v) for name, v in samples.items() if v},
        "wall_samples": {name: summarize(v)
                         for name, v in wl.samples(ops, nominal=False).items() if v},
        "wall_updates_per_s": updates_per_s(ops, wall),
        "test_error": {"median": statistics.median(errors), "max": max(errors)},
    }
    return ops, metrics, details


def traced_run(wl, seconds: float, modules, seed: int):
    """Half the time untraced, half traced; per-layer metrics and trace checks."""
    from tracer import Tracer
    from vatlab import nn
    import workloads
    wl.setup()
    plain_ops, plain_wall, plain_ref = measure(wl, seconds / 2)
    tracer = Tracer()
    counts_before = nn.propagation_counts()
    tracer.install(modules)
    wl.tracer = tracer
    try:
        wl.setup()
        traced_ops, traced_wall, traced_ref = measure(wl, seconds / 2)
    finally:
        tracer.uninstall()
        wl.tracer = None
    counts_after = nn.propagation_counts()

    checks = workloads.Op("trace", "checks", 0.0)
    if not tracer.restored(modules):
        checks.failures.append("a wrapped attribute was not restored")
    counted = (tracer.calls("nn.forward"), tracer.calls("nn.backward"))
    if counted != (counts_after[0] - counts_before[0], counts_after[1] - counts_before[1]):
        checks.failures.append("span counts disagree with nn.propagation_counts()")
    plain = {op.key: op.digest for op in plain_ops if op.digest}
    paired = [op for op in traced_ops if op.digest and op.key in plain]
    if not paired or any(op.digest != plain[op.key] for op in paired):
        checks.failures.append("traced weights differ from untraced weights")

    plain_ups = updates_per_s(plain_ops, plain_wall - plain_ref)
    traced_ups = updates_per_s(traced_ops, traced_wall - traced_ref)
    overhead = (1.0 - traced_ups / plain_ups) * 100.0
    metrics = layer_metrics(tracer, blas_peak_gflops(wl.blas_shape, seed), overhead)
    details = {"trace_check": {"weights_compared": len(paired),
                               "untraced_updates_per_s": plain_ups,
                               "traced_updates_per_s": traced_ups}}
    return plain_ops + traced_ops + [checks], metrics, details


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result, details) as the JSON objects to print."""
    modules = import_vatlab()
    import record
    import workloads
    import_s = time.perf_counter() - START

    details = {"workload": workload_name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "env": record.environment(str(ROOT), str(SRC))}
    details["env"]["blas"]["threads_requested"] = BLAS_THREADS
    workdir = tempfile.mkdtemp(prefix=".vatbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[workload_name](seed, workdir, tiny=tiny)
        if trace:
            ops, metrics, more = traced_run(wl, seconds, modules, seed)
        else:
            ops, metrics, more = timed_run(wl, seconds, import_s)
        ops.append(workloads.audit(wl))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.kind} {op.label}: {'; '.join(op.failures)}", file=sys.stderr)
    details.update(more, metrics=metrics)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-compare", "mnist-size", "synth-artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        extra = details.get("samples", {}).get(name)
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}"
              + (f"  {json.dumps(extra)}" if extra else ""))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
