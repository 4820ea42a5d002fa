"""Span-recording timers wrapped around vatlab's public module attributes.

`Tracer.install` replaces every public function bound in a traced module's
namespace, including names one module imports from another (`vat` binds
`numerics.sample_unit_vector`, for example), and the optimizers' `step`
methods, with one timing wrapper per original function. `uninstall` puts the
originals back. The wrappers only read the clock and the arguments' shapes,
so a traced run computes exactly what an untraced one does.

Spans are aggregated in memory per name: calls, inclusive time and self time.
Self time is inclusive time minus the outer cost of each traced child call,
measured from the child's wrapper entry to the end of its bookkeeping, so
the tracer's own work for a child is never charged to the parent. Counts of
calls made inside a training step are kept per method label, which the
harness sets before each operation.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

# Span names of the per-update step functions in vatlab.train.
STEP_SPANS = ("train.supervised_step", "train.semisup_step")

# Rows whose perturbation-search gradient norm falls below this are degenerate
# (the same tolerance vatlab.vat uses).
DEGENERATE_TOL = 1e-12

_MARK = "__vatbench_span__"

clock = time.perf_counter


def _mlp_macs(net, batch: int) -> int:
    return batch * sum(layer.weights.shape[0] * layer.weights.shape[1]
                       for layer in net.layers)


def _forward_hook(tracer, args, kwargs, result):
    net, x = args[0], args[1]
    tracer.add_flops(2 * _mlp_macs(net, np.shape(x)[0]))


def _backward_hook(tracer, args, kwargs, result):
    net, d_logits = args[0], args[2]
    # one product for the weight gradients and one for the input-side delta
    tracer.add_flops(4 * _mlp_macs(net, np.shape(d_logits)[0]))


def _search_hook(tracer, args, kwargs, result):
    if tracer.active["vat.gen_vap"] and isinstance(result, np.ndarray):
        norms = np.linalg.norm(result, axis=1)
        tracer.rows_searched += norms.size
        tracer.rows_degenerate += int((norms < DEGENERATE_TOL).sum())


def _idx_hook(tracer, args, kwargs, result):
    tracer.bytes_read["data.load_mnist_idx"] += sum(os.path.getsize(p) for p in args[:2])


HOOKS = {
    "nn.forward": _forward_hook,
    "nn.backward": _backward_hook,
    "divergence.grad_r_delta_kl": _search_hook,
    "data.load_mnist_idx": _idx_hook,
}


class Tracer:
    """In-memory span aggregator; install around a traced phase, then uninstall."""

    def __init__(self):
        self.label = "setup"
        self.stack: list[list] = []              # [name, child seconds, start]
        self.active: Counter = Counter()         # open spans per name
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.step_calls: Counter = Counter()     # (label, name) -> calls inside a step
        self.updates: Counter = Counter()        # label -> step spans closed
        self.flops_all = 0
        self.flops_step = 0
        self.rows_searched = 0
        self.rows_degenerate = 0
        self.bytes_read: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.installed = False

    # -- span bookkeeping -------------------------------------------------

    def in_step(self) -> bool:
        return any(self.active[name] for name in STEP_SPANS)

    def enter(self, name: str) -> list:
        self.active[name] += 1
        frame = [name, 0.0, clock()]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = clock() - frame[2]
        self.stack.pop()
        name = frame[0]
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        self.active[name] -= 1
        if name in STEP_SPANS:
            self.updates[self.label] += 1
        elif self.in_step():
            self.step_calls[(self.label, name)] += 1

    def add_flops(self, flops: int) -> None:
        self.flops_all += flops
        if self.in_step():
            self.flops_step += flops

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = clock()
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if tracer.stack:  # the parent's self time excludes this call and its tracing
                tracer.stack[-1][1] += clock() - outer
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- installing and restoring -----------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions bound in each module, plus optimizer steps."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self.installed = True
        layer_of = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        wrappers: dict[int, object] = {}

        def patch(owner, attr, original, name):
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is not None:
                    patch(module, attr, value, f"{layer}.{value.__name__}")
            for attr, value in list(vars(module).items()):
                if (inspect.isclass(value) and value.__module__ == module.__name__
                        and layer_of[module.__name__] == "optim"
                        and inspect.isfunction(vars(value).get("step"))):
                    patch(value, "step", vars(value)["step"], "optim.step")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self.installed = False

    def restored(self, modules) -> bool:
        """True when every patched attribute is its original again and no
        wrapper is left anywhere in the traced modules."""
        for owner, attr, original in self._patched:
            if vars(owner).get(attr) is not original:
                return False
        for module in modules:
            for value in vars(module).values():
                if hasattr(value, _MARK):
                    return False
                if inspect.isclass(value) and any(hasattr(v, _MARK)
                                                  for v in vars(value).values()):
                    return False
        return True

    # -- summaries --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def mean(self, name: str, scale: float, self_time: bool = False) -> float:
        if name not in self.stats or not self.stats[name][0]:
            return 0.0
        calls, total, own = self.stats[name]
        return (own if self_time else total) / calls * scale

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0
