"""Multilayer perceptron with hand-derived forward/backward passes.

The network is a stack of affine layers with ReLU hidden activations and an
identity output layer; softmax is applied by the loss / divergence code, not
here. Backward produces exact gradients with respect to the parameters and,
unless told to skip it, the input, which the perturbation search needs; the
search itself skips the parameter gradients and propagates to the input only.
Backward can write the parameter gradients into a caller's GradientBundle, so
a steady-state training update allocates no parameter-sized array.

Module-level counters track forward/backward calls so the regularizer's
propagation cost can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError, UsageError
from .numerics import Tensor, as_tensor, log_softmax, softmax

_CHECKPOINT_VERSION = 1

_counts = {"forward": 0, "backward": 0}


def reset_propagation_counts() -> None:
    _counts["forward"] = 0
    _counts["backward"] = 0


def propagation_counts() -> tuple[int, int]:
    """(forward calls, backward calls) since the last reset."""
    return _counts["forward"], _counts["backward"]


@dataclass
class Layer:
    weights: Tensor  # (fan_in, fan_out)
    biases: Tensor   # (fan_out,)
    activation: str  # "relu" or "identity"

    def __post_init__(self):
        if self.activation not in ("relu", "identity"):
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass
class MlpNetwork:
    layers: list[Layer]
    # (likelihood, penalty) bundles the training step writes its gradients
    # into: made by the first update, reused after, dropped when a training
    # loop ends, never copied or saved
    _grad_buffers: tuple | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise DimensionError("consecutive layer dimensions do not chain")
        if self.layers and self.layers[-1].activation != "identity":
            raise ConfigError("output layer must use the identity activation")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_classes(self) -> int:
        return self.layers[-1].weights.shape[1]

    def parameters(self) -> list[Tensor]:
        """Flat list of parameter arrays (views, not copies)."""
        params = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.biases)
        return params

    def gradient_buffers(self) -> tuple["GradientBundle", "GradientBundle"]:
        """Two reusable bundles for backward(..., out=); the first backward
        into each allocates its arrays."""
        if self._grad_buffers is None:
            n = len(self.layers)
            self._grad_buffers = (GradientBundle([None] * n, [None] * n, None),
                                  GradientBundle([None] * n, [None] * n, None))
        return self._grad_buffers

    def release_gradient_buffers(self) -> None:
        """Drop the gradient buffers, which hold as much memory as the parameters."""
        self._grad_buffers = None

    def copy(self) -> "MlpNetwork":
        return MlpNetwork([
            Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in self.layers
        ])


@dataclass
class ForwardCache:
    net_id: int
    x: Tensor
    pre_activations: list[Tensor]
    activations: list[Tensor]  # post-activation outputs per layer


@dataclass
class GradientBundle:
    d_weights: list[Tensor]
    d_biases: list[Tensor]
    d_input: Tensor | None  # None when backward ran with input_grad=False
    # d_weights and d_biases hold None where backward ran with param_grads=False

    def parameter_grads(self) -> list[Tensor]:
        grads = []
        for dw, db in zip(self.d_weights, self.d_biases):
            grads.append(dw)
            grads.append(db)
        return grads


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> MlpNetwork:
    """He-scaled Gaussian weights (std sqrt(2/fan_in)), zero biases.

    layer_sizes is [input_dim, hidden..., n_classes]; hidden layers get ReLU.
    """
    if len(layer_sizes) < 2:
        raise ConfigError("need at least input and output sizes")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        act = "identity" if i == len(layer_sizes) - 2 else "relu"
        layers.append(Layer(w, b, act))
    return MlpNetwork(layers)


def forward(net: MlpNetwork, x: Tensor) -> tuple[Tensor, ForwardCache]:
    """Logits for a (batch, input_dim) tensor plus the cache backward needs.

    The logits are not checked for finiteness: the losses that read them do.
    """
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(f"input shape {x.shape} does not match input_dim {net.input_dim}")
    _counts["forward"] += 1
    pre, post = [], []
    h = x
    for layer in net.layers:
        z = h @ layer.weights + layer.biases
        pre.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        post.append(h)
    return h, ForwardCache(net_id=id(net), x=x, pre_activations=pre, activations=post)


def backward(net: MlpNetwork, cache: ForwardCache, d_logits: Tensor,
             input_grad: bool = True, *, param_grads: bool = True,
             out: GradientBundle | None = None) -> GradientBundle:
    """Exact gradients of the scalar whose logit-gradient is d_logits.

    With input_grad=False the input gradient (the product with the first
    layer's weights) is skipped and d_input is None. With param_grads=False
    the weight and bias gradients are skipped and only d_input is computed.
    With out, the parameter gradients are written into out's arrays (entries
    still None are allocated and kept there) and out is returned.
    """
    if cache.net_id != id(net) or len(cache.pre_activations) != len(net.layers):
        raise UsageError("cache does not belong to this network")
    d_logits = as_tensor(d_logits)
    if d_logits.shape != cache.pre_activations[-1].shape:
        raise DimensionError("d_logits shape does not match the forward logits")
    _counts["backward"] += 1
    n = len(net.layers)
    if out is None:
        out = GradientBundle([None] * n, [None] * n, None)
    d_weights, d_biases = out.d_weights, out.d_biases
    delta = d_logits
    for i in range(n - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            # the output layer is identity, so delta is this pass's own product
            delta *= cache.pre_activations[i] > 0
        if param_grads:
            below = cache.x if i == 0 else cache.activations[i - 1]
            d_weights[i] = np.matmul(below.T, delta, out=d_weights[i])
            d_biases[i] = delta.sum(axis=0, out=d_biases[i])
        if i > 0 or input_grad:
            delta = delta @ layer.weights.T
    out.d_input = delta if input_grad else None
    return out


def nll_loss(logits: Tensor, labels: np.ndarray) -> tuple[float, Tensor]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError("label out of range")
    log_p = log_softmax(logits)
    loss = -log_p[np.arange(n), labels].mean()
    d_logits = np.exp(log_p)
    d_logits[np.arange(n), labels] -= 1.0
    return float(loss), d_logits / n


def predict_proba(net: MlpNetwork, x: Tensor) -> Tensor:
    return softmax(forward(net, x)[0])


def apply_dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted input dropout: keep with probability p, rescale survivors by 1/p."""
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"keep probability must be in (0, 1], got {p}")
    x = as_tensor(x)
    if p == 1.0:
        return x
    mask = rng.random(x.shape) < p
    return x * mask / p


def save_checkpoint(net: MlpNetwork, path) -> None:
    arrays = {"version": np.array([_CHECKPOINT_VERSION])}
    acts = []
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.biases
        acts.append(layer.activation)
    arrays["activations"] = np.array(acts)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> MlpNetwork:
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"][0]) != _CHECKPOINT_VERSION:
                raise FormatError(f"unsupported checkpoint version in {path}")
            acts = [str(a) for a in data["activations"]]
            layers = [
                Layer(data[f"w{i}"].astype(np.float64), data[f"b{i}"].astype(np.float64), act)
                for i, act in enumerate(acts)
            ]
    except (EOFError, KeyError, OSError, ValueError) as exc:
        raise FormatError(f"bad checkpoint file {path}: {exc}") from exc
    return MlpNetwork(layers)
