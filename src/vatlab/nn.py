"""Multilayer perceptron with hand-derived forward/backward passes.

The network is a stack of affine layers with ReLU hidden activations and an
identity output layer; softmax is applied by the loss / divergence code, not
here. Backward returns the exact gradient with respect to the input, which
the perturbation search needs, unless told to skip it, and writes the
parameter gradients into a bundle when it is given one; the search gives it
none and propagates to the input only; with a tangent pass (forward on a
clean pass's cache) it makes exact Hessian-vector products. Each network copies the arrays it is
built from into one float64 vector and makes every layer's weights and biases
views of it, so an optimizer updates the network in one call. Every parameter
gradient is laid out the same way: a GradientBundle's weight and bias
gradients are views of one vector. The training loop makes two bundles once,
so a steady-state update allocates no parameter-sized array and combines its
likelihood and penalty gradients in two calls. The negative
log-likelihood's gradient starts from the softmax probabilities, which the
training step also takes as the penalty's base distribution, with the pass's
cache for the search, instead of computing them again.

Module-level counters track forward/backward calls so the regularizer's
propagation cost can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError, UsageError
from .numerics import Tensor, as_tensor, log_softmax, softmax

_CHECKPOINT_VERSION = 1

_counts = {"forward": 0, "backward": 0}


def propagation_counts() -> tuple[int, int]:
    """(forward calls, backward calls) since the process started; callers
    read a cost as the difference of two readings."""
    return _counts["forward"], _counts["backward"]


def _activation_names(n_layers: int) -> list[str]:
    """The activation of each layer as checkpoints name it: ReLU for every
    layer but the last, which is the identity."""
    return ["relu"] * (n_layers - 1) + ["identity"]


@dataclass
class Layer:
    """One affine layer; a network applies ReLU after every layer but its last."""
    weights: Tensor  # (fan_in, fan_out)
    biases: Tensor   # (fan_out,)


@dataclass
class MlpNetwork:
    """A stack of layers whose weights and biases are consecutive views of one
    float64 vector, in parameters() order. The constructor copies the given
    layers' arrays into a new vector and builds its own Layers on its views,
    leaving the given ones as they were. Assign into a layer array in place;
    a rebound one (layer.weights = ...) would not train, and the training
    loop raises UsageError for it."""
    layers: list[Layer]
    _vector: Tensor = field(init=False, repr=False, compare=False)
    _views: list[Tensor] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for layer in self.layers:
            w_shape, b_shape = np.shape(layer.weights), np.shape(layer.biases)
            if len(w_shape) != 2 or b_shape != w_shape[1:]:
                raise DimensionError(f"a layer needs 2-D weights and one bias per output, "
                                     f"got shapes {w_shape} and {b_shape}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise DimensionError("consecutive layer dimensions do not chain")
        arrays = self.parameters()
        self._vector = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        self._views = _views(self._vector, [a.shape for a in arrays])
        self.layers = [Layer(w, b) for w, b in zip(self._views[::2], self._views[1::2])]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def parameter_vector(self) -> Tensor:
        """The one vector every parameter array is a view of."""
        return self._vector

    def parameters(self) -> list[Tensor]:
        """Flat list of parameter arrays (views, not copies)."""
        return [p for layer in self.layers for p in (layer.weights, layer.biases)]

    def check_views(self) -> None:
        """Raise UsageError unless every layer array is still the view of the
        parameter vector the constructor made."""
        if [id(p) for p in self.parameters()] != [id(view) for view in self._views]:
            raise UsageError("a layer's weights or biases were rebound to an array outside "
                             "the network's parameter vector; assign into them in place")

    def zero_gradients(self) -> "GradientBundle":
        """A new bundle of zero parameter gradients, views of one vector laid
        out like the parameter vector, after check_views()."""
        self.check_views()
        vector = np.zeros(self._vector.size)
        views = _views(vector, [view.shape for view in self._views])
        return GradientBundle(views[::2], views[1::2], vector)


def _views(vector: Tensor, shapes) -> list[Tensor]:
    """C-contiguous views of consecutive runs of vector, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(vector[start:stop].reshape(shape))
        start = stop
    return views


@dataclass(slots=True)
class ForwardCache:
    net_id: int
    x: Tensor
    activations: list[Tensor]  # per layer: ReLU outputs (> 0 where z > 0), then the logits


@dataclass(slots=True)
class GradientBundle:
    d_weights: list[Tensor]
    d_biases: list[Tensor]
    vector: Tensor  # the one vector d_weights and d_biases are views of


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> MlpNetwork:
    """He-scaled Gaussian weights (std sqrt(2/fan_in)), zero biases.

    layer_sizes is [input_dim, hidden..., n_classes]; hidden layers get ReLU.
    """
    if len(layer_sizes) < 2:
        raise ConfigError("need at least input and output sizes")
    pairs = list(zip(layer_sizes, layer_sizes[1:]))
    net = MlpNetwork([Layer(np.zeros((fan_in, fan_out)), np.zeros(fan_out))
                      for fan_in, fan_out in pairs])
    for (fan_in, _), layer in zip(pairs, net.layers):
        rng.standard_normal(out=layer.weights)  # the draws of rng.standard_normal(shape)
        layer.weights *= np.sqrt(2.0 / fan_in)
    return net


def forward(net: MlpNetwork, x: Tensor, *,
            tangent_at: ForwardCache | None = None) -> tuple[Tensor, ForwardCache]:
    """Logits for a (batch, input_dim) tensor plus the cache backward needs.

    With tangent_at, a pass of net at x0, the result is the logits' input
    Jacobian at x0 times the directions x: no biases, and tangent_at's ReLU
    masks in place of ReLU; the cache returned is tangent_at. The logits are
    not checked for finiteness: the losses that read them do.
    """
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(f"input shape {x.shape} does not match input_dim {net.input_dim}")
    _counts["forward"] += 1
    h = x
    if tangent_at is not None:
        for layer, relu_out in zip(net.layers, tangent_at.activations[:-1]):
            h = h @ layer.weights
            h *= relu_out > 0
        return h @ net.layers[-1].weights, tangent_at
    post = []
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        # one array per layer: the product, then the bias and ReLU in place
        h = h @ layer.weights
        h += layer.biases
        if i < last:
            np.maximum(h, 0.0, out=h)
        post.append(h)
    return h, ForwardCache(net_id=id(net), x=x, activations=post)


def backward(net: MlpNetwork, cache: ForwardCache, d_logits: Tensor, *,
             out: GradientBundle | None = None, input_grad: bool = True) -> Tensor | None:
    """Exact gradients of the scalar whose logit-gradient is d_logits.

    The weight and bias gradients are written into out's arrays when out is
    given and skipped when it is not. Returns the input gradient, a new
    array; with input_grad=False its product with the first layer's weights
    is skipped and None is returned.
    """
    if cache.net_id != id(net) or len(cache.activations) != len(net.layers):
        raise UsageError("cache does not belong to this network")
    d_logits = as_tensor(d_logits)
    if d_logits.shape != cache.activations[-1].shape:
        raise DimensionError("d_logits shape does not match the forward logits")
    _counts["backward"] += 1
    delta = d_logits
    last = len(net.layers) - 1
    for i in range(last, -1, -1):
        layer = net.layers[i]
        if i < last:
            # the output layer is identity, so delta is this pass's own product
            delta *= cache.activations[i] > 0
        if out is not None:
            below = cache.x if i == 0 else cache.activations[i - 1]
            np.matmul(below.T, delta, out=out.d_weights[i])
            np.add.reduce(delta, axis=0, out=out.d_biases[i])
        if i > 0 or input_grad:
            delta = delta @ layer.weights.T
    return delta if input_grad else None


def nll_loss(logits: Tensor, labels: np.ndarray) -> tuple[float, Tensor, Tensor]:
    """Mean negative log-likelihood, its gradient w.r.t. the logits, and the
    softmax probabilities that gradient starts from, which the training step
    reuses as the penalty's base distribution."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= c:
        raise DataError("label out of range")
    log_p = log_softmax(logits)
    rows = np.arange(n)
    loss = -(np.add.reduce(log_p[rows, labels]) / n)
    proba = np.exp(log_p)
    d_logits = proba.copy()
    d_logits[rows, labels] -= 1.0
    d_logits /= n
    return float(loss), d_logits, proba


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
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.biases
    arrays["activations"] = np.array(_activation_names(len(net.layers)))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> MlpNetwork:
    """The network a save_checkpoint file holds; FormatError for a malformed one
    (a missing or 0-d entry, a non-float array, a bad activation or shape, a
    non-finite weight or bias)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["version"][0]) != _CHECKPOINT_VERSION:
                raise FormatError(f"unsupported checkpoint version in {path}")
            acts = [str(a) for a in data["activations"]]
            if acts != _activation_names(len(acts)):
                raise FormatError(f"bad checkpoint file {path}: activations {acts}, expected "
                                  "relu for every layer but the last, which is identity")
            pairs = [(data[f"w{i}"], data[f"b{i}"]) for i in range(len(acts))]
            if not all(np.issubdtype(a.dtype, np.floating) for pair in pairs for a in pair):
                raise FormatError(f"bad checkpoint file {path}: a weight or bias array "
                                  "is not floating point")
            net = MlpNetwork([Layer(w, b) for w, b in pairs])
    except (EOFError, KeyError, OSError, ValueError, IndexError, TypeError,
            DimensionError) as exc:
        raise FormatError(f"bad checkpoint file {path}: {exc}") from exc
    if not np.isfinite(net.parameter_vector).all():
        raise FormatError(f"bad checkpoint file {path}: a weight or bias is not finite")
    return net
