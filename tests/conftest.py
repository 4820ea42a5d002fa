"""Shared helpers: finite-difference gradient oracles, the clean pass the
perturbation search starts from, the KL sensitivity's gradient (the paper's
finite-difference reference for Hessian-vector products), the exact KL
Hessian and its dominant eigenpair, one-layer logistic nets, small random
nets, and the OpenBLAS checks the golden tests gate on, built on
vatlab.numerics's probes of the library numpy loaded."""

import contextlib
import ctypes

import numpy as np
import pytest

from vatlab import nn
from vatlab.errors import DataError
from vatlab.numerics import (as_tensor, make_rng, openblas_config, openblas_function,
                             openblas_threads, softmax)


def numeric_grad(f, arr, step=1e-5):
    """Central-difference gradient of scalar f() with respect to arr (in place)."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def clean_pass(net, x):
    """(cache, probabilities) of the clean forward pass at x: what
    vat.gen_vap searches from."""
    logits, cache = nn.forward(net, x)
    return cache, softmax(logits)


def grad_r_delta_kl(net, x, r, base):
    """Exact per-row gradient of divergence.delta_kl with respect to r: one
    forward pass at x + r and one input-only backward pass of the logit
    gradient softmax - base. At r = xi * d, divided by xi, it is the paper's
    finite-difference Hessian-vector product, the reference the search's
    exact product is checked against."""
    logits, cache = nn.forward(net, x + r)
    return nn.backward(net, cache, softmax(logits) - base)


def kl_hessian(net, x_row):
    """Exact Hessian of divergence.delta_kl with respect to r at r = 0, for one
    input row: J^T (diag p - p p^T) J, where J is the Jacobian of the logits
    with respect to the input and p the softmax at x_row. The logits' own
    second derivatives are multiplied by q - p, which vanishes at r = 0 (the
    Fisher / Gauss-Newton identity). J takes one input-only backward pass per
    class."""
    x = np.asarray(x_row, dtype=float).reshape(1, -1)
    logits, cache = nn.forward(net, x)
    p = softmax(logits)[0]
    one_hot = np.eye(p.size)
    jac = np.vstack([nn.backward(net, cache, one_hot[k:k + 1]) for k in range(p.size)])
    return jac.T @ (np.diag(p) - np.outer(p, p)) @ jac


def dominant_eigenvector(matrix):
    """Largest-magnitude eigenpair of a small symmetric matrix; DataError for
    a matrix that is not square and symmetric."""
    a = as_tensor(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-10):
        raise DataError("dominant_eigenvector needs a symmetric square matrix")
    eigvals, eigvecs = np.linalg.eigh(a)
    idx = int(np.argmax(np.abs(eigvals)))
    return float(eigvals[idx]), eigvecs[:, idx]


def max_rel_err(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def logistic_net(theta):
    """One-layer two-class net with logit columns [0, theta]: the logistic
    model p(y=1|x) = sigmoid(theta^T x)."""
    theta = np.asarray(theta, dtype=float)
    return nn.MlpNetwork([nn.Layer(np.column_stack([np.zeros(theta.size), theta]),
                                   np.zeros(2))])


def random_small_net(rng, sizes=None):
    sizes = sizes or [4, 6, 3]
    net = nn.init_mlp(sizes, rng)
    # keep pre-activations away from ReLU kinks for finite differences
    for layer in net.layers:
        layer.biases += 0.1 * rng.standard_normal(layer.biases.shape)
    return net


@pytest.fixture
def rng():
    return make_rng(12345)


def require_env(numpy_version, openblas, what):
    """Skip, naming both environments, unless numpy and OpenBLAS are the ones
    the golden `what` were made with."""
    env = (np.__version__, openblas_config())
    if env != (numpy_version, openblas):
        pytest.skip(f"golden {what} were made with numpy {numpy_version} and {openblas!r}; "
                    f"this is numpy {env[0]} with {env[1]!r}")


@contextlib.contextmanager
def blas_threads(n):
    """Run the body with OpenBLAS at n threads, set through the library's own
    set_num_threads and restored afterwards; skip when it has none."""
    set_threads = openblas_function("set_num_threads")
    before = openblas_threads()
    if set_threads is None or before is None:
        pytest.skip("the OpenBLAS numpy loaded exports no set_num_threads/get_num_threads")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)
