"""Core numeric primitives: float64 tensors, seeded RNG, stable softmax.

Everything downstream (networks, divergences, perturbation search) goes
through these helpers, so the finiteness and shape checks live here.
log_softmax_unchecked is the kernel of the checked log_softmax; the passes
inside a training update call it directly, and the update checks its losses
once instead. Reductions on the hot path call the ufunc reductions
(np.add.reduce, np.maximum.reduce) that the array methods .sum() and .max()
dispatch to, without the Python-level dispatch. Tensors are plain float64
numpy arrays in row-major layout with the batch as the leading dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# Floor applied to probabilities before they enter a logarithm outside of
# log-sum-exp; keeps KL finite for near-degenerate distributions.
PROB_FLOOR = 1e-12
# A row of a smaller L2 norm has no direction: normalize_rows turns it into
# zeros, and vat.gen_vap keeps its previous search direction.
ZERO_NORM = 1e-12

Tensor = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; equal seeds give bitwise-identical streams. A seed
    is a non-negative integer."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def as_tensor(values) -> Tensor:
    return np.asarray(values, dtype=np.float64)


def check_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.isfinite(t).all():
        raise NumericError(f"non-finite values in {what}")
    return t


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax with max subtraction for stability.

    Requires a (batch, C) tensor with C >= 2 and finite entries.
    """
    z = as_tensor(logits)
    if z.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"log_softmax expects (batch, C>=2), got {z.shape}")
    check_finite(z, "logits")
    return log_softmax_unchecked(z)


def log_softmax_unchecked(z: Tensor) -> Tensor:
    """log_softmax without its checks, for float64 (batch, C) logits the
    caller has already validated or whose result it checks itself."""
    shifted = z - np.maximum.reduce(z, axis=1, keepdims=True)
    norm = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
    shifted -= np.log(norm, out=norm)
    return shifted


def softmax(logits: Tensor) -> Tensor:
    return np.exp(log_softmax(logits))


def _row_norms(v: Tensor) -> Tensor:
    # one (1, dim) @ (dim, 1) product per row rounds exactly like the norm of
    # a single 1-D draw; np.linalg.norm(v, axis=1) differs in the last bit
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, :, 0]


def sample_unit_vector(rng: np.random.Generator, dim: int, batch: int) -> Tensor:
    """Uniform directions on the unit sphere: Gaussian draws, then normalize.

    Returns a (batch, dim) tensor drawn in a single call whose rows equal
    `batch` successive draws of one row bit for bit. Rows of norm <= 1e-30
    are drawn again.
    """
    if dim < 1:
        raise DimensionError("sample_unit_vector needs dim >= 1")
    v = rng.standard_normal((batch, dim))
    norms = _row_norms(v)
    while (norms <= 1e-30).any():
        redraw = norms[:, 0] <= 1e-30
        v[redraw] = rng.standard_normal((int(redraw.sum()), dim))
        norms = _row_norms(v)
    v /= norms
    return v


def normalize_rows(t: Tensor) -> Tensor:
    """L2-normalize each row; rows with norm below ZERO_NORM become zeros."""
    t = as_tensor(t)
    # what np.linalg.norm(..., axis=1) computes for real rows
    norms = np.sqrt(np.add.reduce(t * t, axis=1, keepdims=True))
    degenerate = norms < ZERO_NORM
    out = t / np.where(degenerate, 1.0, norms)
    if degenerate.any():
        out[degenerate[:, 0]] = 0.0
    return out


def openblas_function(name: str):
    """OpenBLAS's `name` function (get_config, set_num_threads, ...) in the
    library numpy loaded, untyped, or None when numpy uses another BLAS."""
    import ctypes  # imported here, as only these probes use it
    import glob
    import os

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def openblas_config() -> str | None:
    """Runtime configuration string of the OpenBLAS numpy loaded, or None."""
    import ctypes

    config = openblas_function("get_config")
    if config is None:
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    return config().decode()


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None."""
    import ctypes

    threads = openblas_function("get_num_threads")
    if threads is None:
        return None
    threads.argtypes, threads.restype = [], ctypes.c_int
    return threads()


def environment() -> dict:
    """What trained weights depend on besides the seed and the settings: the
    Python and numpy versions, and the configuration and thread count of the
    OpenBLAS numpy loaded (None under another BLAS), whose larger matrix
    products round differently at different thread counts."""
    import platform

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"config": openblas_config(), "threads": openblas_threads()}}
