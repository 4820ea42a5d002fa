"""vatlab: local distributional smoothness regularization for small MLPs.

Modules: numerics (tensors, RNG, softmax), nn (MLP forward/backward),
divergence (KL sensitivity), vat (perturbation search + penalty gradient),
baselines (adversarial / random / L2 regularizers), optim, data, train,
contour, cli.
"""

__version__ = "0.1.0"
