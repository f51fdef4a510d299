"""Building-block layers with manual forward/backward passes.

All layers operate on batches of shape (N, features).  Forward passes return
(output, cache); backward passes consume the cache and the upstream gradient
and return gradients for parameters and inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateBatchError, ShapeError


def uniform_init(rng: np.random.Generator, out_dim: int, in_dim: int):
    """Weight/bias init uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(in_dim)
    weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    bias = rng.uniform(-bound, bound, size=out_dim)
    return weight, bias


@dataclass
class LinearLayer:
    """y = W x + b with W of shape (out_dim, in_dim)."""

    weight: np.ndarray
    bias: np.ndarray

    # Names of the trained tensors, and of every tensor eval mode reads.
    TRAINED = ("weight", "bias")
    STATE = TRAINED

    @classmethod
    def create(cls, rng, in_dim, out_dim):
        weight, bias = uniform_init(rng, out_dim, in_dim)
        return cls(weight=weight, bias=bias)

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"linear layer expects input dim {self.in_dim}, got {x.shape[-1]}"
            )
        out = x @ self.weight.T + self.bias
        return out, x

    def backward(self, cache, dout):
        x = cache
        dweight = dout.T @ x
        dbias = dout.sum(axis=0)
        dx = dout @ self.weight
        return dx, dweight, dbias


@dataclass
class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes by the batch mean and population variance (divide
    by N) and updates running stats with the configured momentum; the running
    variance update uses the unbiased (N-1) estimate.  Eval mode normalizes
    by the running stats.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-05
    momentum: float = 0.1

    TRAINED = ("gamma", "beta")
    STATE = TRAINED + ("running_mean", "running_var")

    def __post_init__(self):
        shapes = {np.shape(getattr(self, name)) for name in self.STATE}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ShapeError(f"batchnorm tensors must share one 1-d shape, got {shapes}")

    @classmethod
    def create(cls, dim):
        return cls(
            gamma=np.ones(dim),
            beta=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
        )

    @property
    def dim(self):
        return self.gamma.shape[0]

    def forward(self, x: np.ndarray, train: bool):
        if x.shape[-1] != self.dim:
            raise ShapeError(f"batchnorm expects dim {self.dim}, got {x.shape[-1]}")
        if train:
            n = x.shape[0]
            if n < 2:
                raise DegenerateBatchError(
                    "train-mode batch norm needs a batch of size >= 2"
                )
            mean = x.mean(axis=0)
            var = x.var(axis=0)  # population convention
            unbiased = var * n / (n - 1)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        out = self.gamma * xhat + self.beta
        cache = (xhat, inv_std, train, x.shape[0])
        return out, cache

    def backward(self, cache, dout):
        xhat, inv_std, train, n = cache
        dgamma = (dout * xhat).sum(axis=0)
        dbeta = dout.sum(axis=0)
        dxhat = dout * self.gamma
        if train:
            dx = (
                inv_std
                / n
                * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            )
        else:
            dx = dxhat * inv_std
        return dx, dgamma, dbeta


def leaky_relu(x: np.ndarray, slope: float):
    """Element-wise max(x, slope*x); cache is the input sign mask."""
    if slope < 0:
        raise ShapeError("leaky ReLU slope must be >= 0")
    mask = x >= 0
    out = np.where(mask, x, slope * x)
    return out, mask


def leaky_relu_backward(mask, slope, dout):
    return np.where(mask, dout, slope * dout)


@dataclass
class DropoutSpec:
    """Inverted dropout: survivors scaled by 1/(1-p) at train time."""

    probability: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.probability < 1.0:
            raise ConfigurationError("dropout probability must be in [0, 1)")

    def draw_mask(self, rng: np.random.Generator, shape):
        if self.probability == 0.0:
            return np.ones(shape)
        keep = rng.random(shape) >= self.probability
        return keep / (1.0 - self.probability)

    def apply(self, x: np.ndarray, train: bool, rng=None):
        """Returns (output, mask); mask is None in eval mode."""
        if not train:
            return x, None
        mask = self.draw_mask(rng, x.shape)
        return x * mask, mask
