"""Building-block layers with manual forward/backward passes.

All layers operate on batches of shape (N, features); a linear layer also
takes a (T, N, features) stack of T batches through the same weights.
Forward passes return (output, cache); backward passes consume the cache
and the upstream gradient and return gradients for parameters and inputs.
A backward pass writes the parameter gradients into `out`, one array per
trained tensor in TRAINED order, and allocates none of its own.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateBatchError, ShapeError, check_array_size

# Batch norm's variance guard and running-statistics momentum.
BN_EPS = 1e-05
BN_MOMENTUM = 0.1


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
        """Weight and bias uniform in +-1/sqrt(in_dim)."""
        if in_dim < 1:
            raise ShapeError(f"a linear layer needs an input dim >= 1, got {in_dim}")
        check_array_size(f"a {out_dim} x {in_dim} weight matrix", out_dim * in_dim)
        bound = 1.0 / np.sqrt(in_dim)
        weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        bias = rng.uniform(-bound, bound, size=out_dim)
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
        out = x @ self.weight.T
        out += self.bias
        return out, x

    def backward(self, cache, dout, out, input_grad=True):
        """(dx, dweight, dbias); dx is None without `input_grad`.

        A (T, n, in_dim) stack of T inputs sums its terms' weight and bias
        gradients, each formed as its own (n, in_dim) call forms it."""
        x = cache
        if x.ndim == 2:
            dweight = np.matmul(dout.T, x, out=out[0])
            dbias = np.add.reduce(dout, 0, out=out[1])
        else:
            dweight = np.matmul(dout[0].T, x[0], out=out[0])
            for dout_t, x_t in zip(dout[1:], x[1:]):
                dweight += dout_t.T @ x_t
            dbias = np.add.reduce(np.add.reduce(dout, 1), 0, out=out[1])
        dx = dout @ self.weight if input_grad else None
        return dx, dweight, dbias


@dataclass
class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes by the batch mean and population variance (divide
    by N) and updates running stats with momentum BN_MOMENTUM; the running
    variance update uses the unbiased (N-1) estimate.  Eval mode normalizes
    by the running stats.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

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
            # x.mean(0) and x.var(0) (population convention) as numpy forms
            # them, with the centred batch kept for xhat.
            mean = np.add.reduce(x, 0) / n
            centred = x - mean
            var = np.add.reduce(centred * centred, 0) / n
            unbiased = var * n / (n - 1)
            self.running_mean = (
                (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            )
            self.running_var = (
                (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased
            )
        else:
            centred = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = np.multiply(centred, inv_std, out=centred)
        out = self.gamma * xhat
        out += self.beta
        cache = (xhat, inv_std, train, x.shape[0])
        return out, cache

    def backward(self, cache, dout, out):
        """(dx, dgamma, dbeta).  Train mode forms
            dx = inv_std/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
        with dxhat = dout*gamma, in two batch-sized arrays: dx starts as
        dxhat, and `scratch` holds each product that is summed or
        subtracted."""
        xhat, inv_std, train, n = cache
        scratch = dout * xhat
        dgamma = np.add.reduce(scratch, 0, out=out[0])
        dbeta = np.add.reduce(dout, 0, out=out[1])
        dx = dout * self.gamma
        if train:
            dxhat_sum = np.add.reduce(dx, 0)
            np.multiply(dx, xhat, out=scratch)
            np.multiply(xhat, np.add.reduce(scratch, 0), out=scratch)
            dx *= n
            dx -= dxhat_sum
            dx -= scratch
            dx *= inv_std / n
        else:
            dx *= inv_std
        return dx, dgamma, dbeta


def leaky_relu(x: np.ndarray, slope: float):
    """Element-wise max(x, slope*x), for a slope in [0, 1], written over
    `x`; cache is the input sign mask."""
    mask = x >= 0
    np.maximum(x, slope * x, out=x)
    return x, mask


def leaky_relu_backward(mask, slope, dout):
    """`dout` where the input was >= 0 and slope*dout elsewhere, written
    over `dout`."""
    dout *= np.where(mask, 1.0, slope)
    return dout


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
        mask = rng.random(shape)
        return np.divide(mask >= self.probability, 1.0 - self.probability, out=mask)

    def apply(self, x: np.ndarray, train: bool, rng=None):
        """Returns (output, mask); mask is None in eval mode.  The output
        is `x`, in train mode dropped out in place."""
        if not train:
            return x, None
        mask = self.draw_mask(rng, x.shape)
        return np.multiply(x, mask, out=x), mask
