"""Additive angular-margin classification loss with analytic gradients.

Logits are scaled cosines between the L2-normalized embedding and the
L2-normalized class prototype columns; the target class's angle is penalized
by an additive margin before the cosine.  When the penalized angle would
leave the stable region (theta + m > pi) the standard monotone surrogate
cos(theta) - m*sin(m) is used instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, LabelError, ShapeError

_SIN_FLOOR = 1e-12


@dataclass
class ArcMarginHead:
    """Class prototypes (d_e x n_classes) plus feature scale and margin."""

    prototypes: np.ndarray
    scale: float = 16.0
    margin: float = 0.125  # radians

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2:
            raise ShapeError("prototypes must be a (d_e, n_classes) matrix")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigurationError("scale must be positive and finite")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigurationError("margin must be in [0, pi/2)")
        norms = np.linalg.norm(self.prototypes, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateInputError("every prototype column must be nonzero")

    @classmethod
    def create(cls, rng, d_e, n_classes, scale=scale, margin=margin):  # the fields' defaults
        protos = rng.normal(size=(d_e, n_classes))
        protos /= np.linalg.norm(protos, axis=0, keepdims=True)
        return cls(prototypes=protos, scale=scale, margin=margin)

    @property
    def n_classes(self):
        return self.prototypes.shape[1]

    def unit_prototypes(self):
        """(w_hat, norms): the prototype columns scaled to unit length, and
        their lengths.  A training step forms them once for all its loss
        terms."""
        norms = np.sqrt(np.add.reduce(self.prototypes * self.prototypes, axis=0))
        return self.prototypes / norms, norms


def softmax_cross_entropy(logits, target):
    """-log softmax(logits)[target] with max-subtraction stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < logits.shape[-1]:
        raise LabelError(f"target {target} out of range for {logits.shape[-1]} classes")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def _cosines(embeddings, w_hat):
    """Row-normalized embeddings against the unit prototype columns `w_hat`.

    `embeddings` is (n, d_e) or a (T, n, d_e) stack; each row is normalized
    on its own.  Exactly-zero rows (which a ReLU head can emit) keep an
    all-zero direction; the returned `zero` mask marks them, so a caller
    can reject them or zero their gradient.
    """
    # np.linalg.norm(embeddings, axis=-1) as numpy forms it, without its
    # argument handling.
    norms = np.sqrt(np.add.reduce(embeddings * embeddings, axis=-1))
    zero = norms == 0.0
    norms[zero] = 1.0
    e_hat = embeddings / norms[..., None]
    cos = e_hat @ w_hat
    np.minimum(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    return cos, e_hat, norms, zero


def _margin_logits(head, cos, targets):
    """(logits, index, cos_t, stable, sin2): the scaled cosines with each
    row's target angle penalized by the margin, the flat index in `cos` of
    each row's target entry, that row's target cosine, whether the
    penalized angle stays in the stable region, and 1 - cos_t**2.  The
    logits are `cos`, scaled in place.  `cos` is (..., n, n_classes): a
    stack of terms shares the n targets."""
    targets = np.asarray(targets)
    n = cos.shape[-2]
    if targets.shape != (n,):
        raise ShapeError("targets must be a 1-d integer array, one per embedding")
    if ((targets < 0) | (targets >= head.n_classes)).any():
        raise LabelError("target class index out of range")
    index = np.arange(0, cos.size, head.n_classes).reshape(cos.shape[:-1]) + targets
    cos_t = cos.take(index)
    stable = cos_t > math.cos(math.pi - head.margin)
    sin2 = 1.0 - cos_t**2
    phi = np.where(
        stable,
        cos_t * math.cos(head.margin)
        - np.sqrt(np.maximum(sin2, 0.0)) * math.sin(head.margin),
        cos_t - head.margin * math.sin(head.margin),
    )
    logits = np.multiply(cos, head.scale, out=cos)
    logits.put(index, head.scale * phi)
    return logits, index, cos_t, stable, sin2


def arc_margin_logits_batch(head, embeddings, targets):
    """Scaled margin-penalized logits for a batch of raw embeddings."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    cos, *_, zero = _cosines(embeddings, head.unit_prototypes()[0])
    logits = _margin_logits(head, cos, targets)[0]
    if zero.any():
        raise DegenerateInputError("zero embedding has no direction")
    return logits


def arc_margin_logits(head, embedding, target):
    """Single-embedding wrapper over the batched logits."""
    return arc_margin_logits_batch(head, embedding, np.array([target]))[0]


def arc_margin_loss_grad_batch(head, embeddings, targets):
    """Mean loss over the batch plus gradients w.r.t. raw inputs.

    Returns (loss, grad_embeddings, grad_prototypes, per_sample_losses).
    Gradients include the normalization Jacobians for both the embeddings
    and the prototype columns.  `embeddings` may also be a (T, n, d_e)
    stack of T loss terms on the same targets, or a sequence of T (n, d_e)
    arrays to stack: every result then has a leading term axis (the loss
    is a list of T floats), and each term's figures are, bit for bit,
    those of its own (n, d_e) call.
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    n = embeddings.shape[-2]
    w_hat, w_norms = head.unit_prototypes()
    cos, e_hat, e_norms, degenerate = _cosines(embeddings, w_hat)
    logits, index, cos_t, stable, sin2 = _margin_logits(head, cos, targets)
    sin_t = np.sqrt(np.maximum(sin2, _SIN_FLOOR))
    # d phi / d cos(theta_t)
    dphi = np.where(
        stable, math.cos(head.margin) + math.sin(head.margin) * cos_t / sin_t, 1.0
    )

    # Each row's maximum from a class-major copy, reduced along its
    # contiguous rows: a maximum is exact in any order.
    n_classes = logits.shape[-1]
    row_max = np.maximum.reduce(logits.reshape(-1, n_classes).T.copy(), axis=0)
    shifted = logits
    shifted -= row_max.reshape(*logits.shape[:-1], 1)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=-1)
    per_sample = np.log(total) - shifted.take(index)
    loss = (np.add.reduce(per_sample, axis=-1) / n).tolist()

    # The softmax, then the loss gradient, in the array of `exp`; the
    # target entries are formed apart, in the same order of operations.
    dcos = exp
    dcos /= total[..., None]
    dcos_t = dcos.take(index)
    dcos_t -= 1.0
    dcos_t /= n
    dcos_t *= head.scale
    dcos_t *= dphi
    dcos /= n
    dcos *= head.scale
    dcos.put(index, dcos_t)

    # Normalization Jacobian: d x_hat / d x = (I - x_hat x_hat^T) / ||x||.
    grad_e = dcos @ w_hat.T
    grad_e -= e_hat * np.add.reduce(grad_e * e_hat, axis=-1, keepdims=True)
    grad_e /= e_norms[..., None]
    grad_e[degenerate] = 0.0  # zero rows have no direction to move in
    grad_w = e_hat.swapaxes(-1, -2) @ dcos
    grad_w -= w_hat * np.add.reduce(grad_w * w_hat, axis=-2, keepdims=True)
    grad_w /= w_norms
    return loss, grad_e, grad_w, per_sample


def arc_margin_loss(head, embedding, target):
    """Scalar loss for one raw embedding/target pair."""
    return softmax_cross_entropy(arc_margin_logits(head, embedding, target), target)


def plain_cosine_logits(head, embeddings):
    """Margin-free scaled cosine logits, used for accuracy scoring.

    Zero embeddings score zero against every class rather than erroring, so
    one collapsed sample cannot abort a validation pass.
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    cos, *_ = _cosines(embeddings, head.unit_prototypes()[0])
    return head.scale * cos
