"""Additive angular-margin classification loss with analytic gradients.

Logits are scaled cosines between the L2-normalized embedding and the
L2-normalized class prototype columns; the target class's angle is penalized
by an additive margin before the cosine.  When the penalized angle would
leave the stable region (theta + m > pi) the standard monotone surrogate
cos(theta) - m*sin(m) is used instead.
"""

import math
from dataclasses import dataclass, field

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
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigurationError("margin must be in [0, pi/2)")
        norms = np.linalg.norm(self.prototypes, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateInputError("every prototype column must be nonzero")

    @classmethod
    def create(cls, rng, d_e, n_classes, scale=16.0, margin=0.125):
        protos = rng.normal(size=(d_e, n_classes))
        protos /= np.linalg.norm(protos, axis=0, keepdims=True)
        return cls(prototypes=protos, scale=scale, margin=margin)

    @property
    def n_classes(self):
        return self.prototypes.shape[1]


def softmax_cross_entropy(logits, target):
    """-log softmax(logits)[target] with max-subtraction stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < logits.shape[-1]:
        raise LabelError(f"target {target} out of range for {logits.shape[-1]} classes")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def _cosines(head, embeddings):
    """Row-normalized embeddings against column-normalized prototypes.

    Exactly-zero rows (which a ReLU head can emit) keep an all-zero
    direction; the returned `zero` mask marks them, so a caller can reject
    them or zero their gradient.
    """
    norms = np.linalg.norm(embeddings, axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    e_hat = embeddings / norms[:, None]
    proto_norms = np.linalg.norm(head.prototypes, axis=0)
    w_hat = head.prototypes / proto_norms
    cos = np.clip(e_hat @ w_hat, -1.0, 1.0)
    return cos, e_hat, w_hat, norms, proto_norms, zero


def _margin_logits(head, cos, targets):
    """(logits, cos_t, stable): the scaled cosines with each row's target
    angle penalized by the margin, that row's target cosine, and whether the
    penalized angle stays in the stable region."""
    targets = np.asarray(targets)
    rows = np.arange(cos.shape[0])
    if targets.shape != rows.shape:
        raise ShapeError("targets must be a 1-d integer array, one per embedding")
    if ((targets < 0) | (targets >= head.n_classes)).any():
        raise LabelError("target class index out of range")
    cos_t = cos[rows, targets]
    stable = cos_t > math.cos(math.pi - head.margin)
    phi = np.where(
        stable,
        cos_t * math.cos(head.margin)
        - np.sqrt(np.maximum(1.0 - cos_t**2, 0.0)) * math.sin(head.margin),
        cos_t - head.margin * math.sin(head.margin),
    )
    logits = head.scale * cos
    logits[rows, targets] = head.scale * phi
    return logits, cos_t, stable


def arc_margin_logits_batch(head, embeddings, targets):
    """Scaled margin-penalized logits for a batch of raw embeddings."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    cos, *_, zero = _cosines(head, embeddings)
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
    and the prototype columns.
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    n = embeddings.shape[0]
    cos, e_hat, w_hat, e_norms, w_norms, degenerate = _cosines(head, embeddings)
    logits, cos_t, stable = _margin_logits(head, cos, targets)
    rows = np.arange(n)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, _SIN_FLOOR))
    # d phi / d cos(theta_t)
    dphi = np.where(
        stable, math.cos(head.margin) + math.sin(head.margin) * cos_t / sin_t, 1.0
    )

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    per_sample = -shifted[rows, targets] + np.log(exp.sum(axis=1))
    loss = float(per_sample.mean())

    dlogits = softmax.copy()
    dlogits[rows, targets] -= 1.0
    dlogits /= n
    dcos = dlogits * head.scale
    dcos[rows, targets] *= dphi

    de_hat = dcos @ w_hat.T
    dw_hat = e_hat.T @ dcos
    # Normalization Jacobian: d x_hat / d x = (I - x_hat x_hat^T) / ||x||.
    grad_e = (de_hat - e_hat * (de_hat * e_hat).sum(axis=1, keepdims=True)) / e_norms[
        :, None
    ]
    grad_e[degenerate] = 0.0  # zero rows have no direction to move in
    grad_w = (dw_hat - w_hat * (dw_hat * w_hat).sum(axis=0, keepdims=True)) / w_norms
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
    cos, *_ = _cosines(head, embeddings)
    return head.scale * cos
