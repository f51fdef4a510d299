"""Training loop: joint loss, AdamW, clipping, LR schedule.

Each head states its own loss terms (`loss_terms`): the mean and MLP heads
train with random modality masking (1/3 mask video, 1/3 mask audio, 1/3 no
mask, i.i.d. per sample); the multi-view head trains unmasked on a weighted
sum of the per-modality arc-margin losses.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .arcmargin import arc_margin_loss_grad_batch, plain_cosine_logits
from .data import stack_samples
from .errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateInputError,
    float_errors_as_degenerate,
)
from .rng import substream

@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-08
    weight_decay: float = 0.01
    batch_size: int = 128
    max_epochs: int = 10
    clip_norm: float = 5.0
    lr_decay_factor: float = 0.95
    lambda_audio: float = 0.5
    lambda_video: float = 0.5
    mask_probabilities: tuple = (1 / 3, 1 / 3, 1 / 3)  # (video, audio, none)
    seed: int = 0

    def validate(self):
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        for name in ("batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be > 0")
        if abs(sum(self.mask_probabilities) - 1.0) > 1e-9:
            raise ConfigurationError("mask probabilities must sum to 1")
        if any(p < 0 for p in self.mask_probabilities):
            raise ConfigurationError("mask probabilities must be >= 0")
        return self


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_accuracy: float
    lr: float
    is_best: bool


# Elements per block of the fused AdamW pass: the block's slices of the
# parameters, gradients, both moments and the two scratch arrays (6 x 128 KiB)
# stay in cache across the pass's dozen ufunc calls.
ADAMW_BLOCK = 16384


class ParamStore:
    """Every trained tensor in one contiguous float64 buffer.

    Built from (name, owner, attribute) triples: each tensor is copied into
    `params` and the owner's attribute is rebound to its view, so the
    original array is released and the layers read and the optimizer writes
    the same memory.  `grads` has the same layout; `load_grads` fills it.
    """

    def __init__(self, slots):
        slots = list(slots)
        shapes = [np.shape(getattr(owner, attr)) for _, owner, attr in slots]
        size = sum(math.prod(shape) for shape in shapes)
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        self._grad_views = {}
        offset = 0
        for (name, owner, attr), shape in zip(slots, shapes):
            stop = offset + math.prod(shape)
            view = self.params[offset:stop].reshape(shape)
            view[...] = getattr(owner, attr)
            setattr(owner, attr, view)
            self._grad_views[name] = self.grads[offset:stop].reshape(shape)
            offset = stop

    @classmethod
    def of_model(cls, head, arc_head):
        """The store of a head and its arc-margin prototypes, named as
        `batch_loss` names their gradients."""
        return cls([
            *((f"head.{name}", layer, attr) for name, layer, attr in head.parameters()),
            ("arc.prototypes", arc_head, "prototypes"),
        ])

    def load_grads(self, grads: dict):
        """Copies `grads` into the gradient buffer and returns its views, by
        the names and in the order of `grads`."""
        if grads.keys() != self._grad_views.keys():
            raise ConsistencyError(
                f"gradients {sorted(grads)} do not match parameters "
                f"{sorted(self._grad_views)}"
            )
        views = {}
        for name, g in grads.items():
            view = self._grad_views[name]
            if view.shape != np.shape(g):
                raise ConsistencyError(
                    f"gradient shape {np.shape(g)} does not match parameter "
                    f"{name} of shape {view.shape}"
                )
            view[...] = g
            views[name] = view
        return views


class AdamW:
    """Adam with decoupled weight decay over one flat parameter buffer.

    Per element, step t does
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
        p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
        p -= lr*wd * p
    The decay reads the parameter *after* the Adam update.  Loshchilov &
    Hutter (arXiv 1711.05101, Alg. 2) decay theta_{t-1} instead; the two
    differ by O(lr^2 * wd), and this form is kept so trained checkpoints do
    not change.  The pass runs in ADAMW_BLOCK-element blocks with two
    preallocated scratch arrays, so a step allocates no full-size temporary.
    """

    def __init__(self, config: TrainingConfig, size: int):
        self.config = config
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)
        self._scratch = (np.empty(ADAMW_BLOCK), np.empty(ADAMW_BLOCK))
        self.step_count = 0

    def step(self, params, grads, lr: float):
        """One update of the flat buffer `params` from the flat `grads`."""
        if params.shape != self.first_moment.shape or grads.shape != params.shape:
            raise ConsistencyError(
                f"parameter buffer {params.shape} and gradient buffer "
                f"{grads.shape} do not match the optimizer's "
                f"{self.first_moment.shape}"
            )
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        b1, b2 = cfg.beta1, cfg.beta2
        c1, c2 = 1 - b1**t, 1 - b2**t
        decay = lr * cfg.weight_decay
        for start in range(0, params.size, ADAMW_BLOCK):
            stop = start + ADAMW_BLOCK
            p, g = params[start:stop], grads[start:stop]
            m, v = self.first_moment[start:stop], self.second_moment[start:stop]
            a, b = (s[: p.size] for s in self._scratch)
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.square(g, out=a)
            a *= 1 - b2
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += cfg.eps
            np.divide(m, c1, out=b)
            b *= lr
            b /= a
            p -= b
            np.multiply(decay, p, out=b)
            p -= b


def clip_global_norm(grads: dict, max_norm: float):
    """Scale all gradients in place by max_norm/global_norm when the norm
    exceeds it; returns (grads, global norm before clipping)."""
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be > 0")
    total = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total <= max_norm:
        return grads, total
    factor = max_norm / total
    for g in grads.values():
        g *= factor
    return grads, total


def batch_loss(head, arc_head, audio, video, labels, config, mask_rng=None,
               rng=None):
    """Weighted sum of the arc-margin losses of the head's loss terms.

    Returns (loss, grads) with gradient names prefixed "head." / "arc.".
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DegenerateInputError("empty batch")
    terms, cache = head.loss_terms(audio, video, config, mask_rng, rng)
    loss, douts, grad_protos = 0.0, [], None
    for weight, emb in terms:
        term_loss, grad_emb, term_protos, _ = arc_margin_loss_grad_batch(
            arc_head, emb, labels
        )
        loss += weight * term_loss
        douts.append(weight * grad_emb)
        term_protos = weight * term_protos
        grad_protos = term_protos if grad_protos is None else grad_protos + term_protos
    grads = {f"head.{name}": g for name, g in head.backward_terms(cache, douts).items()}
    grads["arc.prototypes"] = grad_protos
    return loss, grads


def validate_accuracy(head, arc_head, samples):
    """Argmax accuracy of margin-free cosine logits on unmasked inputs."""
    if not samples:
        raise DegenerateInputError("empty validation set")
    audio, video, labels, _ = stack_samples(samples)
    logits = plain_cosine_logits(arc_head, head.embed(audio, video))
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class TrainResult:
    best_head: object
    best_arc: object
    records: list = field(default_factory=list)
    best_epoch: int = -1


def train_run(head, arc_head, train_samples, val_samples, config: TrainingConfig):
    """Run the full training regimen and return the best-validation snapshot.

    An overflow, 0/0 or x/0 stops the run with DegenerateInputError, before
    it becomes a numpy warning or a non-finite parameter.
    """
    with float_errors_as_degenerate("training"):
        return _train_run(head, arc_head, train_samples, val_samples, config)


def _train_run(head, arc_head, train_samples, val_samples, config):
    config.validate()
    train_ids = {s.sample_id for s in train_samples}
    if train_ids & {s.sample_id for s in val_samples}:
        raise ConfigurationError("train and validation splits must be disjoint")
    audio, video, labels, _ = stack_samples(train_samples)
    n = len(train_samples)
    shuffle_rng = substream(config.seed, "shuffle")
    mask_rng = substream(config.seed, "masking")
    dropout_rng = substream(config.seed, "dropout")
    store = ParamStore.of_model(head, arc_head)
    optimizer = AdamW(config, store.params.size)

    lr = config.learning_rate
    best_acc = -1.0
    best_epoch = -1
    best_snapshot = None
    records = []
    for epoch in range(config.max_epochs):
        perm = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grads = batch_loss(
                head, arc_head, audio[idx], video[idx], labels[idx], config,
                mask_rng=mask_rng, rng=dropout_rng,
            )
            if not np.isfinite(loss):
                raise DegenerateInputError(f"non-finite batch loss in epoch {epoch}")
            # Rebinding drops the step's own gradient arrays before clipping.
            grads = store.load_grads(grads)
            grads, _ = clip_global_norm(grads, config.clip_norm)
            optimizer.step(store.params, store.grads, lr)
            losses.append(loss)
        acc = validate_accuracy(head, arc_head, val_samples)
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                val_accuracy=acc,
                lr=lr,
                is_best=False,
            )
        )
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_snapshot = (copy.deepcopy(head), copy.deepcopy(arc_head))
        else:
            lr *= config.lr_decay_factor
    records[best_epoch].is_best = True
    return TrainResult(
        best_head=best_snapshot[0],
        best_arc=best_snapshot[1],
        records=records,
        best_epoch=best_epoch,
    )
