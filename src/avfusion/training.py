"""Training loop: joint loss, AdamW, clipping, LR schedule.

Each head states its own loss terms (`loss_terms`): the mean and MLP heads
train with random modality masking (1/3 mask video, 1/3 mask audio, 1/3 no
mask, i.i.d. per sample); the multi-view head trains unmasked on a weighted
sum of the per-modality arc-margin losses.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .arcmargin import arc_margin_loss_grad_batch, plain_cosine_logits
from .data import stack_samples
from .errors import ConfigurationError, ConsistencyError, DegenerateInputError
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


class AdamW:
    """Decoupled weight decay Adam over named parameter dicts."""

    def __init__(self, config: TrainingConfig):
        self.config = config
        self.first_moment = {}
        self.second_moment = {}
        self.step_count = 0

    def step(self, params: dict, grads: dict, lr: float):
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        for name in sorted(params):
            p = params[name]
            g = grads[name]
            if p.shape != np.shape(g):
                raise ConsistencyError(
                    f"gradient shape {np.shape(g)} does not match parameter "
                    f"{name} of shape {p.shape}"
                )
            m = self.first_moment.setdefault(name, np.zeros_like(p))
            v = self.second_moment.setdefault(name, np.zeros_like(p))
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * np.square(g)
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            p -= lr * cfg.weight_decay * p


def clip_global_norm(grads: dict, max_norm: float):
    """Scale all gradients by max_norm/global_norm when the norm exceeds it."""
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be > 0")
    total = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total <= max_norm:
        return grads, total
    factor = max_norm / total
    return {name: g * factor for name, g in grads.items()}, total


def batch_loss(head, arc_head, audio, video, labels, config, mask_rng=None,
               rng=None, masks=None):
    """Weighted sum of the arc-margin losses of the head's loss terms.

    Returns (loss, grads) with gradient names prefixed "head." / "arc.".
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DegenerateInputError("empty batch")
    terms, cache = head.loss_terms(audio, video, config, mask_rng, rng, masks)
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


def lr_schedule_update(accuracies, current_lr, decay_factor=0.95):
    """Multiply by the decay factor when the last epoch did not improve.

    `accuracies` is the list of validation accuracies for all completed
    epochs.  A tie with the best prior accuracy counts as non-improvement.
    """
    if not accuracies:
        raise ConfigurationError("need at least one completed epoch")
    last = accuracies[-1]
    prior = accuracies[:-1]
    if prior and last <= max(prior):
        return current_lr * decay_factor
    return current_lr


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
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _train_run(head, arc_head, train_samples, val_samples, config)
    except FloatingPointError as exc:
        raise DegenerateInputError(f"non-finite values in training: {exc}") from exc


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
    optimizer = AdamW(config)
    params = {f"head.{k}": v for k, v in head.param_dict().items()}
    params["arc.prototypes"] = arc_head.prototypes

    lr = config.learning_rate
    best_acc = -1.0
    best_epoch = -1
    best_snapshot = None
    records = []
    accuracies = []
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
            grads, _ = clip_global_norm(grads, config.clip_norm)
            optimizer.step(params, grads, lr)
            losses.append(loss)
        acc = validate_accuracy(head, arc_head, val_samples)
        accuracies.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_snapshot = (copy.deepcopy(head), copy.deepcopy(arc_head))
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                val_accuracy=acc,
                lr=lr,
                is_best=False,
            )
        )
        lr = lr_schedule_update(accuracies, lr, config.lr_decay_factor)
    records[best_epoch].is_best = True
    return TrainResult(
        best_head=best_snapshot[0],
        best_arc=best_snapshot[1],
        records=records,
        best_epoch=best_epoch,
    )
