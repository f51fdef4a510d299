"""Training loop: joint loss, AdamW, clipping, LR schedule.

Each head states its own loss terms (`loss_terms`): the mean and MLP heads
train with random modality masking (1/3 mask video, 1/3 mask audio, 1/3 no
mask, i.i.d. per sample); the multi-view head trains unmasked on a weighted
sum of the per-modality arc-margin losses.
"""

import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .arcmargin import arc_margin_loss_grad_batch, plain_cosine_logits
from .data import SampleSet, identity_codes
from .errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateInputError,
    float_errors_as_degenerate,
)
from .layers import BatchNormLayer
from .rng import substream

@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.001
    weight_decay: float = 0.01
    batch_size: int = 128
    max_epochs: int = 10
    clip_norm: float = 5.0
    lr_decay_factor: float = 0.95
    lambda_audio: float = 0.5
    lambda_video: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # Every check is written to fail on NaN.
        for name in ("learning_rate", "weight_decay", "clip_norm", "lr_decay_factor",
                     "lambda_audio", "lambda_video"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        for name in ("learning_rate", "weight_decay", "lambda_audio", "lambda_video"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigurationError("lr_decay_factor must be in (0, 1]")
        for name in ("batch_size", "max_epochs"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be > 0")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_accuracy: float
    lr: float
    is_best: bool


# Adam's moment decay rates and denominator guard (Loshchilov & Hutter,
# arXiv 1711.05101).
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-08

# Elements per block of the fused AdamW pass: the block's slices of the
# parameters, gradients, both moments and the two scratch arrays (6 x 128 KiB)
# stay in cache across the pass's dozen ufunc calls.
ADAMW_BLOCK = 16384


class ParamStore:
    """Every trained tensor in one contiguous float64 buffer.

    Built from (name, owner, attribute) triples: each tensor is copied into
    `params` and the owner's attribute is rebound to its view, so the
    original array is released and the layers read and the optimizer writes
    the same memory.  `grads` has the same layout, and `grad_views` holds
    its view of each tensor, by name and in layout order; backward passes
    write into these views and clipping sums their norms in this order.
    """

    def __init__(self, slots):
        slots = list(slots)
        shapes = [np.shape(getattr(owner, attr)) for _, owner, attr in slots]
        size = sum(math.prod(shape) for shape in shapes)
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        self.grad_views = {}
        offset = 0
        for (name, owner, attr), shape in zip(slots, shapes):
            stop = offset + math.prod(shape)
            view = self.params[offset:stop].reshape(shape)
            view[...] = getattr(owner, attr)
            setattr(owner, attr, view)
            self.grad_views[name] = self.grads[offset:stop].reshape(shape)
            offset = stop

    @classmethod
    def of_model(cls, head, arc_head):
        """The store of a head's tensors, under their `parameters()` names,
        and of its arc-margin prototypes, under "arc.prototypes"."""
        return cls([*head.parameters(), ("arc.prototypes", arc_head, "prototypes")])


class AdamW:
    """Adam with decoupled weight decay over one flat parameter buffer.

    Per element, step t does, with (b1, b2) = ADAM_BETAS and eps = ADAM_EPS,
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
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETAS
        c1, c2 = 1 - b1**t, 1 - b2**t
        decay = lr * self.config.weight_decay
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
            a += ADAM_EPS
            np.divide(m, c1, out=b)
            b *= lr
            b /= a
            p -= b
            np.multiply(decay, p, out=b)
            p -= b


def _sum_of_squares(flat, scratch):
    """`np.add.reduce(np.square(flat))` of a contiguous 1-d array, bit for
    bit, squaring at most `scratch.size` values at a time.

    numpy sums a contiguous array pairwise: a node of n > 128 values is the
    sum of its first n // 2 values, rounded down to a multiple of 8, and of
    the rest.  A node that fits in `scratch` is squared and reduced whole;
    a larger one is split as numpy splits it."""
    n = flat.size
    if n <= scratch.size:
        return float(np.add.reduce(np.square(flat, out=scratch[:n])))
    half = n // 2 - n // 2 % 8
    return _sum_of_squares(flat[:half], scratch) + _sum_of_squares(flat[half:], scratch)


def clip_global_norm(grads: dict, max_norm: float, scratch):
    """Scale all gradients in place by max_norm/global_norm when the norm
    exceeds it; returns (grads, global norm before clipping).

    The norm adds up each gradient's sum of squares in the order of
    `grads`, each summed as `np.add.reduce` sums its square.  The squares
    go through `scratch`, a flat float64 array of any size of at least 128,
    or at least as large as the largest gradient."""
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be > 0")
    total = 0
    for g in grads.values():
        total += _sum_of_squares(g.reshape(-1), scratch)
    total = np.sqrt(total)
    if total <= max_norm:
        return grads, total
    factor = max_norm / total
    for g in grads.values():
        g *= factor
    return grads, total


def batch_loss(head, arc_head, audio, video, labels, config, grads, mask_rng=None,
               rng=None):
    """Weighted sum of the arc-margin losses of the head's loss terms.

    Returns the loss, and writes the gradient of every trained tensor into
    the array `grads` holds under its name, as `ParamStore.grad_views`
    names them.  The terms' embeddings go through one arc-margin call,
    stacked on a leading term axis; each term's gradients are scaled by its
    weight, and a second term's prototype gradient is added in place.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DegenerateInputError("empty batch")
    terms, cache = head.loss_terms(audio, video, config, mask_rng, rng)
    weights, embeddings = zip(*terms)
    term_losses, douts, term_protos, _ = arc_margin_loss_grad_batch(
        arc_head, embeddings, labels
    )
    loss, grad_protos = 0.0, grads["arc.prototypes"]
    for k, weight in enumerate(weights):
        loss += weight * term_losses[k]
        douts[k] *= weight
        if k:
            term_protos[k] *= weight
            grad_protos += term_protos[k]
        else:
            np.multiply(weight, term_protos[0], out=grad_protos)
    head.backward_terms(cache, douts, grads)
    return loss


def validate_accuracy(head, arc_head, validation):
    """Argmax accuracy of margin-free cosine logits on unmasked inputs.

    `validation` is (audio, video, labels), the labels indexing the
    prototype columns, as `identity_codes(ids, training identities)`
    gives them.
    """
    audio, video, labels = validation
    logits = plain_cosine_logits(arc_head, head.embed(audio, video))
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class TrainResult:
    best_head: object
    best_arc: object
    records: list = field(default_factory=list)
    best_epoch: int = -1


def train_run(head, arc_head, train_samples, val_samples, config: TrainingConfig):
    """Run the full training regimen and return the best-validation state.

    The returned head and arc head are the ones passed in, holding the
    tensors of the best epoch.  A best epoch before the last is kept in an
    unnamed temporary file, not in memory: the parameter buffer, and
    references to each batch norm's running statistics, which training
    rebinds and never writes into.  A failed write or read of that file is
    an OSError.  An overflow, 0/0 or x/0 stops the run with
    DegenerateInputError, before it becomes a numpy warning or a non-finite
    parameter.
    """
    batch_norms = [layer for _, layer in head.named_layers()
                   if isinstance(layer, BatchNormLayer)]
    if config.batch_size < 2 and batch_norms:
        raise ConfigurationError(
            f"batch_size must be >= 2 for the {head.kind} head: train-mode "
            "batch norm needs two rows")
    train, val = SampleSet.of(train_samples), SampleSet.of(val_samples)
    if not set(train.sample_ids).isdisjoint(val.sample_ids):
        raise ConfigurationError("train and validation splits must be disjoint")
    if not val:
        raise DegenerateInputError("empty validation set")
    if not train:
        raise DegenerateInputError("empty training set")
    labels, identities = identity_codes(train.identity_ids)
    # Validation is scored against the prototype columns of the training
    # identities, so its labels index the training identities too.
    unknown = set(val.identity_ids).difference(identities)
    if unknown:
        raise DegenerateInputError(
            f"{len(unknown)} validation identities are not in the training "
            f"set, first {min(unknown)!r}")
    validation = (val.audio, val.video, identity_codes(val.identity_ids, identities)[0])
    audio, video, n = train.audio, train.video, len(train)
    shuffle_rng = substream(config.seed, "shuffle")
    mask_rng = substream(config.seed, "masking")
    dropout_rng = substream(config.seed, "dropout")
    store = ParamStore.of_model(head, arc_head)
    clip_scratch = np.empty(min(ADAMW_BLOCK, store.grads.size))
    optimizer = AdamW(config, store.params.size)

    # A trailing batch of one row joins the batch before it: train-mode
    # batch norm needs two rows.
    bounds = [*range(0, n, config.batch_size), n]
    if n % config.batch_size == 1 and n > 1:
        del bounds[-2]

    lr = config.learning_rate
    best_acc = -1.0
    best_epoch = -1
    best_stats = []
    records = []
    last = config.max_epochs - 1
    with float_errors_as_degenerate("training"), tempfile.TemporaryFile() as spill:
        for epoch in range(config.max_epochs):
            perm = shuffle_rng.permutation(n)
            losses = []
            for start, stop in zip(bounds, bounds[1:]):
                idx = perm[start:stop]
                loss = batch_loss(
                    head, arc_head, audio[idx], video[idx], labels[idx], config,
                    store.grad_views, mask_rng=mask_rng, rng=dropout_rng,
                )
                if not math.isfinite(loss):
                    raise DegenerateInputError(f"non-finite batch loss in epoch {epoch}")
                clip_global_norm(store.grad_views, config.clip_norm, clip_scratch)
                optimizer.step(store.params, store.grads, lr)
                losses.append(loss)
            acc = validate_accuracy(head, arc_head, validation)
            records.append(EpochRecord(epoch, float(np.mean(losses)), acc, lr, is_best=False))
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                if epoch < last:
                    spill.seek(0)
                    spill.write(store.params)
                    best_stats = [(bn.running_mean, bn.running_var) for bn in batch_norms]
            else:
                lr *= config.lr_decay_factor
        if best_epoch < last:
            spill.seek(0)
            if spill.readinto(store.params) != store.params.nbytes:
                raise OSError("the best epoch's parameters could not be read back")
            for bn, (mean, var) in zip(batch_norms, best_stats):
                bn.running_mean, bn.running_var = mean, var
    records[best_epoch].is_best = True
    return TrainResult(head, arc_head, records, best_epoch)
