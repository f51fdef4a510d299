"""Shared test helpers: finite-difference oracles and small data builders."""

import math

import numpy as np
import pytest

from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.data import DatasetConfig, generate_identities, sample_dataset
from avfusion.errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateInputError,
    LabelError,
    ShapeError,
)
from avfusion.evaluation import AngleReport, EerResult, embed_samples
from avfusion.heads import HEAD_KINDS
from avfusion.linalg import angle_deg, cosine_similarity
from avfusion.training import TrainingConfig, batch_loss

# Default loss weights (lambda_audio = lambda_video = 0.5); built once, as
# the gradient check evaluates the loss over a hundred thousand times.
LOSS_CONFIG = TrainingConfig()


def make_head(kind, rng, d_a=16, d_v=32, d_e=8, hidden=24, dropout_p=0.1):
    return HEAD_KINDS[kind].create(rng, d_a, d_v, d_e, hidden=hidden,
                                   dropout_p=dropout_p)


def dropout_state(head, rng, n):
    """The generator state from which one train-mode pass of `head` on `n`
    samples draws its dropout masks; a generator restored to it replays them.

    Advances `rng` past those masks' draws.  The multiview head drops out its
    (n, d_e) outputs, not its inputs; its state is taken after two discarded
    (n, d_a) and (n, d_v) draws, which keep the data criterion 01 draws next
    from `rng` fixed.
    """
    shapes = [(n, head.d_a), (n, head.d_v)]
    if head.kind == "multiview":
        for shape in shapes:
            head.dropout.draw_mask(rng, shape)
        shapes = [(n, head.d_e), (n, head.d_e)]
    if head.kind == "mlp":
        shapes += [(n, head.layers[0].out_dim)] * 2
    state = rng.bit_generator.state
    for shape in shapes:
        head.dropout.draw_mask(rng, shape)
    return state


# One generator that replay() restores: setting a state costs a tenth of
# building a generator, and the gradient check replays over 100k passes.
_REPLAY = np.random.default_rng(0)


def replay(state):
    """The shared replay generator, restored to `state`."""
    _REPLAY.bit_generator.state = state
    return _REPLAY


def composed_loss(head, arc, audio, video, labels, state):
    """Train-mode head + arc-margin loss with the dropout masks drawn from
    `state`.

    The loss-only reference: the weighted arc-margin losses of the head's
    loss terms, with no backward pass.
    """
    terms, _ = head.loss_terms(audio, video, LOSS_CONFIG, rng=replay(state))
    return sum(
        weight * arc_margin_loss_grad_batch(arc, emb, labels)[0] for weight, emb in terms
    )


def composed_grads(head, arc, audio, video, labels, state):
    """Analytic gradients of composed_loss for every parameter, as training
    computes them."""
    return batch_loss(head, arc, audio, video, labels, LOSS_CONFIG,
                      rng=replay(state))[1]


def gradient_check(head, arc, audio, video, labels, state, step=1e-5):
    """Max norm-relative error between analytic and central finite
    differences, with every pass's dropout masks drawn from `state`."""
    analytic = composed_grads(head, arc, audio, video, labels, state)
    params = {f"head.{name}": getattr(layer, attr)
              for name, layer, attr in head.parameters()}
    params["arc.prototypes"] = arc.prototypes
    worst = 0.0
    for name, p in params.items():
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = composed_loss(head, arc, audio, video, labels, state)
            flat[i] = orig - step
            down = composed_loss(head, arc, audio, video, labels, state)
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        a = np.asarray(analytic[name], dtype=np.float64)
        denom = max(np.linalg.norm(a), np.linalg.norm(numeric), 1e-12)
        err = np.linalg.norm(a - numeric) / denom
        worst = max(worst, err)
    return worst


def eer_oracle(scores, labels):
    """Brute-force EER: FAR/FRR at every midpoint between sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    targets = scores[labels]
    nontargets = scores[~labels]
    uniq = np.sort(np.unique(scores))
    candidates = [uniq[0] - 1.0]
    candidates.extend((uniq[:-1] + uniq[1:]) / 2)
    candidates.append(uniq[-1] + 1.0)
    far = np.array([(nontargets >= t).mean() for t in candidates])
    frr = np.array([(targets < t).mean() for t in candidates])
    diff = far - frr
    for i in range(len(candidates)):
        if diff[i] == 0.0:
            return float(far[i])
        if diff[i] > 0.0 and i + 1 < len(candidates) and diff[i + 1] < 0.0:
            alpha = diff[i] / (diff[i] - diff[i + 1])
            return float(frr[i] + alpha * (frr[i + 1] - frr[i]))
    raise AssertionError("oracle found no FAR/FRR crossing")


def small_dataset(n_identities=8, samples_per_identity=6, seed=0,
                  audio_sigma=0.2, video_sigma=0.1):
    config = DatasetConfig(
        n_identities=n_identities,
        samples_per_identity=samples_per_identity,
        audio_noise_sigma=audio_sigma,
        video_noise_sigma=video_sigma,
        seed=seed,
    )
    return sample_dataset(generate_identities(config), config)


# Loop references: the per-pair and per-sample versions of the evaluation
# functions that the vectorised ones replaced, kept verbatim (renamed
# loop_*) so that tests can compare the two bit for bit.


def loop_score_trials(head, trials, samples):
    """Vectorized trial scoring; embeds each needed exposure once."""
    exposures = {t.left_exposure for t in trials} | {t.right_exposure for t in trials}
    embedded = {exp: embed_samples(head, samples, exp) for exp in exposures}
    scores = np.empty(len(trials))
    for i, t in enumerate(trials):
        scores[i] = cosine_similarity(
            embedded[t.left_exposure][t.left], embedded[t.right_exposure][t.right]
        )
    return scores


def loop_compute_eer(scores, labels):
    """Equal error rate via threshold sweep with linear interpolation.

    FAR(t) = fraction of nontarget scores >= t; FRR(t) = fraction of target
    scores < t.  The EER is read off where FAR crosses FRR, interpolating
    linearly between the adjacent operating points.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ConfigurationError("scores and labels must align")
    targets = scores[labels]
    nontargets = scores[~labels]
    if targets.size == 0 or nontargets.size == 0:
        raise DegenerateInputError("need at least one target and one nontarget")
    thresholds = np.unique(scores)
    thresholds = np.concatenate(
        [[thresholds[0] - 1.0], thresholds, [thresholds[-1] + 1.0]]
    )
    far = np.array([(nontargets >= t).mean() for t in thresholds])
    frr = np.array([(targets < t).mean() for t in thresholds])
    diff = far - frr
    for i in range(len(thresholds)):
        if diff[i] == 0.0:
            return EerResult(
                float(far[i]), float(thresholds[i]), targets.size, nontargets.size
            )
        if diff[i] > 0.0 and i + 1 < len(thresholds) and diff[i + 1] < 0.0:
            alpha = diff[i] / (diff[i] - diff[i + 1])
            eer = frr[i] + alpha * (frr[i + 1] - frr[i])
            threshold = thresholds[i] + alpha * (thresholds[i + 1] - thresholds[i])
            return EerResult(float(eer), float(threshold), targets.size, nontargets.size)
    raise DegenerateInputError("no FAR/FRR crossing found")  # unreachable


def _group_indices(samples):
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.identity_id, []).append(i)
    return groups


def _safe_angle(a, b):
    """Angle in degrees, or None when either embedding is exactly zero."""
    if not np.any(a) or not np.any(b):
        return None
    return angle_deg(a, b)


def loop_audio_video_angles(head, samples):
    """Per-sample angle between the audio-only and video-only embeddings."""
    if not samples:
        raise DegenerateInputError("no samples")
    emb_a = embed_samples(head, samples, "a")
    emb_v = embed_samples(head, samples, "v")
    report = AngleReport(family="audio_video")
    for identity, idx in sorted(_group_indices(samples).items()):
        angles = []
        for i in idx:
            angle = _safe_angle(emb_a[i], emb_v[i])
            if angle is None:
                report.warnings += 1
            else:
                angles.append(angle)
        report.per_identity[identity] = angles
    return report


def loop_within_identity_angles(head, samples, modality):
    """All unordered within-identity pairs of single-modality embeddings."""
    exposure = {"audio": "a", "video": "v"}.get(modality)
    if exposure is None:
        raise ConfigurationError(f"modality must be audio or video, got {modality!r}")
    groups = _group_indices(samples)
    if not any(len(idx) >= 2 for idx in groups.values()):
        raise DegenerateInputError("no identity has two samples")
    emb = embed_samples(head, samples, exposure)
    report = AngleReport(family=f"within_identity_{modality}")
    for identity, idx in sorted(groups.items()):
        angles = []
        for j, a in enumerate(idx):
            for b in idx[j + 1 :]:
                angle = _safe_angle(emb[a], emb[b])
                if angle is None:
                    report.warnings += 1
                else:
                    angles.append(angle)
        report.per_identity[identity] = angles
    return report


def loop_centroid_angle_matrix(head, samples, modality):
    """Pairwise angles between per-identity centroid embeddings.

    Returns (identities, matrix, n_skipped); identities with an exactly zero
    centroid are dropped from the matrix and counted.
    """
    exposure = {"audio": "a", "video": "v"}.get(modality)
    if exposure is None:
        raise ConfigurationError(f"modality must be audio or video, got {modality!r}")
    groups = _group_indices(samples)
    if len(groups) < 2:
        raise DegenerateInputError("need at least 2 identities")
    emb = embed_samples(head, samples, exposure)
    identities = []
    centroids = []
    skipped = 0
    for identity, idx in sorted(groups.items()):
        c = emb[idx].mean(axis=0)
        if not np.any(c):
            skipped += 1
            continue
        identities.append(identity)
        centroids.append(c)
    k = len(identities)
    matrix = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = angle_deg(centroids[i], centroids[j])
    return identities, matrix, skipped


def loop_silhouette_score(embeddings, labels, distance="cosine"):
    """Mean silhouette s(i) = (b - a)/max(a, b) over all points.

    Singleton clusters and coincident geometry (a == b == 0) contribute 0.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise ConfigurationError("embeddings and labels must align")
    unique = np.unique(labels)
    if unique.size < 2:
        raise DegenerateInputError("silhouette needs at least 2 clusters")
    if distance == "euclidean":
        diff = embeddings[:, None, :] - embeddings[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=2))
    elif distance == "cosine":
        norms = np.linalg.norm(embeddings, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateInputError("cosine distance undefined for zero vectors")
        unit = embeddings / norms[:, None]
        dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    else:
        raise ConfigurationError(f"unknown distance {distance!r}")
    masks = {label: labels == label for label in unique}
    scores = np.zeros(n)
    for i in range(n):
        own = masks[labels[i]].copy()
        own[i] = False
        if not own.any():
            continue  # singleton cluster: s(i) = 0
        a = dist[i, own].mean()
        b = min(dist[i, masks[label]].mean() for label in unique if label != labels[i])
        denom = max(a, b)
        if denom > 0.0:
            scores[i] = (b - a) / denom
    return float(scores.mean())


# Loop references of the optimizer: the per-tensor AdamW step and the copying
# clip that the flat store's fused pass replaced, kept verbatim (renamed
# loop_*).  `loop_adamw_step` is the former `AdamW.step` method, and
# `LoopAdamW` the state it runs on.


def loop_adamw_step(self, params: dict, grads: dict, lr: float):
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


def loop_clip_global_norm(grads: dict, max_norm: float):
    """Scale all gradients by max_norm/global_norm when the norm exceeds it."""
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be > 0")
    total = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total <= max_norm:
        return grads, total
    factor = max_norm / total
    return {name: g * factor for name, g in grads.items()}, total


class LoopAdamW:
    def __init__(self, config):
        self.config = config
        self.first_moment = {}
        self.second_moment = {}
        self.step_count = 0

    step = loop_adamw_step


# Loop references of the arc-margin loss: the logits and the loss as they
# were before the two shared one margin-logit computation, kept verbatim
# (renamed loop_*), with the cosine and target helpers they called.

_SIN_FLOOR = 1e-12


def _check_targets(head, targets):
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ShapeError("targets must be a 1-d integer array")
    if ((targets < 0) | (targets >= head.n_classes)).any():
        raise LabelError("target class index out of range")
    return targets


def loop_cosines(head, embeddings, strict=True):
    """Row-normalized embeddings against column-normalized prototypes.

    With strict=False, exactly-zero rows (which a ReLU head can emit) are
    kept with an all-zero direction instead of raising; their gradient is
    zeroed by the caller.
    """
    norms = np.linalg.norm(embeddings, axis=1)
    if (norms == 0.0).any():
        if strict:
            raise DegenerateInputError("zero embedding has no direction")
        norms = np.where(norms == 0.0, 1.0, norms)
    e_hat = embeddings / norms[:, None]
    proto_norms = np.linalg.norm(head.prototypes, axis=0)
    w_hat = head.prototypes / proto_norms
    cos = np.clip(e_hat @ w_hat, -1.0, 1.0)
    return cos, e_hat, w_hat, norms, proto_norms


def loop_arc_margin_logits_batch(head, embeddings, targets):
    """Scaled margin-penalized logits for a batch of raw embeddings."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    targets = _check_targets(head, targets)
    cos, *_ = loop_cosines(head, embeddings)
    rows = np.arange(len(targets))
    cos_t = cos[rows, targets]
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 0.0))
    stable = cos_t > math.cos(math.pi - head.margin)
    phi = np.where(
        stable,
        cos_t * math.cos(head.margin) - sin_t * math.sin(head.margin),
        cos_t - head.margin * math.sin(head.margin),
    )
    logits = head.scale * cos
    logits[rows, targets] = head.scale * phi
    return logits


def loop_arc_margin_loss_grad_batch(head, embeddings, targets):
    """Mean loss over the batch plus gradients w.r.t. raw inputs.

    Returns (loss, grad_embeddings, grad_prototypes, per_sample_losses).
    Gradients include the normalization Jacobians for both the embeddings
    and the prototype columns.
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    targets = _check_targets(head, targets)
    n = embeddings.shape[0]
    degenerate = np.linalg.norm(embeddings, axis=1) == 0.0
    cos, e_hat, w_hat, e_norms, w_norms = loop_cosines(head, embeddings, strict=False)
    rows = np.arange(n)
    cos_t = cos[rows, targets]
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, _SIN_FLOOR))
    stable = cos_t > math.cos(math.pi - head.margin)
    phi = np.where(
        stable,
        cos_t * math.cos(head.margin)
        - np.sqrt(np.maximum(1.0 - cos_t**2, 0.0)) * math.sin(head.margin),
        cos_t - head.margin * math.sin(head.margin),
    )
    # d phi / d cos(theta_t)
    dphi = np.where(
        stable, math.cos(head.margin) + math.sin(head.margin) * cos_t / sin_t, 1.0
    )
    logits = head.scale * cos
    logits[rows, targets] = head.scale * phi

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
