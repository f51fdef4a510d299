"""Shared test helpers: finite-difference oracles and small data builders."""

import csv
import json
import math
import os
import struct

import numpy as np
import pytest

from avfusion import evaluation
from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.data import (
    DatasetConfig,
    Sample,
    generate_identities,
    group_rows,
    sample_dataset,
)
from avfusion.errors import (
    ConfigurationError,
    ConsistencyError,
    DegenerateBatchError,
    DegenerateInputError,
    LabelError,
    PersistenceError,
    ShapeError,
)
from avfusion.evaluation import (
    _MODE_TAGS,
    MODALITY_MODES,
    AngleReport,
    BoxplotStats,
    EerResult,
    Trial,
    TrialArrays,
    boxplot_stats,
    embed_samples,
)
from avfusion.heads import HEAD_KINDS, _check_cache
from avfusion.layers import BN_EPS, BN_MOMENTUM, leaky_relu_backward
from avfusion.linalg import angle_deg, cosine_similarity
from avfusion.persistence import (
    _HEAD_FIELDS,
    CHECKPOINT_MAGIC,
    EMBEDDING_MAGIC,
    _check_fields,
    _check_finite,
    _is_count,
    _is_number,
    _is_table,
    _stats_dict,
    _write_framed,
)
from avfusion.svgplot import render_boxplot_svg
from avfusion.training import (
    ADAM_BETAS,
    ADAM_EPS,
    ParamStore,
    TrainingConfig,
    batch_loss,
)

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


def model_grads(head, arc):
    """The gradient views of a flat store of `head` and `arc`, as training
    makes them; building the store rebinds their tensors to its views."""
    return ParamStore.of_model(head, arc).grad_views


def composed_grads(head, arc, audio, video, labels, state):
    """Analytic gradients of composed_loss for every parameter, as training
    computes them."""
    grads = model_grads(head, arc)
    batch_loss(head, arc, audio, video, labels, LOSS_CONFIG, grads, rng=replay(state))
    return grads


def gradient_check(head, arc, audio, video, labels, state, step=1e-5):
    """Max norm-relative error between analytic and central finite
    differences, with every pass's dropout masks drawn from `state`."""
    analytic = composed_grads(head, arc, audio, video, labels, state)
    params = {name: getattr(layer, attr) for name, layer, attr in head.parameters()}
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
        left = embedded[t.left_exposure][t.left]
        right = embedded[t.right_exposure][t.right]
        # An exactly zero embedding scores 0 against any other.
        scores[i] = cosine_similarity(left, right) if left.any() and right.any() else 0.0
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
        norms[~embeddings.any(axis=1)] = 1.0  # a zero row is at distance 1 from all
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
# loop_*) but for the Adam moments and eps, which `loop_adamw_step` reads from
# ADAM_BETAS and ADAM_EPS as the config fields they replaced.  It is the former
# `AdamW.step` method, and `LoopAdamW` the state it runs on.


def loop_adamw_step(self, params: dict, grads: dict, lr: float):
    cfg = self.config
    beta1, beta2 = ADAM_BETAS
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
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * np.square(g)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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


# Loop references of the gradient step: the allocating backward passes,
# `batch_loss`, `ParamStore.load_grads` and the in-place `clip_global_norm`
# as they were before backward passes wrote into the flat store, kept
# verbatim (renamed loop_*).  Methods take their object as `self`, and calls
# between them go to the loop_* copies.


def loop_linear_backward(self, cache, dout):
    x = cache
    dweight = dout.T @ x
    dbias = dout.sum(axis=0)
    dx = dout @ self.weight
    return dx, dweight, dbias


def loop_batchnorm_backward(self, cache, dout):
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


def loop_mean_backward(self, cache, dout):
    _check_cache(self, cache)
    dpa = 0.5 * dout
    da, dwa, dba = loop_linear_backward(self.proj_audio, cache["a"], dpa)
    dv, dwv, dbv = loop_linear_backward(self.proj_video, cache["v"], dpa)
    grads = {
        "proj_audio.weight": dwa,
        "proj_audio.bias": dba,
        "proj_video.weight": dwv,
        "proj_video.bias": dbv,
    }
    return grads, da, dv


def loop_mlp_backward(self, cache, dout):
    _check_cache(self, cache)
    grads = {}
    dx = dout
    for i in reversed(range(3)):
        lin_cache, relu_mask, bn_cache, drop_mask = cache["stages"][i]
        if drop_mask is not None:
            dx = dx * drop_mask
        dx, dgamma, dbeta = loop_batchnorm_backward(self.norms[i], bn_cache, dx)
        dx = leaky_relu_backward(relu_mask, self.leaky_slope, dx)
        dx, dweight, dbias = loop_linear_backward(self.layers[i], lin_cache, dx)
        grads[f"layer{i + 1}.weight"] = dweight
        grads[f"layer{i + 1}.bias"] = dbias
        grads[f"bn{i + 1}.gamma"] = dgamma
        grads[f"bn{i + 1}.beta"] = dbeta
    return grads, dx[:, : self.d_a], dx[:, self.d_a :]


def loop_backward_modality(self, cache, dout):
    _check_cache(self, cache)
    modality = cache["modality"]
    proj = self.proj_audio if modality == "audio" else self.proj_video
    dx = dout
    if cache["drop_mask"] is not None:
        dx = dx * cache["drop_mask"]
    dx = np.where(cache["relu_mask"], dx, 0.0)
    dp, dw_shared, db_shared = loop_linear_backward(
        self.shared_classifier, cache["shared"], dx)
    dinput, dw_proj, db_proj = loop_linear_backward(proj, cache["proj"], dp)
    grads = {
        f"proj_{modality}.weight": dw_proj,
        f"proj_{modality}.bias": db_proj,
        "shared_classifier.weight": dw_shared,
        "shared_classifier.bias": db_shared,
    }
    return grads, dinput


def loop_add_grads(grads, more):
    """`grads` with `more` added in; names in both are summed."""
    for name, g in more.items():
        grads[name] = grads[name] + g if name in grads else g
    return grads


def loop_backward_terms(self, cache, douts):
    """Parameter gradients, given the loss gradient of each term."""
    if self.kind == "multiview":
        grads, _ = loop_backward_modality(self, cache[0], douts[0])
        grads_v, _ = loop_backward_modality(self, cache[1], douts[1])
        return loop_add_grads(grads, grads_v)
    backward = {"mean": loop_mean_backward, "mlp": loop_mlp_backward}[self.kind]
    return backward(self, cache, douts[0])[0]


def loop_batch_loss(head, arc_head, audio, video, labels, config, mask_rng=None,
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
    grads = {f"head.{name}": g
             for name, g in loop_backward_terms(head, cache, douts).items()}
    grads["arc.prototypes"] = grad_protos
    return loss, grads


def store_names(grads):
    """The gradients of `loop_batch_loss` under the names of the flat store,
    which names the head's tensors without the "head." prefix."""
    return {name.removeprefix("head."): g for name, g in grads.items()}


def loop_load_grads(self, grads: dict):
    """Copies `grads` into the gradient buffer and returns its views, by
    the names and in the order of `grads`."""
    if grads.keys() != self.grad_views.keys():
        raise ConsistencyError(
            f"gradients {sorted(grads)} do not match parameters "
            f"{sorted(self.grad_views)}"
        )
    views = {}
    for name, g in grads.items():
        view = self.grad_views[name]
        if view.shape != np.shape(g):
            raise ConsistencyError(
                f"gradient shape {np.shape(g)} does not match parameter "
                f"{name} of shape {view.shape}"
            )
        view[...] = g
        views[name] = view
    return views


def loop_clip_in_place(grads: dict, max_norm: float):
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


# Loop references of the evaluation reads, kept verbatim (renamed loop_*):
# the trial sampler with a `rng.choice` per drawn sample, the quartiles by
# `np.percentile` with masked whiskers, and the framed-file reads that copy
# the payload per tensor.


def loop_build_trials(samples, mode, n_positive, n_negative, seed):
    """Balanced-by-construction verification pairs, deterministic per seed."""
    if mode not in MODALITY_MODES:
        raise ConfigurationError(f"unknown modality mode {mode!r}")
    if n_positive < 0 or n_negative < 0:
        raise ConfigurationError("trial counts must be >= 0")
    _, order, bounds = group_rows([s.identity_id for s in samples])
    groups = [order[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]
    if len(groups) < 2:
        raise ConfigurationError("need at least 2 identities to build trials")
    # ordered pairs of samples from two different identities
    n_cross = len(samples) ** 2 - sum(len(m) ** 2 for m in groups)
    if n_negative > n_cross:
        raise ConfigurationError(f"only {n_cross} distinct cross-identity pairs exist")
    left_exp, right_exp = MODALITY_MODES[mode]
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 300, _MODE_TAGS[mode]])
    )

    positive_pairs = [
        (a, b) for group in groups for j, a in enumerate(group) for b in group[j + 1 :]
    ]
    if n_positive > 0 and not positive_pairs:
        raise ConfigurationError("no identity has two samples; cannot build targets")
    trials = []
    if n_positive > 0:
        replace = n_positive > len(positive_pairs)
        chosen = rng.choice(len(positive_pairs), size=n_positive, replace=replace)
        for k in chosen:
            a, b = positive_pairs[k]
            trials.append(Trial(a, b, left_exp, right_exp, True))

    seen = set()  # one entry per nontarget trial drawn so far
    attempts = 0
    while len(seen) < n_negative:
        attempts += 1
        if attempts > evaluation.NONTARGET_ATTEMPTS * max(n_negative, 1):
            raise ConfigurationError("cannot sample enough distinct nontarget pairs")
        i1, i2 = rng.choice(len(groups), size=2, replace=False)
        a = int(rng.choice(groups[i1]))
        b = int(rng.choice(groups[i2]))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        trials.append(Trial(a, b, left_exp, right_exp, False))
    return trials


def loop_boxplot_stats(values):
    """Quartiles by linear interpolation with Tukey whiskers clamped to data."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise DegenerateInputError("boxplot of an empty sequence")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    whisker_low = float(inside.min()) if inside.size else float(q1)
    whisker_high = float(inside.max()) if inside.size else float(q3)
    outliers = tuple(
        float(v) for v in np.sort(values[(values < low_fence) | (values > high_fence)])
    )
    return BoxplotStats(
        minimum=float(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(values.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
    )


def loop_read_framed(path, magic):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    if len(blob) < len(magic) + 4 or blob[: len(magic)] != magic:
        raise PersistenceError(f"{path}: bad magic, not a {magic.decode()} file")
    (header_len,) = struct.unpack("<I", blob[len(magic) : len(magic) + 4])
    start = len(magic) + 4
    if len(blob) < start + header_len:
        raise PersistenceError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"{path}: unparsable header: {exc}") from exc
    if not isinstance(header, dict):
        raise PersistenceError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise PersistenceError(f"{path}: unsupported version {header.get('version')}")
    return header, blob[start + header_len :]


def loop_read_embeddings(path):
    header, payload = loop_read_framed(path, EMBEDDING_MAGIC)
    _check_fields(path, header, {
        "d_a": _is_count, "d_v": _is_count, "count": _is_count,
        "records": lambda r: _is_table(r, lambda sample_id: isinstance(sample_id, str)),
    })
    d_a, d_v, count = header["d_a"], header["d_v"], header["count"]
    if len(header["records"]) != count:
        raise PersistenceError(f"{path}: record table does not match count")
    expected = count * (d_a + d_v) * 8
    if len(payload) != expected:
        raise PersistenceError(
            f"{path}: payload length {len(payload)} != expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(count, d_a + d_v)
    _check_finite(path, values)
    return [
        Sample(
            identity_id=identity,
            sample_id=sample_id,
            audio=values[i, :d_a].astype(np.float64),
            video=values[i, d_a:].astype(np.float64),
        )
        for i, (identity, sample_id) in enumerate(header["records"])
    ]


def loop_load_checkpoint(path):
    """Returns (head, arc_head, provenance)."""
    header, payload = loop_read_framed(path, CHECKPOINT_MAGIC)
    _check_fields(path, header, {
        "head": lambda meta: isinstance(meta, dict),
        "arc": lambda arc: isinstance(arc, dict),
        "tensors": lambda table: _is_table(
            table, lambda shape: isinstance(shape, list) and all(map(_is_count, shape))
        ),
    })
    meta = header["head"]
    _check_fields(path, meta, {**{key: _is_number for key in meta}, **_HEAD_FIELDS})
    _check_fields(path, header["arc"], {"scale": _is_number, "margin": _is_number})
    tensors = {}
    offset = 0
    for name, shape in header["tensors"]:
        size = math.prod(shape) * 8
        if offset + size > len(payload):
            raise PersistenceError(f"{path}: truncated payload at tensor {name}")
        tensors[name] = (
            np.frombuffer(payload[offset : offset + size], dtype="<f8")
            .reshape(shape)
            .astype(np.float64)
        )
        offset += size
    if offset != len(payload):
        raise PersistenceError(f"{path}: trailing bytes after last tensor")
    _check_finite(path, np.frombuffer(payload, dtype="<f8"))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            head = HEAD_KINDS[meta["kind"]].from_state(
                meta,
                {k[len("head."):]: v for k, v in tensors.items()
                 if k.startswith("head.")},
            )
            arc = ArcMarginHead(
                prototypes=tensors["arc.prototypes"],
                scale=header["arc"]["scale"],
                margin=header["arc"]["margin"],
            )
            if arc.prototypes.shape[0] != head.d_e:
                raise ShapeError(f"prototypes {arc.prototypes.shape} for d_e {head.d_e}")
    except KeyError as exc:
        raise PersistenceError(f"{path}: missing tensor {exc}") from exc
    except (ShapeError, DegenerateInputError, ConfigurationError) as exc:
        raise PersistenceError(f"{path}: inconsistent tensors: {exc}") from exc
    except FloatingPointError as exc:
        raise PersistenceError(f"{path}: tensor values out of range: {exc}") from exc
    return head, arc, header.get("provenance", {})


# Loop references of the lean training step: batch norm's forward pass with
# `x.mean`/`x.var` and a second centring, the mask draw by `rng.choice`, and
# `batch_loss` with a prototype normalisation per loss term and a head
# gradient dict per call, kept verbatim (renamed loop_*).  The batch-norm
# forward pass is a method; it takes its layer as `self`.


def loop_batchnorm_forward(self, x: np.ndarray, train: bool):
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
            (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        )
        self.running_var = (
            (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased
        )
    else:
        mean = self.running_mean
        var = self.running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv_std
    out = self.gamma * xhat + self.beta
    cache = (xhat, inv_std, train, x.shape[0])
    return out, cache


def loop_sample_mask_modes(rng, n):
    """One of MASK_VIDEO / MASK_AUDIO / MASK_NONE per sample, i.i.d. with
    probability 1/3 each."""
    return rng.choice(3, size=n, p=np.asarray((1 / 3, 1 / 3, 1 / 3)))


def loop_batch_loss_in_place(head, arc_head, audio, video, labels, config, grads,
                             mask_rng=None, rng=None):
    """Weighted sum of the arc-margin losses of the head's loss terms.

    Returns the loss, and writes the gradient of every trained tensor into
    the array `grads` holds under its name, as `ParamStore.grad_views`
    names them.  A second term's prototype gradient is added in place.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DegenerateInputError("empty batch")
    terms, cache = head.loss_terms(audio, video, config, mask_rng, rng)
    loss, douts, grad_protos = 0.0, [], grads["arc.prototypes"]
    for k, (weight, emb) in enumerate(terms):
        term_loss, grad_emb, term_protos, _ = arc_margin_loss_grad_batch(
            arc_head, emb, labels
        )
        loss += weight * term_loss
        douts.append(weight * grad_emb)
        if k:
            term_protos *= weight
            grad_protos += term_protos
        else:
            np.multiply(weight, term_protos, out=grad_protos)
    head.backward_terms(cache, douts, {name.removeprefix("head."): g
                                       for name, g in grads.items()
                                       if name != "arc.prototypes"})
    return loss


# Loop references of the sample lists: generation, the stratified split and
# the embedding writer as they were when every sample was one `Sample`
# object, kept verbatim (renamed loop_*).


def loop_sample_dataset(specs, config: DatasetConfig):
    """Prototype + Gaussian noise per sample; deterministic per seed."""
    if not specs:
        raise ConfigurationError("no identity specs given")
    samples = []
    for index, spec in enumerate(specs):
        # Each identity's noise stream derives from its position in `specs`,
        # so no two identities share one, whatever their names.
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 100, index]))
        noise_a = rng.normal(size=(config.samples_per_identity, config.d_a))
        noise_v = rng.normal(size=(config.samples_per_identity, config.d_v))
        for j in range(config.samples_per_identity):
            samples.append(
                Sample(
                    identity_id=spec.identity_id,
                    sample_id=f"{spec.identity_id}-s{j:04d}",
                    audio=spec.audio_prototype + config.audio_noise_sigma * noise_a[j],
                    video=spec.video_prototype + config.video_noise_sigma * noise_v[j],
                )
            )
    return samples


def loop_split_dataset(samples, fraction, seed):
    """Identity-stratified (kept, `fraction` held out) split, disjoint by sample id."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"split fraction {fraction} must be in (0, 1)")
    by_identity = {}
    for s in samples:
        by_identity.setdefault(s.identity_id, []).append(s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 200]))
    train, val = [], []
    for identity_id in sorted(by_identity):
        group = by_identity[identity_id]
        n_val = int(round(len(group) * fraction))
        if n_val < 1 or n_val >= len(group):
            raise ConfigurationError(
                f"identity {identity_id} has too few samples "
                f"({len(group)}) to stratify at split fraction {fraction}"
            )
        perm = rng.permutation(len(group))
        val.extend(group[i] for i in sorted(perm[:n_val]))
        train.extend(group[i] for i in sorted(perm[n_val:]))
    return train, val


def loop_write_embeddings(path, samples):
    """Serialize nonempty samples; read(write(x)) is bit-exact in float64."""
    samples = list(samples)
    if not samples:
        raise PersistenceError(f"{path}: no samples to write")
    d_a = samples[0].audio.shape[0]
    d_v = samples[0].video.shape[0]
    for s in samples:
        if s.audio.shape != (d_a,) or s.video.shape != (d_v,):
            raise PersistenceError(
                f"sample {s.sample_id} does not match dims ({d_a}, {d_v})"
            )
        if not s.identity_id or not s.sample_id:
            raise PersistenceError("identifiers must be nonempty")
    header = {
        "version": 1,
        "endianness": "little",
        "d_a": int(d_a),
        "d_v": int(d_v),
        "count": len(samples),
        "records": [[s.identity_id, s.sample_id] for s in samples],
    }
    payload = np.concatenate([np.concatenate([s.audio, s.video]) for s in samples])
    _write_framed(path, EMBEDDING_MAGIC, header, [payload])



def trial_arrays(mode, trials):
    """Trial rows of one mode as the TrialArrays that score them."""
    return TrialArrays(MODALITY_MODES[mode],
                       np.array([t.left for t in trials], dtype=np.intp),
                       np.array([t.right for t in trials], dtype=np.intp),
                       np.array([t.label for t in trials], dtype=bool))


def loop_write_diagnostics_csv(diag_path, doc):
    """`<prefix>_diagnostics.csv` of `write_report`, from the report's
    `report_document`."""
    with open(diag_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["family", "modality", "identity", "min", "q1", "median", "q3", "max",
             "whisker_low", "whisker_high", "n_outliers"]
        )

        def stats_row(family, modality, identity, stats):
            writer.writerow(
                [family, modality, identity]
                + [f"{stats[k]:.6g}" for k in
                   ("min", "q1", "median", "q3", "max", "whisker_low",
                    "whisker_high")]
                + [len(stats["outliers"])]
            )

        families = doc["angle_families"]
        if "audio_video" in families:
            for identity, stats in families["audio_video"]["per_identity"].items():
                if stats is not None:
                    stats_row("audio_video", "both", identity, stats)
        for modality, fam in families.get("within_identity", {}).items():
            for identity, stats in fam["per_identity"].items():
                if stats is not None:
                    stats_row("within_identity", modality, identity, stats)
        for modality, fam in families.get("between_centroids", {}).items():
            matrix = np.asarray(fam["matrix"])
            if matrix.size:
                upper = matrix[np.triu_indices(matrix.shape[0], k=1)]
                if upper.size:
                    stats_row(
                        "between_centroids", modality, "__all__",
                        _stats_dict(boxplot_stats(upper)),
                    )
        for modality, value in doc["silhouette"].items():
            writer.writerow(
                ["silhouette", modality, "__all__", f"{value:.6g}", "", "", "", "",
                 "", "", ""]
            )


def loop_diagnose_outputs(out_dir, report, label):
    """The SVG boxplots and `diagnostics_summary.json` that `diagnose` wrote
    of a DiagnosticsReport, for a head of kind `label`; returns the summary."""
    families = {
        "audio_video": report.audio_video,
        "within_audio": report.within_identity["audio"],
        "within_video": report.within_identity["video"],
    }
    warnings = 0
    for name, family in families.items():
        groups = [
            (identity, boxplot_stats(angles) if angles else None)
            for identity, angles in sorted(family.per_identity.items())
        ]
        with open(os.path.join(out_dir, f"{name}.svg"), "w", encoding="utf-8") as fh:
            fh.write(render_boxplot_svg(groups, label, name.replace("_", " ")))
        warnings += family.warnings
    summary = {"silhouette": dict(report.silhouette), "warnings": warnings,
               "families": {}}
    for name, family in families.items():
        angles = family.all_angles()
        stats = boxplot_stats(angles) if angles else None
        summary["families"][name] = (
            None if stats is None else
            {"median": stats.median, "q1": stats.q1, "q3": stats.q3,
             "n": len(angles)}
        )
    summary_path = os.path.join(out_dir, "diagnostics_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return summary


def loop_write_comparison(comparison, rows):
    """`comparison.csv` of `evaluate`, from (head kind, {mode: EER}) rows."""
    with open(comparison, "w", encoding="utf-8") as fh:
        modes = list(MODALITY_MODES)
        fh.write("model," + ",".join(modes) + "\n")
        for kind, eers in rows:
            fh.write(kind + "," + ",".join(f"{eers[m]:.6g}" for m in modes) + "\n")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
