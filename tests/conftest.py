"""Shared test helpers: finite-difference oracles and small data builders."""

import numpy as np
import pytest

from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.data import DatasetConfig, generate_identities, sample_dataset
from avfusion.errors import ConfigurationError, DegenerateInputError
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


def draw_fixed_masks(head, rng, n):
    """Pre-drawn dropout masks so forward passes replay deterministically."""
    masks = {
        "audio": head.dropout.draw_mask(rng, (n, head.d_a)),
        "video": head.dropout.draw_mask(rng, (n, head.d_v)),
    }
    if head.kind == "mlp":
        hidden = head.layers[0].out_dim
        masks["h1"] = head.dropout.draw_mask(rng, (n, hidden))
        masks["h2"] = head.dropout.draw_mask(rng, (n, hidden))
    if head.kind == "multiview":
        masks["audio"] = head.dropout.draw_mask(rng, (n, head.d_e))
        masks["video"] = head.dropout.draw_mask(rng, (n, head.d_e))
    return masks


def composed_loss(head, arc, audio, video, labels, masks):
    """Train-mode head + arc-margin loss with replayed dropout masks.

    The loss-only reference: the weighted arc-margin losses of the head's
    loss terms, with no backward pass.
    """
    terms, _ = head.loss_terms(audio, video, LOSS_CONFIG, masks=masks)
    return sum(
        weight * arc_margin_loss_grad_batch(arc, emb, labels)[0] for weight, emb in terms
    )


def composed_grads(head, arc, audio, video, labels, masks):
    """Analytic gradients of composed_loss for every parameter, as training
    computes them."""
    return batch_loss(head, arc, audio, video, labels, LOSS_CONFIG, masks=masks)[1]


def gradient_check(head, arc, audio, video, labels, masks, step=1e-5):
    """Max norm-relative error between analytic and central finite differences."""
    analytic = composed_grads(head, arc, audio, video, labels, masks)
    params = {f"head.{k}": v for k, v in head.param_dict().items()}
    params["arc.prototypes"] = arc.prototypes
    worst = 0.0
    for name, p in params.items():
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = composed_loss(head, arc, audio, video, labels, masks)
            flat[i] = orig - step
            down = composed_loss(head, arc, audio, video, labels, masks)
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
