"""Verification protocol (six modality modes, EER) and embedding diagnostics.

Embeddings for a side of a trial are produced by the head under that side's
modality exposure: missing modalities enter the mean/MLP heads as null
(zero) inputs, while the multi-view head routes single modalities through
its shared classifier and averages both paths when both are present.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
from .linalg import angle_deg, cosine_similarity
from .rng import substream

# mode -> (left exposure, right exposure); exposures are "av", "a", "v".
MODALITY_MODES = {
    "AVxAV": ("av", "av"),
    "AxA": ("a", "a"),
    "VxV": ("v", "v"),
    "AVxA": ("av", "a"),
    "AVxV": ("av", "v"),
    "AxV": ("a", "v"),
}

_MODE_TAGS = {mode: i for i, mode in enumerate(MODALITY_MODES)}


@dataclass(frozen=True)
class Trial:
    left: int
    right: int
    left_exposure: str
    right_exposure: str
    label: bool  # True = same identity


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float
    n_target: int
    n_nontarget: int


@dataclass
class AngleReport:
    family: str
    per_identity: dict = field(default_factory=dict)
    warnings: int = 0

    def all_angles(self):
        return [a for angles in self.per_identity.values() for a in angles]


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple


@dataclass(frozen=True)
class TrialConfig:
    n_positive: int = 500
    n_negative: int = 500
    seed: int = 0


@dataclass
class DiagnosticsReport:
    eer: dict = field(default_factory=dict)  # mode -> EerResult
    audio_video: AngleReport = None
    within_identity: dict = field(default_factory=dict)  # modality -> AngleReport
    between_centroids: dict = field(default_factory=dict)  # modality -> (ids, matrix)
    silhouette: dict = field(default_factory=dict)  # modality -> float
    warnings: int = 0


def build_trials(samples, mode, n_positive, n_negative, seed):
    """Balanced-by-construction verification pairs, deterministic per seed."""
    if mode not in MODALITY_MODES:
        raise ConfigurationError(f"unknown modality mode {mode!r}")
    if n_positive < 0 or n_negative < 0:
        raise ConfigurationError("trial counts must be >= 0")
    by_identity = _group_indices(samples)
    identities = sorted(by_identity)
    if len(identities) < 2:
        raise ConfigurationError("need at least 2 identities to build trials")
    # ordered pairs of samples from two different identities
    n_cross = len(samples) ** 2 - sum(len(m) ** 2 for m in by_identity.values())
    if n_negative > n_cross:
        raise ConfigurationError(f"only {n_cross} distinct cross-identity pairs exist")
    left_exp, right_exp = MODALITY_MODES[mode]
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 300, _MODE_TAGS[mode]])
    )

    positive_pairs = [
        (a, b)
        for identity in identities
        for j, a in enumerate(by_identity[identity])
        for b in by_identity[identity][j + 1 :]
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
        if attempts > 1000 * max(n_negative, 1):
            raise ConfigurationError("cannot sample enough distinct nontarget pairs")
        i1, i2 = rng.choice(len(identities), size=2, replace=False)
        a = int(rng.choice(by_identity[identities[i1]]))
        b = int(rng.choice(by_identity[identities[i2]]))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        trials.append(Trial(a, b, left_exp, right_exp, False))
    return trials


def embed_samples(head, samples, exposure):
    """Eval-mode embeddings of every sample under one exposure."""
    audio = np.stack([s.audio for s in samples]) if "a" in exposure else None
    video = np.stack([s.video for s in samples]) if "v" in exposure else None
    return head.embed(audio, video)


def score_trials(head, trials, samples):
    """Vectorized trial scoring; embeds each needed exposure once."""
    exposures = {t.left_exposure for t in trials} | {t.right_exposure for t in trials}
    embedded = {exp: embed_samples(head, samples, exp) for exp in exposures}
    scores = np.empty(len(trials))
    for i, t in enumerate(trials):
        scores[i] = cosine_similarity(
            embedded[t.left_exposure][t.left], embedded[t.right_exposure][t.right]
        )
    return scores


def compute_eer(scores, labels):
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


def audio_video_angles(head, samples):
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


def within_identity_angles(head, samples, modality):
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


def centroid_angle_matrix(head, samples, modality):
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


def silhouette_score(embeddings, labels, distance="cosine"):
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


def boxplot_stats(values):
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


def run_full_evaluation(head, samples, trial_config: TrialConfig):
    """EER for all six modes plus the full angle/silhouette diagnostics."""
    report = DiagnosticsReport()
    for mode in MODALITY_MODES:
        trials = build_trials(
            samples, mode, trial_config.n_positive, trial_config.n_negative,
            trial_config.seed,
        )
        scores = score_trials(head, trials, samples)
        labels = np.array([t.label for t in trials])
        report.eer[mode] = compute_eer(scores, labels)
    report.audio_video = audio_video_angles(head, samples)
    report.warnings += report.audio_video.warnings
    for modality in ("audio", "video"):
        within = within_identity_angles(head, samples, modality)
        report.within_identity[modality] = within
        report.warnings += within.warnings
        ids, matrix, skipped = centroid_angle_matrix(head, samples, modality)
        report.between_centroids[modality] = (ids, matrix)
        report.warnings += skipped
        exposure = "a" if modality == "audio" else "v"
        emb = embed_samples(head, samples, exposure)
        labels = np.array([s.identity_id for s in samples])
        report.silhouette[modality] = silhouette_score(emb, labels, "cosine")
    return report
