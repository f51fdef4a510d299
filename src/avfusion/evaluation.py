"""Verification protocol (six modality modes, EER) and embedding diagnostics.

Embeddings for a side of a trial are produced by the head under that side's
modality exposure: missing modalities enter the mean/MLP heads as null
(zero) inputs, while the multi-view head routes single modalities through
its shared classifier and averages both paths when both are present.

Scoring and diagnostics work on embeddings computed once per exposure, and
on whole arrays.  Each result is bit for bit what the per-pair definition
gives: a row's dot product is `np.vecdot`, which sums it exactly as `np.dot`
sums one pair in `linalg.cosine_similarity`, and every mean reduces the same
values in the same order as a mean over one row.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateInputError
# Unused here; perfbench/tracing.py counts calls through this name.
from .linalg import cosine_similarity  # noqa: F401

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
_MODALITY_EXPOSURES = {"audio": "a", "video": "v"}
# Elements of the pairwise-difference tensor the euclidean silhouette
# computes at once (2 MB).
_DIFF_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class Trial:
    left: int
    right: int
    left_exposure: str
    right_exposure: str
    label: bool  # True = same identity


@dataclass(frozen=True)
class TrialArrays:
    """One mode's trials as index arrays, built once and scored per head."""

    exposures: tuple  # (left exposure, right exposure)
    left: np.ndarray  # sample index of each trial's left side
    right: np.ndarray
    labels: np.ndarray  # True = same identity

    @classmethod
    def from_trials(cls, mode, trials):
        exposures = MODALITY_MODES[mode]
        if any((t.left_exposure, t.right_exposure) != exposures for t in trials):
            raise ConfigurationError(f"trials do not all have the exposures of {mode}")
        return cls(
            exposures,
            np.array([t.left for t in trials], dtype=np.intp),
            np.array([t.right for t in trials], dtype=np.intp),
            np.array([t.label for t in trials], dtype=bool),
        )


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


def build_mode_trials(samples, trial_config: TrialConfig):
    """The trials of all six modes, as {mode: TrialArrays}."""
    return {
        mode: TrialArrays.from_trials(mode, build_trials(
            samples, mode, trial_config.n_positive, trial_config.n_negative,
            trial_config.seed,
        ))
        for mode in MODALITY_MODES
    }


def embed_samples(head, samples, exposure):
    """Eval-mode embeddings of every sample under one exposure."""
    audio = np.stack([s.audio for s in samples]) if "a" in exposure else None
    video = np.stack([s.video for s in samples]) if "v" in exposure else None
    return head.embed(audio, video)


def _row_cosines(left, right):
    """Clamped cosine of each pair of rows, as `cosine_similarity` gives it."""
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise DegenerateInputError("vector contains NaN or Inf")
    left_norms = np.sqrt(np.vecdot(left, left))
    right_norms = np.sqrt(np.vecdot(right, right))
    if (left_norms == 0.0).any() or (right_norms == 0.0).any():
        raise DegenerateInputError("cosine similarity undefined for the zero vector")
    return np.clip(np.vecdot(left, right) / (left_norms * right_norms), -1.0, 1.0)


def score_trials(embedded, trials: TrialArrays):
    """Cosine score of every trial, from embeddings keyed by exposure."""
    left_exp, right_exp = trials.exposures
    return _row_cosines(embedded[left_exp][trials.left],
                        embedded[right_exp][trials.right])


def compute_eer(scores, labels):
    """Equal error rate via threshold sweep with linear interpolation.

    FAR(t) = fraction of nontarget scores >= t; FRR(t) = fraction of target
    scores < t.  The EER is read off where FAR crosses FRR, interpolating
    linearly between the adjacent operating points.  Both rates come from
    one sort of each class, so the sweep is O(T log T) in the trial count.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ConfigurationError("scores and labels must align")
    if np.isnan(scores).any():
        raise DegenerateInputError("scores contain NaN")
    targets = np.sort(scores[labels])
    nontargets = np.sort(scores[~labels])
    if targets.size == 0 or nontargets.size == 0:
        raise DegenerateInputError("need at least one target and one nontarget")
    thresholds = np.unique(scores)
    thresholds = np.concatenate(
        [[thresholds[0] - 1.0], thresholds, [thresholds[-1] + 1.0]]
    )
    n_below = np.searchsorted(nontargets, thresholds, "left")
    far = (nontargets.size - n_below) / nontargets.size
    frr = np.searchsorted(targets, thresholds, "left") / targets.size
    # FAR falls and FRR rises with the threshold, so diff never increases:
    # the rates either meet at a threshold or cross between two.
    diff = far - frr
    meets = np.flatnonzero(diff == 0.0)
    crosses = np.flatnonzero((diff[:-1] > 0.0) & (diff[1:] < 0.0))
    if meets.size:
        i = meets[0]
        return EerResult(
            float(far[i]), float(thresholds[i]), targets.size, nontargets.size
        )
    if crosses.size:
        i = crosses[0]
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


def _clusters(labels):
    """(sorted distinct labels, order, bounds): `order` lists the samples
    grouped by label, each group in sample order, and group k is
    order[bounds[k]:bounds[k + 1]]."""
    distinct, inverse, counts = np.unique(
        np.asarray(labels), return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse, kind="stable")
    return distinct.tolist(), order, np.concatenate(([0], np.cumsum(counts)))


def _exposure(modality):
    if modality not in _MODALITY_EXPOSURES:
        raise ConfigurationError(f"modality must be audio or video, got {modality!r}")
    return _MODALITY_EXPOSURES[modality]


def _angle_report(family, identities, bounds, left, right):
    """Angles in degrees between pairs of rows; identity k owns the pairs
    bounds[k]:bounds[k + 1].  A pair with an exactly zero row has no angle;
    it is skipped and counted as a warning."""
    keep = left.any(axis=1) & right.any(axis=1)
    angles = np.zeros(keep.size)
    angles[keep] = np.degrees(np.arccos(_row_cosines(left[keep], right[keep])))
    report = AngleReport(family=family, warnings=int(keep.size - keep.sum()))
    for identity, start, stop in zip(identities, bounds[:-1], bounds[1:]):
        report.per_identity[identity] = angles[start:stop][keep[start:stop]].tolist()
    return report


def audio_video_angles(embedded, labels):
    """Per-sample angle between the audio-only and video-only embeddings."""
    if len(labels) == 0:
        raise DegenerateInputError("no samples")
    identities, order, bounds = _clusters(labels)
    return _angle_report("audio_video", identities, bounds,
                         embedded["a"][order], embedded["v"][order])


def within_identity_angles(embedded, labels, modality):
    """All unordered within-identity pairs of single-modality embeddings."""
    exposure = _exposure(modality)
    identities, order, bounds = _clusters(labels)
    sizes = np.diff(bounds)
    if not (sizes >= 2).any():
        raise DegenerateInputError("no identity has two samples")
    left, right = [], []
    for start, size in zip(bounds[:-1], sizes):
        first, second = np.triu_indices(size, k=1)
        left.append(order[start + first])
        right.append(order[start + second])
    pair_bounds = np.concatenate(([0], np.cumsum(sizes * (sizes - 1) // 2)))
    emb = embedded[exposure]
    return _angle_report(f"within_identity_{modality}", identities, pair_bounds,
                         emb[np.concatenate(left)], emb[np.concatenate(right)])


def centroid_angle_matrix(embedded, labels, modality):
    """Pairwise angles between per-identity centroid embeddings.

    Returns (identities, matrix, n_skipped); identities with an exactly zero
    centroid are dropped from the matrix and counted.
    """
    exposure = _exposure(modality)
    identities, order, bounds = _clusters(labels)
    if len(identities) < 2:
        raise DegenerateInputError("need at least 2 identities")
    emb = embedded[exposure]
    centroids = np.array([
        emb[order[start:stop]].mean(axis=0)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ])
    nonzero = centroids.any(axis=1)
    kept = [identity for identity, keep in zip(identities, nonzero) if keep]
    centroids = centroids[nonzero]
    first, second = np.triu_indices(len(kept), k=1)
    angles = np.degrees(np.arccos(_row_cosines(centroids[first], centroids[second])))
    matrix = np.zeros((len(kept), len(kept)))
    matrix[first, second] = angles
    matrix[second, first] = angles
    return kept, matrix, len(identities) - len(kept)


def silhouette_score(embeddings, labels, distance="cosine"):
    """Mean silhouette s(i) = (b - a)/max(a, b) over all points.

    Singleton clusters and coincident geometry (a == b == 0) contribute 0.
    The n x n distance matrix is kept whole: each mean below reduces one
    contiguous row slice of it, which is what keeps the result bit-exact.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise ConfigurationError("embeddings and labels must align")
    _, order, bounds = _clusters(labels)
    if len(bounds) < 3:
        raise DegenerateInputError("silhouette needs at least 2 clusters")
    if not np.isfinite(embeddings).all():
        raise DegenerateInputError("silhouette of NaN or Inf embeddings")
    if distance == "euclidean":
        dist = np.empty((n, n))
        rows = max(1, _DIFF_BLOCK_ELEMENTS // max(embeddings.size, 1))
        for start in range(0, n, rows):
            diff = embeddings[start : start + rows, None, :] - embeddings[None, :, :]
            dist[start : start + rows] = np.sqrt(np.sum(diff**2, axis=2))
    elif distance == "cosine":
        norms = np.linalg.norm(embeddings, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateInputError("cosine distance undefined for zero vectors")
        unit = embeddings / norms[:, None]
        dist = unit @ unit.T
        np.clip(dist, -1.0, 1.0, out=dist)
        np.subtract(1.0, dist, out=dist)
    else:
        raise ConfigurationError(f"unknown distance {distance!r}")
    sizes = np.diff(bounds)
    cluster = np.empty(n, dtype=np.intp)
    cluster[order] = np.repeat(np.arange(sizes.size), sizes)
    to_cluster = np.empty((n, sizes.size))  # mean distance to each cluster
    own = np.zeros(n)  # mean distance to the rest of its own cluster
    for k, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        members = order[start:stop]
        to_cluster[:, k] = np.take(dist, members, axis=1).mean(axis=1)
        m = members.size
        if m > 1:
            block = np.take(dist[members], members, axis=1)
            own[members] = block[~np.eye(m, dtype=bool)].reshape(m, m - 1).mean(axis=1)
    to_cluster[np.arange(n), cluster] = np.inf
    nearest = to_cluster.min(axis=1)
    denom = np.maximum(own, nearest)
    scored = (sizes[cluster] > 1) & (denom > 0.0)
    scores = np.zeros(n)
    scores[scored] = (nearest[scored] - own[scored]) / denom[scored]
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


def run_diagnostics(embedded, labels):
    """Angle families, centroid angles and cosine silhouettes of one head,
    from its audio-only ("a") and video-only ("v") embeddings."""
    report = DiagnosticsReport()
    report.audio_video = audio_video_angles(embedded, labels)
    report.warnings += report.audio_video.warnings
    for modality in ("audio", "video"):
        within = within_identity_angles(embedded, labels, modality)
        report.within_identity[modality] = within
        report.warnings += within.warnings
        ids, matrix, skipped = centroid_angle_matrix(embedded, labels, modality)
        report.between_centroids[modality] = (ids, matrix)
        report.warnings += skipped
        report.silhouette[modality] = silhouette_score(
            embedded[_exposure(modality)], labels, "cosine"
        )
    return report


def run_full_evaluation(head, samples, trial_config: TrialConfig, trials=None):
    """EER for all six modes plus the full angle/silhouette diagnostics.

    `trials` is `build_mode_trials(samples, trial_config)` when the caller
    scores several heads against the same trials; it is built here otherwise.
    """
    if trials is None:
        trials = build_mode_trials(samples, trial_config)
    embedded = {exp: embed_samples(head, samples, exp) for exp in ("av", "a", "v")}
    eer = {
        mode: compute_eer(score_trials(embedded, mode_trials), mode_trials.labels)
        for mode, mode_trials in trials.items()
    }
    report = run_diagnostics(embedded, np.array([s.identity_id for s in samples]))
    report.eer = eer
    return report
