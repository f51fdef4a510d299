"""Verification protocol (six modality modes, EER) and embedding diagnostics.

Embeddings for a side of a trial are produced by the head under that side's
modality exposure: missing modalities enter the mean/MLP heads as null
(zero) inputs, while the multi-view head routes single modalities through
its shared classifier and averages both paths when both are present.

Scoring and diagnostics work on embeddings computed once per exposure, and
on whole arrays.  Each result is bit for bit what the per-pair definition
gives: the cosines are `linalg.row_cosines`, of which
`linalg.cosine_similarity` is one row, and every mean reduces the same
values in the same order as a mean over one row.
"""

import bisect
import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .data import SampleSet, group_rows
from .errors import ConfigurationError, DegenerateInputError
# cosine_similarity is unused here; perfbench/tracing.py counts calls through
# this name.
from .linalg import cosine_distances, cosine_similarity, row_cosines  # noqa: F401
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
_MODALITY_EXPOSURES = {"audio": "a", "video": "v"}


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


# The largest target or nontarget count per mode that `evaluate` accepts:
# above the ~580k trials of a paper-scale list, and far below a request
# whose index arrays could not be allocated.
MAX_TRIALS_PER_CLASS = 1_000_000


@dataclass(frozen=True)
class TrialConfig:
    n_positive: int = 500
    n_negative: int = 500
    seed: int = 0

    def __post_init__(self):
        # Written to fail on NaN, as DatasetConfig's checks are.
        for name in ("n_positive", "n_negative"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_TRIALS_PER_CLASS:
                raise ConfigurationError(
                    f"{name} must be in [1, {MAX_TRIALS_PER_CLASS}], got {value}")


@dataclass
class DiagnosticsReport:
    eer: dict = field(default_factory=dict)  # mode -> EerResult
    audio_video: AngleReport = None
    within_identity: dict = field(default_factory=dict)  # modality -> AngleReport
    between_centroids: dict = field(default_factory=dict)  # modality -> (ids, matrix)
    silhouette: dict = field(default_factory=dict)  # modality -> float
    warnings: int = 0


# The most 32-bit words `_raw_draws` takes from the raw stream at once.
RAW_CHUNK_WORDS = 65536
_LOW_WORD = 0xFFFFFFFF


@contextlib.contextmanager
def _raw_draws(rng):
    """`draw(r)`, numpy's bounded draw of [0, r] from the PCG64 generator
    `rng`, read in bulk from its raw stream.

    `rng.integers(r + 1)`, and each draw inside `rng.choice`, is Lemire's
    multiply-shift rule over 32-bit words (arXiv 1805.10941): m = w·(r + 1),
    redrawn while m mod 2³² < (2³² − 1 − r) mod (r + 1); the value is m >> 32,
    and r = 0 takes no word.  numpy splits each 64-bit output into its low
    word, used first, and its high word, kept in the state's `uinteger` for
    the next draw.  Chunks of raw outputs, from 64 words and doubling up to
    RAW_CHUNK_WORDS, are read ahead; on exit the unread outputs are rewound with
    `advance` and a pending high word is put back, so that the generator's
    next draw is the one numpy would make next.  r must be below 2³² − 1.
    """
    bits = rng.bit_generator
    state = bits.state
    entry = state["uinteger"]
    words = [entry] if state["has_uint32"] else []
    pos, size = 0, 32

    def draw(r):
        nonlocal words, pos, size
        if not r:
            return 0
        bound = r + 1
        while True:
            if pos == len(words):
                size = min(2 * size, RAW_CHUNK_WORDS)
                raw = bits.random_raw(size // 2)
                words = raw.astype("<u8", copy=False).view("<u4").tolist()
                pos = 0
            m = words[pos] * bound
            pos += 1
            low = m & _LOW_WORD
            # The threshold is below r + 1, so most words pass the first test.
            if low >= bound or low >= (_LOW_WORD - r) % bound:
                return m >> 32

    try:
        yield draw
    finally:
        unread = len(words) - pos
        if unread > 1:
            bits.advance(-(unread // 2))
        state = bits.state
        if unread % 2:
            state["has_uint32"], state["uinteger"] = 1, words[pos]
        else:
            state["has_uint32"], state["uinteger"] = 0, words[pos - 1] if pos else entry
        bits.state = state


def _pairs(bounds, index):
    """(first, second): the positions in `order` of within-identity pairs,
    by their index in the list of all such pairs, identity by identity, each
    in `np.triu_indices` order.  Every position but a group's last starts a
    row of pairs (itself, each later position of its group); a pair is found
    by its row."""
    ends = np.repeat(bounds[1:], np.diff(bounds))  # each position's group end
    rows = np.flatnonzero(np.arange(ends.size) < ends - 1)
    lengths = ends[rows] - 1 - rows
    row_start = np.cumsum(lengths) - lengths
    row = np.searchsorted(row_start, index, side="right") - 1
    first = rows[row]
    return first, first + 1 + (index - row_start[row])


def _draw_trials(groups, mode, n_positive, n_negative, seed):
    """(left, right, labels) of `build_trials`, from `group_rows` of the
    samples' identities."""
    if n_positive < 0 or n_negative < 0:
        raise ConfigurationError("trial counts must be >= 0")
    _, order, bounds = groups
    sizes = np.diff(bounds)
    if sizes.size < 2:
        raise ConfigurationError("need at least 2 identities to build trials")
    # ordered pairs of samples from two different identities
    n_cross = len(order) ** 2 - int(np.sum(sizes * sizes))
    if n_negative > n_cross:
        raise ConfigurationError(f"only {n_cross} distinct cross-identity pairs exist")
    rng = substream(seed, "trials", _MODE_TAGS[mode])

    n_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    if n_positive > 0 and not n_pairs:
        raise ConfigurationError("no identity has two samples; cannot build targets")
    chosen = np.empty(0, dtype=np.intp)
    if n_positive > 0:
        chosen = rng.choice(n_pairs, size=n_positive, replace=n_positive > n_pairs)
    first, second = _pairs(bounds, chosen)

    groups = [order[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]
    tops = (sizes - 1).tolist()
    last = len(groups) - 1
    seen = {}  # one key per nontarget trial drawn so far, in draw order
    max_attempts = 1000 * max(n_negative, 1)
    attempts = 0
    with _raw_draws(rng) as draw:
        while len(seen) < n_negative:
            attempts += 1
            if attempts > max_attempts:
                raise ConfigurationError("cannot sample enough distinct nontarget pairs")
            # rng.choice(n, size=2, replace=False): Floyd's draws of [0, n - 2]
            # and [0, n - 1], a repeat replaced by n - 1, then a shuffle.
            i1, i2 = draw(last - 1), draw(last)
            if i2 == i1:
                i2 = last
            if not draw(1):
                i1, i2 = i2, i1
            # rng.integers(len(group)) of each side
            seen[groups[i1][draw(tops[i1])], groups[i2][draw(tops[i2])]] = None
    negatives = np.array(list(seen), dtype=np.intp).reshape(-1, 2)
    labels = np.zeros(n_positive + n_negative, dtype=bool)
    labels[:n_positive] = True
    return (np.concatenate([order[first], negatives[:, 0]]),
            np.concatenate([order[second], negatives[:, 1]]), labels)


def build_trials(samples, mode, n_positive, n_negative, seed):
    """Balanced-by-construction verification pairs, deterministic per seed.

    Targets are `rng.choice` indices into every within-identity pair, listed
    identity by identity in `np.triu_indices` order; each index is mapped to
    its pair without listing the others.  Each nontarget draws two distinct
    identities as `rng.choice(..., size=2, replace=False)` does, then a
    sample of each as `rng.integers(len(group))` does, which picks the value
    and advances the generator exactly as `rng.choice(group)` does; a pair
    drawn before is rejected and drawn anew.  The nontarget draws are read
    from the generator's raw stream (`_raw_draws`), and the generator is left
    where those numpy calls would leave it.
    """
    if mode not in MODALITY_MODES:
        raise ConfigurationError(f"unknown modality mode {mode!r}")
    groups = group_rows(SampleSet.of(samples).identity_ids)
    left, right, labels = _draw_trials(groups, mode, n_positive, n_negative, seed)
    left_exp, right_exp = MODALITY_MODES[mode]
    return [Trial(a, b, left_exp, right_exp, label)
            for a, b, label in zip(left.tolist(), right.tolist(), labels.tolist())]


def build_mode_trials(samples, trial_config: TrialConfig):
    """The trials of all six modes, as {mode: TrialArrays}: the trials of
    `build_trials`, drawn as index arrays."""
    groups = group_rows(SampleSet.of(samples).identity_ids)
    return {
        mode: TrialArrays(exposures, *_draw_trials(
            groups, mode, trial_config.n_positive, trial_config.n_negative,
            trial_config.seed,
        ))
        for mode, exposures in MODALITY_MODES.items()
    }


def embed_samples(head, samples, exposure):
    """Eval-mode embeddings of every sample under one exposure."""
    samples = SampleSet.of(samples)
    return head.embed(samples.audio if "a" in exposure else None,
                      samples.video if "v" in exposure else None)


def score_trials(embedded, trials: TrialArrays):
    """Cosine score of every trial, from embeddings keyed by exposure.  An
    exactly zero embedding has no direction: its trials score 0, as its
    validation logits are 0 in `arcmargin.plain_cosine_logits`."""
    left, right = (embedded[exposure] for exposure in trials.exposures)
    keep = left.any(axis=1)[trials.left] & right.any(axis=1)[trials.right]
    scores = np.zeros(keep.size)
    scores[keep] = row_cosines(left[trials.left[keep]], right[trials.right[keep]])
    return scores


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
    angles[keep] = np.degrees(np.arccos(row_cosines(left[keep], right[keep])))
    report = AngleReport(family=family, warnings=int(keep.size - keep.sum()))
    for identity, start, stop in zip(identities, bounds[:-1], bounds[1:]):
        report.per_identity[identity] = angles[start:stop][keep[start:stop]].tolist()
    return report


def audio_video_angles(embedded, labels):
    """Per-sample angle between the audio-only and video-only embeddings."""
    if len(labels) == 0:
        raise DegenerateInputError("no samples")
    identities, order, bounds = group_rows(labels)
    return _angle_report("audio_video", identities, bounds,
                         embedded["a"][order], embedded["v"][order])


def within_identity_angles(embedded, labels, modality):
    """All unordered within-identity pairs of single-modality embeddings."""
    exposure = _exposure(modality)
    identities, order, bounds = group_rows(labels)
    sizes = np.diff(bounds)
    if not (sizes >= 2).any():
        raise DegenerateInputError("no identity has two samples")
    pair_bounds = np.concatenate(([0], np.cumsum(sizes * (sizes - 1) // 2)))
    first, second = _pairs(bounds, np.arange(pair_bounds[-1]))
    emb = embedded[exposure]
    return _angle_report(f"within_identity_{modality}", identities, pair_bounds,
                         emb[order[first]], emb[order[second]])


def centroid_angle_matrix(embedded, labels, modality):
    """Pairwise angles between per-identity centroid embeddings.

    Returns (identities, matrix, n_skipped); identities with an exactly zero
    centroid are dropped from the matrix and counted.
    """
    exposure = _exposure(modality)
    identities, order, bounds = group_rows(labels)
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
    angles = np.degrees(np.arccos(row_cosines(centroids[first], centroids[second])))
    matrix = np.zeros((len(kept), len(kept)))
    matrix[first, second] = angles
    matrix[second, first] = angles
    return kept, matrix, len(identities) - len(kept)


def silhouette_score(embeddings, labels, distance="cosine"):
    """Mean silhouette s(i) = (b - a)/max(a, b) over all points, under the
    cosine distance 1 - cos; `distance` must be "cosine".

    Singleton clusters and coincident geometry (a == b == 0) contribute 0.
    The n x n distance matrix is kept whole: each mean below reduces one
    contiguous row slice of it, which is what keeps the result bit-exact.
    """
    if distance != "cosine":
        raise ConfigurationError(f"unknown distance {distance!r}")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise ConfigurationError("embeddings and labels must align")
    _, order, bounds = group_rows(labels)
    if len(bounds) < 3:
        raise DegenerateInputError("silhouette needs at least 2 clusters")
    if not np.isfinite(embeddings).all():
        raise DegenerateInputError("silhouette of NaN or Inf embeddings")
    dist = cosine_distances(embeddings)
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


def _lerp(a, b, t):
    """`a + (b - a)·t`, rounded as `np.percentile`'s linear method rounds it:
    from the upper end when t >= 0.5."""
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _quartile(ordered, q):
    """`np.percentile(ordered, 100·q)` of a sorted list, by numpy's linear
    method: virtual index (n - 1)·q, interpolated between its floor and the
    next index.  An index at the end takes the last value twice, at the
    weight numpy gives it (index + 1)."""
    n = len(ordered)
    position = (n - 1) * q
    if position >= n - 1:
        return _lerp(ordered[-1], ordered[-1], position + 1)
    below = math.floor(position)
    return _lerp(ordered[below], ordered[below + 1], position - below)


def boxplot_stats(values):
    """Quartiles by linear interpolation with Tukey whiskers clamped to data.

    One sort: the quartiles interpolate neighbours in the sorted values as
    `np.percentile` does, and the whiskers and outliers are found by binary
    search for the fences.  Min and max are numpy's reductions, so the sign
    of a zero is the one `np.min`/`np.max` give.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DegenerateInputError("boxplot of an empty sequence")
    ordered = np.sort(values, axis=None).tolist()
    if ordered[-1] != ordered[-1]:  # NaN sorts last; np.percentile gives NaN
        q1 = median = q3 = math.nan
    else:
        q1, median, q3 = (_quartile(ordered, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    if iqr != iqr:  # a NaN fence: no value is inside or outside it
        inside, outliers = [], ()
    else:
        lo = bisect.bisect_left(ordered, q1 - 1.5 * iqr)
        hi = bisect.bisect_right(ordered, q3 + 1.5 * iqr)
        inside = ordered[lo:hi]
        outliers = tuple(ordered[:lo] + ordered[hi:])
    return BoxplotStats(
        minimum=float(np.minimum.reduce(values, axis=None)),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(np.maximum.reduce(values, axis=None)),
        whisker_low=inside[0] if inside else q1,
        whisker_high=inside[-1] if inside else q3,
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
    samples = SampleSet.of(samples)
    if trials is None:
        trials = build_mode_trials(samples, trial_config)
    embedded = {exp: embed_samples(head, samples, exp) for exp in ("av", "a", "v")}
    eer = {
        mode: compute_eer(score_trials(embedded, mode_trials), mode_trials.labels)
        for mode, mode_trials in trials.items()
    }
    report = run_diagnostics(embedded, samples.identity_ids)
    report.eer = eer
    return report
