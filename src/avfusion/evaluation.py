"""Verification protocol (six modality modes, EER) and embedding diagnostics.

Embeddings for a side of a trial are produced by the head under that side's
modality exposure: missing modalities enter the mean/MLP heads as null
(zero) inputs, while the multi-view head routes single modalities through
its shared classifier and averages both paths when both are present.

Scoring and diagnostics work on embeddings computed once per exposure, and
on whole arrays.  Each result is bit for bit what the per-pair definition
gives: the cosines are `linalg.row_cosines`, of which
`linalg.cosine_similarity` is one row, or its `normed_cosines` of rows
whose norms were taken once, and every mean reduces the same
values in the same order as a mean over one row.
"""

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .data import SampleSet, group_rows
from .errors import ConfigurationError, DegenerateInputError
# cosine_similarity is unused here; perfbench/tracing.py counts calls through
# this name.
from .linalg import cosine_similarity  # noqa: F401
from .linalg import normed_cosines, rescale_underflowing, row_cosines, scaled_norms
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


# The most 32-bit words `_raw_draws` takes from the raw stream at once, and
# in one chunk of nontarget attempts (a chunk holds at least one attempt).
RAW_CHUNK_WORDS = 65536
_LOW_WORD = 0xFFFFFFFF
# The words of a regular nontarget attempt: Floyd's two identity draws, the
# swap draw, and one sample draw per side.
_ATTEMPT_WORDS = 5
# Chunks of attempts are drawn when more than this many regular attempts
# are expected per irregular one.  A chunk's fixed cost is that of about 18
# attempts made one by one, and an irregular attempt costs two or three
# chunks, so below about 64 the attempts are faster one by one.
_REGULAR_RUN = 64
# The most attempts per requested nontarget before a request is refused.
NONTARGET_ATTEMPTS = 1000
SILHOUETTE_BLOCK = 2**21  # the most (row, cluster) means in one block of `silhouette_score`
# A silhouette row whose own and nearest mean distances are both at most this
# scores 0: they are rounding noise, well above the d·2^-53 error of a unit
# row's dot product, not geometry.
SILHOUETTE_NOISE = 2**-40
# The most embedding values gathered per side in one block of pairs of
# `score_trials`, `within_identity_angles` and `centroid_angle_matrix`.
PAIR_BLOCK = 2**20


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
    RAW_CHUNK_WORDS, are read ahead.  `draw.ahead(count)` gives the next
    `count` words as an array, reading as far as they need, and
    `draw.skip(count)` takes them as drawn.  On exit the unread outputs are
    rewound with `advance` and a pending high word is put back, so that the
    generator's next draw is the one numpy would make next.  r must be below
    2³² − 1.
    """
    bits = rng.bit_generator
    state = bits.state
    entry = state["uinteger"]
    buf = np.array([entry] if state["has_uint32"] else [], dtype="<u4")
    words = buf.tolist()  # `buf` as a list for `draw`, () after `ahead` grew it
    pos, size = 0, 32

    def draw(r):
        nonlocal buf, words, pos, size
        if not r:
            return 0
        bound = r + 1
        while True:
            if pos >= len(words):
                if pos == len(buf):
                    size = min(2 * size, RAW_CHUNK_WORDS)
                    buf = bits.random_raw(size // 2).astype("<u8", copy=False).view("<u4")
                    pos = 0
                words = buf.tolist()
            m = words[pos] * bound
            pos += 1
            low = m & _LOW_WORD
            # The threshold is below r + 1, so most words pass the first test.
            if low >= bound or low >= (_LOW_WORD - r) % bound:
                return m >> 32

    def ahead(count):
        nonlocal buf, words, pos
        missing = count - (len(buf) - pos)
        if missing > 0:
            keep = max(pos - 1, 0)  # the last word drawn, for the rewind
            raw = bits.random_raw((missing + 1) // 2).astype("<u8", copy=False)
            buf = np.concatenate([buf[keep:], raw.view("<u4")])
            pos -= keep
            words = ()
        return buf[pos:pos + count]

    def skip(count):
        nonlocal pos
        pos += count

    draw.ahead, draw.skip = ahead, skip
    try:
        yield draw
    finally:
        unread = len(buf) - pos
        if unread > 1:
            bits.advance(-(unread // 2))
        state = bits.state
        if unread % 2:
            state["has_uint32"], state["uinteger"] = 1, int(buf[pos])
        else:
            state["has_uint32"], state["uinteger"] = 0, int(buf[pos - 1]) if pos else entry
        bits.state = state


def _reject_below(bounds):
    """Lemire's threshold for each bound b = r + 1, as uint64: a word w is
    redrawn when (w·b) mod 2³² is below (2³² − b) mod b.  A draw of [0, 0]
    takes no word; its threshold 2³² marks every word, so that an attempt
    with such a draw is irregular."""
    bounds = np.asarray(bounds, dtype=np.int64)
    return np.where(bounds > 1, (2**32 - bounds) % bounds, 2**32).astype(np.uint64)


def _lemire(words, bounds, reject_below):
    """Lemire's rule on many words at once: the value of each word's draw
    of [0, bound − 1], and whether the word is redrawn instead."""
    m = words * bounds
    return m >> 32, (m & _LOW_WORD) < reject_below


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


def _nontargets(rng, order, bounds, n_negative):
    """(left, right): the first `n_negative` distinct nontarget pairs that
    the per-attempt draws of `build_trials` give, and the generator left
    where those draws leave it.

    A regular attempt takes `_ATTEMPT_WORDS` words, so a chunk of attempts
    is drawn as array operations on words read ahead: Lemire's rule,
    Floyd's repeat replacement and the swap, then each side's sample.  The
    chunk is cut at its first irregular attempt, one with a redrawn word or
    a draw of [0, 0] (two identities, or a one-sample identity), which takes
    no word; that attempt is made by `draw`, and the next chunk starts after
    it.  After a cut, a chunk holds at most twice the regular attempts of
    the last one, plus one; the limit doubles back after a chunk that is not
    cut.  Within that limit a chunk holds the attempts that the missing
    nontargets are expected to take at the last chunk's rate of new pairs,
    twice the last estimate after a chunk without one; the attempts after
    the one that completes the request are read but not made.  When
    irregular attempts are common (see _REGULAR_RUN), every attempt is made
    by `draw`.
    """
    sizes = np.diff(bounds)
    n, last = len(order), len(sizes) - 1
    groups = [order[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]
    tops = (sizes - 1).tolist()
    # Floyd's draws of [0, K - 2] and [0, K - 1], then the swap draw of [0, 1].
    head_bounds = np.array([last, last + 1, 2], dtype=np.uint64)
    head_reject = _reject_below(head_bounds)
    side_bounds, side_reject = sizes.astype(np.uint64), _reject_below(sizes)
    starts = bounds[:-1].astype(np.uint64)
    cap = max(1, RAW_CHUNK_WORDS // _ATTEMPT_WORDS)
    # Of the K(K - 1) ordered identity pairs, equally likely, those of two
    # identities with two samples or more give regular attempts (a word is
    # redrawn less often than once in 2³²/K).  With two identities, Floyd's
    # first draw takes no word.
    multi = int(np.count_nonzero(sizes > 1))
    regular, pairs = multi * (multi - 1), (last + 1) * last
    run = cap if last > 1 and regular > _REGULAR_RUN * (pairs - regular) else 0
    need = n_negative  # the attempts the missing nontargets are expected to take
    max_attempts = NONTARGET_ATTEMPTS * max(n_negative, 1)
    attempts = 0
    seen = {}  # key left·n + right of each nontarget drawn so far, in draw order
    with _raw_draws(rng) as draw:
        while len(seen) < n_negative:
            count = run and min(run, need, max_attempts - attempts)
            if count:
                words = draw.ahead(_ATTEMPT_WORDS * count).reshape(count, _ATTEMPT_WORDS)
                values, rejected = _lemire(words[:, :3], head_bounds, head_reject)
                irregular = rejected.any(axis=1)
                i1, i2, swap = values.T
                i2[i2 == i1] = last
                sides = np.where(swap == 0, [i2, i1], [i1, i2])
                samples, rejected = _lemire(words[:, 3:].T, side_bounds[sides],
                                            side_reject[sides])
                irregular |= rejected.any(axis=0)
                rows = order[starts[sides] + samples]
                cut = np.flatnonzero(irregular)
                used = int(cut[0]) if cut.size else count
                keys = (rows[0, :used] * n + rows[1, :used]).tolist()
                before = len(seen)
                seen.update(dict.fromkeys(keys))
                if len(seen) >= n_negative:
                    # The request is complete at the attempt that drew its
                    # last nontarget, and the later attempts are not made.
                    while len(seen) > n_negative:
                        seen.popitem()
                    used = keys.index(next(reversed(seen))) + 1
                attempts += used
                draw.skip(_ATTEMPT_WORDS * used)
                new = len(seen) - before
                need = (n_negative - len(seen)) * used // new + 1 if new else 2 * need
                if used == count or len(seen) == n_negative:
                    run = min(cap, 2 * run)
                    continue
                run = min(cap, 2 * used + 1)
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
            seen[groups[i1][draw(tops[i1])] * n + groups[i2][draw(tops[i2])]] = None
    return np.divmod(np.fromiter(seen, dtype=np.intp, count=len(seen)), n)


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

    left, right = _nontargets(rng, order, bounds, n_negative)
    labels = np.zeros(n_positive + n_negative, dtype=bool)
    labels[:n_positive] = True
    return (np.concatenate([order[first], left]),
            np.concatenate([order[second], right]), labels)


def build_trials(samples, mode, n_positive, n_negative, seed):
    """Balanced-by-construction verification pairs, deterministic per seed.

    Targets are `rng.choice` indices into every within-identity pair, listed
    identity by identity in `np.triu_indices` order; each index is mapped to
    its pair without listing the others.  Each nontarget draws two distinct
    identities as `rng.choice(..., size=2, replace=False)` does, then a
    sample of each as `rng.integers(len(group))` does, which picks the value
    and advances the generator exactly as `rng.choice(group)` does; a pair
    drawn before is rejected and drawn anew.  The nontarget draws are read
    from the generator's raw stream (`_raw_draws`) and made in chunks of
    attempts (`_nontargets`), and the generator is left where those numpy
    calls would leave it.
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
    validation logits are 0 in `arcmargin.plain_cosine_logits`.  The trials
    are gathered and scored in blocks of at most PAIR_BLOCK values per side."""
    left, right = (embedded[exposure] for exposure in trials.exposures)
    keep = np.flatnonzero(left.any(axis=1)[trials.left] & right.any(axis=1)[trials.right])
    scores = np.zeros(trials.left.size)
    step = max(1, PAIR_BLOCK // max(1, left.shape[1]))
    for rows in (keep[start:start + step] for start in range(0, keep.size, step)):
        scores[rows] = row_cosines(left[trials.left[rows]], right[trials.right[rows]])
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


def _pair_angles(left, right):
    """(angles, has_angle): the angle in degrees between each pair of rows.
    A pair with an exactly zero row has no angle, and its entry is 0."""
    keep = left.any(axis=1) & right.any(axis=1)
    angles = np.zeros(keep.size)
    angles[keep] = np.degrees(np.arccos(row_cosines(left[keep], right[keep])))
    return angles, keep


def _angle_report(family, identities, bounds, angles, keep):
    """Identity k owns the pairs bounds[k]:bounds[k + 1]; a pair without an
    angle is skipped and counted as a warning."""
    kept = angles[keep].tolist()
    ends = np.concatenate(([0], np.cumsum(keep)))[bounds].tolist()  # kept before each bound
    return AngleReport(family, dict(zip(identities, map(
        kept.__getitem__, map(slice, ends[:-1], ends[1:])))), int(keep.size - keep.sum()))


def audio_video_angles(embedded, labels):
    """Per-sample angle between the audio-only and video-only embeddings."""
    if len(labels) == 0:
        raise DegenerateInputError("no samples")
    identities, order, bounds = group_rows(labels)
    return _angle_report("audio_video", identities, bounds,
                         *_pair_angles(embedded["a"][order], embedded["v"][order]))


def within_identity_angles(embedded, labels, modality):
    """All unordered within-identity pairs of single-modality embeddings,
    gathered in blocks of at most PAIR_BLOCK values per side."""
    exposure = _exposure(modality)
    identities, order, bounds = group_rows(labels)
    sizes = np.diff(bounds)
    if not (sizes >= 2).any():
        raise DegenerateInputError("no identity has two samples")
    pair_bounds = np.concatenate(([0], np.cumsum(sizes * (sizes - 1) // 2)))
    emb = embedded[exposure]
    total = pair_bounds[-1]
    angles, keep = np.zeros(total), np.zeros(total, dtype=bool)
    step = max(1, PAIR_BLOCK // max(1, emb.shape[1]))
    for start in range(0, total, step):
        block = slice(start, min(start + step, total))
        first, second = _pairs(bounds, np.arange(block.start, block.stop))
        angles[block], keep[block] = _pair_angles(emb[order[first]], emb[order[second]])
    return _angle_report(f"within_identity_{modality}", identities, pair_bounds,
                         angles, keep)


def centroid_angle_matrix(embedded, labels, modality):
    """Pairwise angles between per-identity centroid embeddings.

    Returns (identities, matrix, n_skipped); identities with an exactly zero
    centroid are dropped from the matrix and counted.  The centroids of one
    identity size are one mean over a (count, size, d) block, and the
    matrix is filled a block of rows at a time, at most PAIR_BLOCK values
    per side.
    """
    exposure = _exposure(modality)
    identities, order, bounds = group_rows(labels)
    if len(identities) < 2:
        raise DegenerateInputError("need at least 2 identities")
    emb = embedded[exposure]
    d = emb.shape[1]
    sizes = np.diff(bounds)
    centroids = np.empty((len(identities), d))
    for m in np.unique(sizes):
        of_size = np.flatnonzero(sizes == m)
        rows = order[(bounds[of_size, None] + np.arange(m)).ravel()]
        centroids[of_size] = emb[rows].reshape(-1, m, d).mean(axis=1)
    nonzero = centroids.any(axis=1)
    kept = [identity for identity, keep in zip(identities, nonzero) if keep]
    k = len(kept)
    matrix = np.zeros((k, k))
    if k < 2:  # no pair: a NaN centroid meets no cosine
        return kept, matrix, len(identities) - k
    centroids, norms = scaled_norms(centroids[nonzero])  # each centroid's once
    step = max(1, PAIR_BLOCK // max(1, k * d))
    for start in range(0, k, step):
        upper = np.arange(k) > np.arange(start, min(start + step, k))[:, None]
        first, second = np.nonzero(upper)
        first += start
        angles = np.degrees(np.arccos(normed_cosines(centroids[first], norms[first],
                                                     centroids[second], norms[second])))
        matrix[first, second] = angles
        matrix[second, first] = angles
    return kept, matrix, len(identities) - k


def silhouette_score(embeddings, labels, distance="cosine"):
    """Mean silhouette s(i) = (b - a)/max(a, b) over all points, under the
    cosine distance 1 - cos (an exactly zero row is at distance 1 from every
    row); `distance` must be "cosine".  Singleton clusters contribute 0, as
    does a row whose a and b are both at most SILHOUETTE_NOISE.

    For unit rows u the mean distance from row i to cluster C is
    1 - u_i·S_C/|C|, S_C the sum of C's rows, and to the rest of its own
    cluster 1 - (u_i·S_C - u_i·u_i)/(|C| - 1); each is clamped at 0.  The
    rows are taken in blocks of at most SILHOUETTE_BLOCK products with the
    K cluster sums, so the time is O(n·K·d).
    """
    if distance != "cosine":
        raise ConfigurationError(f"unknown distance {distance!r}")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise ConfigurationError("embeddings and labels must align")
    _, order, bounds = group_rows(labels)
    k = len(bounds) - 1
    if k < 2:
        raise DegenerateInputError("silhouette needs at least 2 clusters")
    if not np.isfinite(embeddings).all():
        raise DegenerateInputError("silhouette of NaN or Inf embeddings")
    norms = np.linalg.norm(embeddings, axis=1)
    norms[~embeddings.any(axis=1)] = 1.0
    embeddings, norms = rescale_underflowing(embeddings, norms)
    unit = embeddings / norms[:, None]
    sizes = np.diff(bounds)
    sums = np.add.reduceat(unit[order], bounds[:-1], axis=0)
    cluster = np.empty(n, dtype=np.intp)
    cluster[order] = np.repeat(np.arange(k), sizes)
    size = sizes[cluster]
    own = np.zeros(n)  # mean cosine with the rest of its own cluster
    nearest = np.empty(n)  # greatest mean cosine with another cluster
    step = max(1, SILHOUETTE_BLOCK // k)
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        rows = np.arange(block.stop - start)
        dots = unit[block] @ sums.T
        rest = dots[rows, cluster[block]] - np.vecdot(unit[block], unit[block])
        np.divide(rest, size[block] - 1, out=own[block], where=size[block] > 1)
        np.divide(dots, sizes, out=dots)
        dots[rows, cluster[block]] = -np.inf
        dots.max(axis=1, out=nearest[block])
    # 1 - x rounds monotonically, so 1 - max(x) is the least of the 1 - x.
    own = np.maximum(1.0 - own, 0.0)
    nearest = np.maximum(1.0 - nearest, 0.0)
    denom = np.maximum(own, nearest)
    scored = (size > 1) & (denom > SILHOUETTE_NOISE)
    return float(np.divide(nearest - own, denom, out=np.zeros(n), where=scored).mean())


def boxplot_stats(values, bounds=None):
    """Quartiles by linear interpolation with Tukey whiskers clamped to data.

    With `bounds` (0 first, the value count last), the stats of each segment
    values[bounds[k]:bounds[k + 1]] from one sort: each field is an array
    over the segments (NaN for an empty one), and `outliers` is (every
    segment's outliers in turn, their bounds).  The quartiles are
    `np.percentile`'s; a NaN value makes them, min and max NaN."""
    values = np.asarray(values, dtype=np.float64).ravel()
    whole = bounds is None
    if whole and values.size == 0:
        raise DegenerateInputError("boxplot of an empty sequence")
    bounds = np.asarray([0, values.size] if whole else bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    segment = np.repeat(np.arange(sizes.size), sizes)
    # Ranks (NaN sorts last) offset by n·segment, sorted: each segment in place.
    by_value = np.argsort(values)
    keys = segment * values.size
    keys[by_value] += np.arange(values.size)
    keys.sort()
    keys -= segment * values.size
    ordered = np.append(values[by_value[keys]], np.nan)
    start, n = bounds[:-1], np.maximum(sizes, 1)
    last = ordered[start + n - 1]
    with np.errstate(invalid="ignore", over="ignore"):  # as Python floats, silently
        position = (n - 1) * np.array([[0.25], [0.5], [0.75]])
        below = position.astype(np.intp)
        # At the end of a one-value segment, the weight numpy gives it.
        t = np.where(position >= n - 1, position + 1, position - below)
        a, b = ordered[start + below], ordered[start + np.minimum(below + 1, n - 1)]
        d = b - a
        quartiles = np.where(t >= 0.5, b - d * (1.0 - t), a + d * t)
        quartiles[:, np.isnan(last)] = np.nan
        q1, median, q3 = quartiles
        iqr = q3 - q1
        low, high = (q1 - 1.5 * iqr)[segment], (q3 + 1.5 * iqr)[segment]
    under, over = ordered[:-1] < low, ordered[:-1] > high  # False at a NaN fence
    lo = np.bincount(segment[under], minlength=sizes.size)
    hi = sizes - np.bincount(segment[over], minlength=sizes.size)
    inside = (lo < hi) & ~np.isnan(iqr)
    columns = np.array([np.where(np.isnan(last), np.nan, ordered[start]), q1, median, q3,
                        last, np.where(inside, ordered[start + lo], q1),
                        np.where(inside, ordered[start + hi - 1], q3)])
    columns[:, sizes == 0] = np.nan
    outliers = ordered[:-1][under | over]
    if whole:
        return BoxplotStats(*columns[:, 0].tolist(), tuple(outliers.tolist()))
    counts = np.bincount(segment[under | over], minlength=sizes.size)
    return BoxplotStats(*columns, (outliers, np.concatenate(([0], np.cumsum(counts)))))


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
