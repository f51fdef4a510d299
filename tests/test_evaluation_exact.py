"""The vectorised evaluation against its per-pair loop references.

Every comparison is exact (`==`): reports store angles and silhouettes at
full precision, so a difference in the last bit changes output bytes.  The
loop references (`conftest.loop_*`) take a head and samples; `TableHead`
turns drawn matrices into the embeddings both versions see.
"""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avfusion import evaluation
from avfusion.data import Sample, SampleSet, group_rows
from avfusion.errors import ConfigurationError, DegenerateInputError
from avfusion.evaluation import (
    _MODE_TAGS,
    MODALITY_MODES,
    Trial,
    _raw_draws,
    audio_video_angles,
    boxplot_stats,
    build_mode_trials,
    build_trials,
    centroid_angle_matrix,
    compute_eer,
    embed_samples,
    score_trials,
    TrialConfig,
    silhouette_score,
    within_identity_angles,
)

from conftest import (
    loop_audio_video_angles,
    loop_boxplot_stats,
    loop_build_trials,
    loop_centroid_angle_matrix,
    loop_compute_eer,
    loop_score_trials,
    loop_silhouette_score,
    loop_within_identity_angles,
    small_dataset,
    trial_arrays,
)

EXACT = settings(max_examples=150, deadline=None)
# Few distinct values, so that ties, zero rows, coincident and parallel
# embeddings are common, plus arbitrary finite floats.
ELEMENTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


class TableHead:
    """A head whose embeddings are its inputs: the audio row alone, the video
    row alone, and their sum when both are present."""

    def embed(self, audio, video):
        if audio is None:
            return video
        if video is None:
            return audio
        return audio + video


def outcome(fn, *args):
    """The result of fn(*args), or DegenerateInputError when it raises one."""
    try:
        return fn(*args)
    except DegenerateInputError:
        return DegenerateInputError


@st.composite
def tables(draw, nan=False):
    """Samples of 2-5 identities whose audio and video rows are the drawn
    embeddings, in a shuffled sample order.  Options drawn with them: video
    rows exactly parallel to the audio rows, zero rows, an identity whose
    rows cancel (zero centroid) and, with nan=True, a NaN entry."""
    d = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    n = sum(sizes)
    audio = draw(hnp.arrays(np.float64, (n, d), elements=ELEMENTS))
    video = draw(hnp.arrays(np.float64, (n, d), elements=ELEMENTS))
    scale = draw(st.sampled_from([None, 1.0, 2.5, -1.0]))
    if scale is not None:
        video = scale * audio
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        (audio if draw(st.booleans()) else video)[row] = 0.0
    if sizes[0] >= 2 and draw(st.booleans()):
        audio[1] = -audio[0]  # identity id0's first two rows cancel
        audio[2 : sizes[0]] = 0.0
    if nan and draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        (audio if draw(st.booleans()) else video)[row, 0] = np.nan
    ids = [f"id{k}" for k, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(n)))
    return [Sample(ids[i], f"s{i}", audio[i], video[i]) for i in order]


def embedded(samples):
    return {exp: embed_samples(TableHead(), samples, exp) for exp in ("av", "a", "v")}


def underflowing(*matrices):
    """Whether a nonzero row's norm underflows to 0 (every entry below about
    1e-154 in magnitude).  The silhouette scales such a row and keeps its
    direction; its loop reference normalises rows itself and refuses it, so
    a comparison with it leaves it out."""
    return any((rows.any(axis=1) & (np.sqrt(np.vecdot(rows, rows)) == 0.0)).any()
               for rows in matrices)


def scaled_samples():
    """Three identities of three samples each, with the audio rows of
    samples 0, 6, 7 and 8 (so also identity id2's audio centroid) and the
    video rows of samples 1 and 8 scaled by 1e-200: their norms underflow."""
    rng = np.random.default_rng(7)
    audio, video = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
    audio[[0, 6, 7, 8]] *= 1e-200
    video[[1, 8]] *= 1e-200
    return [Sample(f"id{i // 3}", f"s{i}", audio[i], video[i]) for i in range(9)]


def identities(samples):
    return [s.identity_id for s in samples]


class TestScoreTrials:
    @EXACT
    @given(tables(nan=True), st.sampled_from(list(MODALITY_MODES)), st.data())
    def test_matches_loop(self, samples, mode, data):
        left_exp, right_exp = MODALITY_MODES[mode]
        index = st.integers(0, len(samples) - 1)
        trials = [
            Trial(a, b, left_exp, right_exp, label)
            for a, b, label in data.draw(st.lists(st.tuples(index, index, st.booleans()),
                                                  max_size=20))
        ]
        expected = outcome(loop_score_trials, TableHead(), trials, samples)
        got = outcome(score_trials, embedded(samples), trial_arrays(mode, trials))
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert np.array_equal(got, expected)

    def test_underflowing_rows_match_loop(self):
        samples = scaled_samples()
        pairs = [(a, b) for a in range(9) for b in range(9)]
        for mode, (left_exp, right_exp) in MODALITY_MODES.items():
            trials = [Trial(a, b, left_exp, right_exp, a // 3 == b // 3) for a, b in pairs]
            got = score_trials(embedded(samples), trial_arrays(mode, trials))
            assert np.array_equal(got, loop_score_trials(TableHead(), trials, samples))

    def test_parallel_embeddings_clamp_to_one(self):
        rng = np.random.default_rng(0)
        audio = rng.normal(size=(50, 8))
        samples = [Sample("id0", f"s{i}", a, 3.0 * a) for i, a in enumerate(audio)]
        trials = [Trial(i, i, "a", "v", True) for i in range(50)]
        got = score_trials(embedded(samples), trial_arrays("AxV", trials))
        assert np.array_equal(got, loop_score_trials(TableHead(), trials, samples))
        assert (got == 1.0).any()

    def test_zero_embedding_scores_zero(self):
        samples = [Sample("id0", "s0", np.array([3.0, 4.0]), np.array([1.0, 0.0])),
                   Sample("id1", "s1", np.array([0.0, 0.0]), np.array([-1.0, 1.0]))]
        trials = [Trial(a, b, "a", "a", a == b) for a, b in ((0, 1), (1, 1), (1, 0), (0, 0))]
        got = score_trials(embedded(samples), trial_arrays("AxA", trials))
        assert np.array_equal(got, loop_score_trials(TableHead(), trials, samples))
        assert [float.hex(x) for x in got] == [float.hex(0.0)] * 3 + [float.hex(1.0)]

    # A zero row alone is scored (above); a NaN or Inf one is refused.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_zero_and_non_finite_embeddings_rejected(self, bad):
        samples = [Sample("id0", "s0", np.array([1.0, 2.0]), np.array([1.0, 0.0])),
                   Sample("id1", "s1", np.array([bad, bad]), np.array([0.0, 1.0]))]
        trials = [Trial(0, 1, "a", "a", False)]
        with pytest.raises(DegenerateInputError):
            loop_score_trials(TableHead(), trials, samples)
        with pytest.raises(DegenerateInputError):
            score_trials(embedded(samples), trial_arrays("AxA", trials))


class TestComputeEer:
    @EXACT
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.1, 0.2, 0.5, 0.9]),
                                         st.floats(-1.0, 1.0)),
                              st.booleans()), min_size=1, max_size=60))
    @example([(0.5, True), (0.5, False), (0.5, True), (0.2, False)])  # ties
    @example([(0.3, True), (0.3, False), (0.3, False)])  # all scores equal
    @example([(0.9, True), (0.1, False), (0.4, False), (0.95, False)])  # one target
    @example([(0.2, True), (0.1, True)])  # one class only
    def test_matches_loop(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [label for _, label in pairs]
        assert outcome(compute_eer, scores, labels) == outcome(
            loop_compute_eer, scores, labels)

    def test_nan_score_rejected(self):
        with pytest.raises(DegenerateInputError):
            compute_eer([0.1, np.nan, 0.3], [True, False, False])

    def test_scales_with_sorting(self):
        # A sweep that rescans every score per threshold, O(T * U), took
        # 0.88 s at 20k distinct scores and grows with the square.
        rng = np.random.default_rng(0)
        scores = rng.permutation(200_000) / 200_000.0
        labels = rng.random(200_000) < 0.5
        start = time.perf_counter()
        result = compute_eer(scores, labels)
        assert time.perf_counter() - start < 2.0
        assert 0.45 < result.eer < 0.55


class TestAngleFamilies:
    @EXACT
    @given(tables(nan=True))
    def test_audio_video_matches_loop(self, samples):
        assert outcome(audio_video_angles, embedded(samples), identities(samples)) == (
            outcome(loop_audio_video_angles, TableHead(), samples))

    @EXACT
    @given(tables(nan=True), st.sampled_from(["audio", "video"]))
    def test_within_identity_matches_loop(self, samples, modality):
        got = outcome(within_identity_angles, embedded(samples), identities(samples),
                      modality)
        assert got == outcome(loop_within_identity_angles, TableHead(), samples, modality)

    @EXACT
    @given(tables(nan=True), st.sampled_from(["audio", "video"]))
    def test_centroid_matrix_matches_loop(self, samples, modality):
        got = outcome(centroid_angle_matrix, embedded(samples), identities(samples),
                      modality)
        expected = outcome(loop_centroid_angle_matrix, TableHead(), samples, modality)
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert got[0] == expected[0] and got[2] == expected[2]
            assert np.array_equal(got[1], expected[1])

    def test_audio_video_underflowing_rows_match_loop(self):
        samples = scaled_samples()
        assert audio_video_angles(embedded(samples), identities(samples)) == (
            loop_audio_video_angles(TableHead(), samples))

    @pytest.mark.parametrize("modality", ["audio", "video"])
    def test_within_identity_underflowing_rows_match_loop(self, modality):
        samples = scaled_samples()
        assert within_identity_angles(embedded(samples), identities(samples), modality) == (
            loop_within_identity_angles(TableHead(), samples, modality))

    def test_centroid_matrix_underflowing_rows_match_loop(self):
        samples = scaled_samples()
        got = centroid_angle_matrix(embedded(samples), identities(samples), "audio")
        expected = loop_centroid_angle_matrix(TableHead(), samples, "audio")
        assert got[0] == expected[0] == ["id0", "id1", "id2"] and got[2] == expected[2]
        assert np.array_equal(got[1], expected[1])

    def test_zero_rows_and_centroids_counted(self):
        samples = [
            Sample("id0", "s0", np.array([1.0, 0.0]), np.array([0.0, 0.0])),
            Sample("id0", "s1", np.array([-1.0, 0.0]), np.array([1.0, 1.0])),
            Sample("id1", "s2", np.array([0.0, 2.0]), np.array([1.0, 0.0])),
            Sample("id1", "s3", np.array([0.0, 0.0]), np.array([2.0, 0.0])),
            Sample("id2", "s4", np.array([1.0, 1.0]), np.array([3.0, 1.0])),
        ]
        emb, ids = embedded(samples), identities(samples)
        assert audio_video_angles(emb, ids).warnings == 2
        assert within_identity_angles(emb, ids, "audio").warnings == 1
        kept, matrix, skipped = centroid_angle_matrix(emb, ids, "audio")
        assert (kept, skipped, matrix.shape) == (["id1", "id2"], 1, (2, 2))
        for modality in ("audio", "video"):
            assert within_identity_angles(emb, ids, modality) == (
                loop_within_identity_angles(TableHead(), samples, modality))


class TestSilhouette:
    @EXACT
    @given(tables())
    def test_matches_loop(self, samples):
        emb = np.array([s.audio for s in samples])
        labels = identities(samples)
        assume(not underflowing(emb))
        assert outcome(silhouette_score, emb, labels, "cosine") == outcome(
            loop_silhouette_score, emb, labels, "cosine")

    @EXACT
    @given(st.integers(2, 60), st.integers(1, 6), st.integers(2, 8), st.data())
    def test_random_clusters_match_loop(self, n, d, k, data):
        emb = data.draw(hnp.arrays(np.float64, (n, d), elements=ELEMENTS))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        assume(not underflowing(emb))
        assert outcome(silhouette_score, emb, labels, "cosine") == outcome(
            loop_silhouette_score, emb, labels, "cosine")

    def test_larger_sample_matches_loop(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(300, 8))
        labels = rng.integers(0, 12, size=300)
        assert silhouette_score(emb, labels, "cosine") == loop_silhouette_score(
            emb, labels, "cosine")

    def test_coincident_points_and_singletons(self):
        emb = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0]])
        labels = [0, 0, 1, 1, 2]
        assert silhouette_score(emb, labels, "cosine") == loop_silhouette_score(
            emb, labels, "cosine")

    def test_zero_row_is_at_distance_one(self):
        # Rows 0 and 1 are at distance 1 from every row (s = 0); rows 2 and 3
        # coincide and are at distance 1 from the other cluster (s = 1).
        emb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        labels = [0, 0, 1, 1]
        assert silhouette_score(emb, labels) == loop_silhouette_score(emb, labels) == 0.5

    def test_non_finite_rejected(self):
        emb = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            silhouette_score(emb, [0, 0, 1], "cosine")

    @EXACT
    @given(st.integers(4, 60), st.integers(2, 8), st.integers(2, 12), st.integers(1, 400),
           st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_row_blocks_match_loop(self, n, d, k, block, seed, zero, data):
        """Blocks of 1-400 distances, from one row per block to one block,
        over clusters of several sizes and singletons, in random directions
        with two coincident rows and, if `zero`, a zero row.  No row sees
        only rounding noise (as three coincident rows split two and one
        would): blocks round that noise otherwise than the whole matrix."""
        emb = np.random.default_rng(seed).normal(size=(n, d))
        emb[2] = emb[1]
        if zero:
            emb[0] = 0.0
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        expected = outcome(loop_silhouette_score, emb, labels, "cosine")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "SILHOUETTE_BLOCK", block)
            got = outcome(silhouette_score, emb, labels, "cosine")
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert got == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 5, 7, 64, 290])
    def test_blocks_split_clusters(self, rows_per_block):
        # 291 rows in clusters of 1 to 9 rows, shuffled, so that most blocks
        # end inside a cluster; one zero row and four coincident ones.
        rng = np.random.default_rng(3)
        labels = rng.permutation(np.repeat(np.arange(60), np.arange(60) % 9 + 1))
        emb = rng.normal(size=(labels.size, 6))
        emb[10] = 0.0
        emb[[20, 30, 40]] = emb[50]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "SILHOUETTE_BLOCK", labels.size * rows_per_block)
            got = silhouette_score(emb, labels, "cosine")
        assert got == pytest.approx(loop_silhouette_score(emb, labels, "cosine"),
                                    rel=0, abs=1e-12)

    def test_memory_bounded_by_block(self):
        # The whole 8,000 x 8,000 distance matrix would take 488 MiB.
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(8000, 8))
        labels = rng.integers(0, 50, size=8000)
        tracemalloc.start()
        try:
            score = silhouette_score(emb, labels, "cosine")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert -1.0 <= score <= 1.0

    def test_scales_with_cluster_slices(self):
        # The parent's per-sample loop took 1.42 s at n = 1600.
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(3000, 8))
        labels = rng.integers(0, 50, size=3000)
        start = time.perf_counter()
        score = silhouette_score(emb, labels, "cosine")
        assert time.perf_counter() - start < 2.0
        assert -1.0 <= score <= 1.0


@st.composite
def labelled_samples(draw):
    """Samples of 0-8 identities of 1-6 samples each, in a shuffled order;
    only the identities matter to the trial sampler."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=8))
    ids = [f"id{k}" for k, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(ids))))
    return [Sample(ids[i], f"s{i}", np.zeros(1), np.zeros(1)) for i in order]


def trials_and_next_draw(build, *args):
    """(the trials or the ConfigurationError message, the next `random()` of
    the generator the call drew from, or None when it made none)."""
    created = []
    default_rng = np.random.default_rng

    def recording(*rng_args):
        created.append(default_rng(*rng_args))
        return created[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        try:
            result = build(*args)
        except ConfigurationError as exc:
            result = str(exc)
    return result, created[-1].random() if created else None


class TestBuildTrials:
    @EXACT
    @given(labelled_samples(), st.sampled_from([*MODALITY_MODES, "XxX"]),
           st.integers(0, 40), st.integers(0, 40), st.integers(0, 10**6))
    @example([Sample(f"id{i % 2}", f"s{i}", np.zeros(1), np.zeros(1)) for i in range(2)],
             "AxV", 3, 2, 0)  # singletons: no targets
    @example([Sample(f"id{i % 3}", f"s{i}", np.zeros(1), np.zeros(1)) for i in range(9)],
             "AVxAV", 40, 40, 7)  # targets drawn with replacement
    @example([Sample(f"id{i % 2}", f"s{i}", np.zeros(1), np.zeros(1)) for i in range(4)],
             "VxV", 1, 8, 3)  # every cross-identity pair drawn
    def test_matches_loop(self, samples, mode, n_positive, n_negative, seed):
        """Same Trial list or error, and the generator left at the same draw."""
        args = (samples, mode, n_positive, n_negative, seed)
        assert trials_and_next_draw(build_trials, *args) == \
            trials_and_next_draw(loop_build_trials, *args)

    def test_matches_loop_at_desk_size(self):
        samples = small_dataset(n_identities=50, samples_per_identity=8)
        for mode in MODALITY_MODES:
            args = (samples, mode, 500, 500, 0)
            assert trials_and_next_draw(build_trials, *args) == \
                trials_and_next_draw(loop_build_trials, *args)


def grouped_samples(sizes, order):
    """Samples of identities id0, id1, ... of the given sizes, in the sample
    order `order`; only the identities matter to the trial sampler."""
    ids = [f"id{k}" for k, size in enumerate(sizes) for _ in range(size)]
    return [Sample(ids[i], f"s{i}", np.zeros(1), np.zeros(1)) for i in order]


@st.composite
def sized_samples(draw, sizes):
    sizes = draw(sizes)
    return grouped_samples(sizes, draw(st.permutations(range(sum(sizes)))))


def assert_matches_loop(samples, mode, n_positive, n_negative, seed):
    args = (samples, mode, n_positive, n_negative, seed)
    assert trials_and_next_draw(build_trials, *args) == \
        trials_and_next_draw(loop_build_trials, *args)


def trial_generator(mode, seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 300, _MODE_TAGS[mode]]))


MODES = st.sampled_from(list(MODALITY_MODES))
SEEDS = st.integers(0, 2**32 - 1)


class TestRawDraws:
    """Each branch of the raw-stream reader, against the numpy calls it
    stands for: the trials, and the generator's next draw after them."""

    @EXACT
    @given(sized_samples(st.lists(st.integers(2, 4), min_size=2, max_size=5)), MODES,
           st.integers(0, 20), st.integers(1, 30), SEEDS)
    def test_pending_word_at_entry(self, samples, mode, k, n_negative, seed):
        """Targets drawn with replacement, an odd number of one-word draws,
        leave the high half of a 64-bit output for the nontargets' first."""
        _, _, bounds = group_rows([s.identity_id for s in samples])
        sizes = np.diff(bounds)
        n_pairs = int(np.sum(sizes * (sizes - 1) // 2))
        n_positive = n_pairs + 1 + (n_pairs % 2) + 2 * k  # odd, above n_pairs
        rng = trial_generator(mode, seed)
        rng.choice(n_pairs, size=n_positive, replace=True)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_matches_loop(samples, mode, n_positive, min(n_negative, 8), seed)

    @EXACT
    @given(sized_samples(st.lists(st.integers(1, 6), min_size=2, max_size=2)), MODES,
           st.integers(0, 10), st.integers(0, 40), SEEDS)
    def test_two_identities(self, samples, mode, n_positive, n_negative, seed):
        """Floyd's first draw, of [0, 0], takes no word."""
        n_cross = 2 * sum(1 for s in samples if s.identity_id == "id0") * \
            sum(1 for s in samples if s.identity_id == "id1")
        n_positive = n_positive if len(samples) > 2 else 0
        assert_matches_loop(samples, mode, n_positive, min(n_negative, n_cross), seed)

    @EXACT
    @given(sized_samples(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=2, max_size=8)),
           MODES, st.integers(0, 10), st.integers(0, 40), SEEDS)
    def test_one_sample_identities(self, samples, mode, n_positive, n_negative, seed):
        """A sample draw from a one-sample identity, of [0, 0], takes no word."""
        ids = [s.identity_id for s in samples]
        if all(ids.count(i) == 1 for i in ids):
            n_positive = 0
        n_cross = len(ids) ** 2 - sum(ids.count(i) for i in ids)
        assert_matches_loop(samples, mode, n_positive, min(n_negative, n_cross), seed)

    @EXACT
    @given(sized_samples(st.lists(st.integers(1, 5), min_size=3, max_size=8)), MODES,
           st.integers(0, 7), st.integers(20, 60), st.sampled_from([2, 4, 6, 10]), SEEDS)
    def test_chunk_refilled(self, samples, mode, n_positive, n_negative, chunk, seed):
        """Chunks of 2-10 words, refilled many times in one request."""
        ids = [s.identity_id for s in samples]
        n_cross = len(ids) ** 2 - sum(ids.count(i) for i in ids)
        if all(ids.count(i) == 1 for i in ids):
            n_positive = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "RAW_CHUNK_WORDS", chunk)
            assert_matches_loop(samples, mode, n_positive, min(n_negative, n_cross), seed)

    @EXACT
    @given(sized_samples(st.lists(st.integers(1, 5), min_size=2, max_size=6)), MODES,
           st.integers(0, 15), SEEDS)
    def test_no_nontargets(self, samples, mode, n_positive, seed):
        ids = [s.identity_id for s in samples]
        if all(ids.count(i) == 1 for i in ids):
            n_positive = 0
        assert_matches_loop(samples, mode, n_positive, 0, seed)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rejected_words_redrawn(self, pending, seed):
        """At r = 3·2³⁰ Lemire's rule rejects about one word in four: the
        draws and the next draw equal `rng.integers(r + 1)`'s, with a
        pending word at entry or without."""
        r = 3 * 2**30
        ranges = [r, 0, 1, r, 6, r] * 300
        rng, reference, unrejected = (np.random.default_rng(seed) for _ in range(3))
        if pending:
            for g in (rng, reference, unrejected):
                g.integers(5)
        with _raw_draws(rng) as draw:
            got = [draw(k) for k in ranges]
        assert got == [int(reference.integers(k + 1)) for k in ranges]
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random() == reference.random()
        # Without rejections, every draw but those of [0, 0] takes one word.
        for k in ranges:
            if k:
                unrejected.bit_generator.random_raw(0)
        words = sum(1 for k in ranges if k)
        with _raw_draws(unrejected) as draw:
            for _ in range(words):
                draw(1)
        assert unrejected.bit_generator.state != reference.bit_generator.state


class TestTargetPairs:
    @EXACT
    @given(sized_samples(st.lists(st.sampled_from([1, 2, 2, 3, 5]), min_size=2,
                                  max_size=8)),
           MODES, st.integers(1, 40), st.integers(0, 5), SEEDS)
    @example(grouped_samples([1, 2, 1, 2], range(6)), "AxA", 30, 2, 3)  # replacement
    def test_matches_loop(self, samples, mode, n_positive, n_negative, seed):
        """One- and two-sample identities, with and without replacement."""
        ids = [s.identity_id for s in samples]
        n_cross = len(ids) ** 2 - sum(ids.count(i) for i in ids)
        assert_matches_loop(samples, mode, n_positive, min(n_negative, n_cross), seed)

    def test_paper_scale_lists_no_pair(self):
        """1,251 identities of 120 samples hold 8.9 M within-identity pairs;
        500 targets are drawn without listing them."""
        n = 1251 * 120
        ids = [f"id{k:04d}" for k in range(1251) for _ in range(120)]
        samples = SampleSet(np.zeros((n, 1)), np.zeros((n, 1)), ids,
                            list(map(str, range(n))))
        tracemalloc.start()
        try:
            trials = build_trials(samples, "AVxAV", 500, 500, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert all(t.label == (ids[t.left] == ids[t.right]) for t in trials)
        assert sum(t.label for t in trials) == 500


class TestModeTrials:
    def test_index_arrays_equal_build_trials(self):
        samples = small_dataset(n_identities=12, samples_per_identity=5)
        trials = build_mode_trials(samples, TrialConfig(40, 60, 3))
        for mode, arrays in trials.items():
            rows = build_trials(samples, mode, 40, 60, 3)
            assert {(t.left_exposure, t.right_exposure) for t in rows} == {arrays.exposures}
            assert arrays.exposures == MODALITY_MODES[mode]
            assert arrays.left.dtype == arrays.right.dtype == np.intp
            assert arrays.labels.dtype == bool
            assert arrays.left.tolist() == [t.left for t in rows]
            assert arrays.right.tolist() == [t.right for t in rows]
            assert arrays.labels.tolist() == [t.label for t in rows]


class TestIdentitiesTrailingNul:
    """`a` and `a\\x00` are two identities everywhere, as in training."""

    IDS = ["a", "a\x00", "b", "b", "a", "a\x00"]

    def test_groups(self):
        identities, order, bounds = group_rows(self.IDS)
        assert identities == ["a", "a\x00", "b"]
        assert order.tolist() == [0, 4, 1, 5, 2, 3]
        assert bounds.tolist() == [0, 2, 4, 6]

    def test_trials(self):
        samples = [Sample(i, f"s{k}", np.zeros(1), np.zeros(1))
                   for k, i in enumerate(self.IDS)]
        trials = build_trials(samples, "AxA", 3, 20, 0)
        assert all(t.label == (self.IDS[t.left] == self.IDS[t.right]) for t in trials)
        pair = [Sample("a", "s0", np.zeros(1), np.zeros(1)),
                Sample("a\x00", "s1", np.zeros(1), np.zeros(1))]
        assert sorted((t.left, t.right) for t in build_trials(pair, "AxA", 0, 2, 0)) == \
            [(0, 1), (1, 0)]

    def test_angles_and_silhouette(self):
        emb = np.array([[1.0, 0.1], [0.2, 1.0], [1.0, 1.0], [1.0, 0.9], [0.9, 0.0],
                        [0.0, 1.0]])
        codes = [0, 1, 2, 2, 0, 1]
        assert silhouette_score(emb, self.IDS, "cosine") == \
            silhouette_score(emb, codes, "cosine")
        assert silhouette_score(emb, self.IDS, "cosine") != \
            silhouette_score(emb, [0, 0, 2, 2, 0, 0], "cosine")
        report = within_identity_angles({"a": emb}, self.IDS, "audio")
        assert list(report.per_identity) == ["a", "a\x00", "b"]
        assert all(len(angles) == 1 for angles in report.per_identity.values())


# A zero of either sign, ties, outliers, infinities and NaN.
BOX_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 100.0, -3.0]),
    st.floats(),
)


def _unsigned_zeros(stats):
    return re.sub(r"-0\.0(?=[,)])", "0.0", repr(stats))


class TestBoxplotStats:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(BOX_VALUES, min_size=1, max_size=40))
    @example([7.0])
    @example([-0.0])
    @example([np.inf])
    @example([-np.inf, np.inf])
    @example([np.nan, 1.0])
    @example([1.0, 1.0, 1.0, 100.0])
    @example([-1e308, 1e308, 0.0])
    def test_matches_percentile(self, values):
        """Every field equal by repr, so the sign of a zero too.

        Where the values hold both zeros, +0.0 and -0.0, numpy's partition
        and min/max reductions pick one of the two by an order of their own,
        which no sorted-order rule reproduces; there the fields are the same
        numbers, and only the sign of a zero may differ.  The program's
        angles come from arccos and are never -0.0.
        """
        got = boxplot_stats(values)
        with np.errstate(all="ignore"):  # np.percentile of huge values overflows
            expected = loop_boxplot_stats(values)
        zeros = {math.copysign(1.0, v) for v in values if v == 0.0}
        if len(zeros) == 2:
            assert _unsigned_zeros(got) == _unsigned_zeros(expected)
        else:
            assert repr(got) == repr(expected)
