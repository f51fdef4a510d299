"""The vectorised evaluation against its per-pair loop references.

Every comparison but the silhouette's is exact (`==`): reports store angles
at full precision, so a difference in the last bit changes output bytes.
The silhouette sums in another order than its loop reference and agrees
with it within 1e-12 where no row sees only rounding noise.  The loop
references (`conftest.loop_*`) take a head and samples; `TableHead`
turns drawn matrices into the embeddings both versions see.
"""

import math
import re
import time
import tracemalloc
from types import SimpleNamespace

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
    BoxplotStats,
    Trial,
    TrialArrays,
    _lemire,
    _raw_draws,
    _reject_below,
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
    loop_silhouette_terms,
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


def sized_table(sizes, d, seed=0):
    """Samples of identities id0, id1, ... of the given sizes, with random
    audio and video rows of dimension d, in a shuffled sample order."""
    rng = np.random.default_rng(seed)
    ids = [f"id{k}" for k, size in enumerate(sizes) for _ in range(size)]
    audio, video = rng.normal(size=(2, len(ids), d))
    return [Sample(ids[i], f"s{i}", audio[i], video[i]) for i in rng.permutation(len(ids))]


def embedded(samples):
    return {exp: embed_samples(TableHead(), samples, exp) for exp in ("av", "a", "v")}


def underflowing(*matrices):
    """Whether a nonzero row's norm is below 2**-511 (its sum of squares is
    subnormal or 0).  The silhouette scales such a row and keeps its
    direction; its loop reference normalises rows itself, inexactly or not
    at all, so a comparison with it leaves it out."""
    return any((rows.any(axis=1) & (np.sqrt(np.vecdot(rows, rows)) < 2.0**-511)).any()
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

    @EXACT
    @given(tables(nan=True), st.sampled_from(list(MODALITY_MODES)), st.integers(1, 40),
           st.data())
    def test_blocks_match_loop(self, samples, mode, block, data):
        """PAIR_BLOCK patched to 1-40 values: the trials are gathered and
        scored a few at a time, and every score keeps its bits."""
        left_exp, right_exp = MODALITY_MODES[mode]
        index = st.integers(0, len(samples) - 1)
        trials = [Trial(a, b, left_exp, right_exp, label) for a, b, label in data.draw(
            st.lists(st.tuples(index, index, st.booleans()), max_size=30))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "PAIR_BLOCK", block)
            got = outcome(score_trials, embedded(samples), trial_arrays(mode, trials))
        expected = outcome(loop_score_trials, TableHead(), trials, samples)
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert np.array_equal(got, expected)

    def test_memory_bounded_by_block(self):
        """A paper-scale mode, 290,000 + 290,000 trials of 30,024 rows at
        d = 32: gathering both sides of every trial at once took 306 MiB
        above the inputs; blocks of PAIR_BLOCK values hold the peak under
        48 MiB."""
        rng = np.random.default_rng(0)
        n, count = 30024, 580_000
        emb = {"a": rng.normal(size=(n, 32)), "v": rng.normal(size=(n, 32))}
        trials = TrialArrays(("a", "v"), rng.integers(0, n, count), rng.integers(0, n, count),
                             rng.random(count) < 0.5)
        tracemalloc.start()
        try:
            score_trials(emb, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

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
    @example(sized_table([1, 3, 1, 2, 4, 3], 3), "audio")  # sizes 1-4, two singletons
    @example(sized_table([2, 1, 2], 1), "video")
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

    @EXACT
    @given(tables(nan=True), st.sampled_from(["audio", "video"]), st.integers(1, 40))
    def test_pair_blocks_match_loop(self, samples, modality, block):
        """PAIR_BLOCK patched to 1-40 values: the pairs are taken a few at a
        time, and every angle keeps its bits."""
        emb, ids = embedded(samples), identities(samples)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "PAIR_BLOCK", block)
            within = outcome(within_identity_angles, emb, ids, modality)
            got = outcome(centroid_angle_matrix, emb, ids, modality)
        assert within == outcome(loop_within_identity_angles, TableHead(), samples, modality)
        expected = outcome(loop_centroid_angle_matrix, TableHead(), samples, modality)
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert got[0] == expected[0] and got[2] == expected[2]
            assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_centroids_by_size_class_match_loop(self, d):
        """Identities of eight sizes, singletons and sizes past numpy's
        pairwise-summation block of 128 among them."""
        samples = sized_table([1, 5, 2, 130, 1, 29, 5, 3, 2, 200, 5], d, seed=d)
        got = centroid_angle_matrix(embedded(samples), identities(samples), "audio")
        expected = loop_centroid_angle_matrix(TableHead(), samples, "audio")
        assert got[0] == expected[0] and got[2] == expected[2] == 0
        assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("family", [within_identity_angles, centroid_angle_matrix])
    def test_pairs_memory_bounded_by_block(self, family):
        """1,251 identities of 24 rows, d = 32: gathering every pair at once
        took 331 MiB (within-identity) and 403 MiB (centroids) above the
        inputs; blocks of PAIR_BLOCK values hold the peak under 64 MiB."""
        rng = np.random.default_rng(0)
        ids = [f"id{k:04d}" for k in range(1251) for _ in range(24)]
        emb = {"a": rng.normal(size=(len(ids), 32))}
        tracemalloc.start()
        try:
            family(emb, ids, "audio")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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


def assert_silhouette_near_loop(emb, labels):
    """The silhouette within 1e-12 of its loop reference, on inputs where
    each row of a cluster of two or more has max(a, b) >= 1e-3 by the
    reference's distance matrix.  Nearer 0, rounding of about 1e-16 over a
    tiny max(a, b) is a property of neither form (test_noise_scores_zero)."""
    assume(not underflowing(emb))
    expected = outcome(loop_silhouette_score, emb, labels, "cosine")
    got = outcome(silhouette_score, emb, labels, "cosine")
    if expected is DegenerateInputError:
        assert got is DegenerateInputError
        return
    assume(all(term is None or max(term) >= 1e-3
               for term in loop_silhouette_terms(emb, labels, "cosine")))
    assert got == pytest.approx(expected, rel=0, abs=1e-12)


class TestSilhouette:
    @EXACT
    @given(tables())
    def test_matches_loop(self, samples):
        assert_silhouette_near_loop(np.array([s.audio for s in samples]),
                                    identities(samples))

    @EXACT
    @given(st.integers(2, 60), st.integers(1, 6), st.integers(2, 8), st.data())
    def test_random_clusters_match_loop(self, n, d, k, data):
        emb = data.draw(hnp.arrays(np.float64, (n, d), elements=ELEMENTS))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        assert_silhouette_near_loop(emb, labels)

    def test_larger_sample_matches_loop(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(300, 8))
        labels = rng.integers(0, 12, size=300)
        assert silhouette_score(emb, labels, "cosine") == pytest.approx(
            loop_silhouette_score(emb, labels, "cosine"), rel=0, abs=1e-12)

    def test_noise_scores_zero(self):
        # Coincident rows over two clusters: a and b are both rounding
        # noise, below SILHOUETTE_NOISE, so rows 1-3 score 0 (without the
        # rule the cluster sums gave 0.75).
        emb = np.tile(np.random.default_rng(6).normal(size=5), (4, 1))
        assert silhouette_score(emb, [0, 1, 1, 1], "cosine") == 0.0

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
    @given(st.integers(4, 60), st.integers(2, 8), st.integers(2, 12), st.integers(1, 720),
           st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_row_blocks_match_loop(self, n, d, k, block, seed, zero, data):
        """Blocks of 1-720 (row, cluster) means, from one row per block to
        one block (n·K <= 60·12), over clusters of several sizes and
        singletons, in random directions with two coincident rows and, if
        `zero`, a zero row."""
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
        # 291 rows in 60 clusters of 1 to 9 rows, shuffled, so that most
        # blocks end inside a cluster; one zero row and four coincident ones.
        rng = np.random.default_rng(3)
        labels = rng.permutation(np.repeat(np.arange(60), np.arange(60) % 9 + 1))
        emb = rng.normal(size=(labels.size, 6))
        emb[10] = 0.0
        emb[[20, 30, 40]] = emb[50]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "SILHOUETTE_BLOCK", 60 * rows_per_block)
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

    def test_paper_shape(self):
        # 1,251 identities x 24 rows, d = 32: the whole (rows x K) product
        # would take 287 MiB, and the n x n distance blocks took 3-9 s.
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(30024, 32))
        labels = rng.permutation(np.repeat(np.arange(1251), 24))
        start = time.perf_counter()
        score = silhouette_score(emb, labels, "cosine")
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            assert silhouette_score(emb, labels, "cosine") == score
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
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


class WordStream:
    """A stand-in for a PCG64 bit generator whose raw outputs carry the given
    32-bit words, low word first, and after them the word 0x9E3779B9."""

    FILL = 0x9E3779B9

    def __init__(self, words):
        words = [*words, self.FILL][: len(words) + len(words) % 2]
        self.outputs = [low | high << 32 for low, high in zip(words[::2], words[1::2])]
        self.taken = 0
        self._state = {"has_uint32": 0, "uinteger": 0}

    @property
    def state(self):
        return dict(self._state)

    @state.setter
    def state(self, state):
        self._state = dict(state)

    def random_raw(self, size):
        out = self.outputs[self.taken:self.taken + size]
        self.taken += size
        return np.array(out + [self.FILL * (2**32 + 1)] * (size - len(out)), dtype=np.uint64)

    def advance(self, delta):
        self.taken += delta


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_output_at(rng, k, x):
    """Set the PCG64 generator `rng` so that its raw outputs 0 .. k - 1 are
    those of some state and output k is 0: two 32-bit words 0.  PCG64 steps
    its 128-bit state s to s·M + inc and outputs the high half XOR the low
    half, rotated; a stepped state x·(2⁶⁴ + 1) outputs 0."""
    bits = rng.bit_generator
    state = bits.state
    inc = state["state"]["inc"]
    stepped = x * (2**64 + 1)
    state["state"]["state"] = (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bits.state = state
    bits.advance(-k)
    return rng


def trials_and_state(*args):
    """`trials_and_next_draw` of `build_trials` and of `loop_build_trials`,
    each with the whole generator state after the call."""
    states = []
    default_rng = np.random.default_rng

    def recording(*rng_args):
        states.append(default_rng(*rng_args))
        return states[-1]

    results = []
    for build in (build_trials, loop_build_trials):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", recording)
            result = trials_and_next_draw(build, *args)
        results.append((result, states[-1].bit_generator.state if states else None))
    return results


def cross_pairs(samples):
    ids = [s.identity_id for s in samples]
    return len(ids) ** 2 - sum(ids.count(i) for i in ids)


# Identities of two samples or more, with at most one singleton among 131 or
# more: more than 64 regular attempts are expected between irregular ones,
# so the nontargets are drawn in chunks.
CHUNKED_SIZES = st.one_of(
    st.lists(st.integers(2, 6), min_size=3, max_size=12),
    st.lists(st.integers(2, 3), min_size=130, max_size=140).map(lambda sizes: [1, *sizes]),
)


class TestBulkNontargets:
    """The nontargets drawn in chunks of regular attempts, with a cut at
    each irregular one, against the per-draw loop: the trials, the next
    draw and the whole generator state after the call."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 6, 7, 49, 1251, 3 * 2**30 + 1, 2**32 - 1])
    def test_array_rule_matches_draw(self, bound):
        """Words just below, at and above Lemire's threshold, and random
        words: the array form's value and redraw flag are what `draw` makes
        of each word, fed to it as the next word of a stream."""
        threshold = int(_reject_below([bound])[0])
        rng = np.random.default_rng(bound)
        crafted = [0, 1, 2**32 - 1, *rng.integers(0, 2**32, 40).tolist()]
        if bound % 2 and bound > 1:  # (t·bound⁻¹ mod 2³²)·bound = t mod 2³²
            inverse = pow(bound, -1, 2**32)
            crafted += [t * inverse % 2**32 for t in (threshold - 1, threshold, threshold + 1)
                        if 0 <= t < 2**32]
        values, redrawn = _lemire(np.array(crafted, dtype=np.uint32), np.uint64(bound),
                                  _reject_below([bound]))
        for word, value, again in zip(crafted, values.tolist(), redrawn.tolist()):
            stream = SimpleNamespace(bit_generator=WordStream([word]))
            with _raw_draws(stream) as draw:
                got = draw(bound - 1)
            if bound == 1:  # a draw of [0, 0] takes no word: irregular in a chunk
                assert again and got == value == 0
                assert stream.bit_generator.taken == 0
            else:
                fill = (WordStream.FILL * bound) >> 32
                assert got == (fill if again else value)
                assert again == (word * bound % 2**32 < threshold)
        if bound % 2 and 0 < threshold < 2**32:
            assert redrawn[-3] and not redrawn[-2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_words_read_ahead_are_not_drawn(self, seed):
        """`ahead` reads words past the buffer without drawing them: on exit
        the generator is where the draws before it left it."""
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        with _raw_draws(rng) as draw:
            got = [draw(6), draw(6)]
            draw.ahead(100)
        assert got == [int(reference.integers(7)) for _ in range(2)]
        assert rng.bit_generator.state == reference.bit_generator.state

    @EXACT
    @given(sized_samples(CHUNKED_SIZES), MODES, st.integers(0, 2**64 - 1),
           st.integers(0, 120), st.integers(0, 2), st.integers(1, 80), SEEDS)
    def test_zero_words_inside_chunks(self, samples, mode, x, k, n_positive, n_negative,
                                      seed):
        """Two zero words at output k of the stream.  Lemire's rule redraws
        a zero word for every bound that does not divide 2³², so an attempt
        inside a chunk is irregular there and is made by `draw`."""
        original = np.random.default_rng
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng",
                          lambda *a: zero_output_at(original(*a), k, x))
            got, expected = trials_and_state(
                samples, mode, n_positive, min(n_negative, cross_pairs(samples)), seed)
        assert got == expected

    @EXACT
    @given(sized_samples(CHUNKED_SIZES), MODES, st.integers(0, 20), st.integers(1, 200),
           st.sampled_from([2, 4, 6, 10, 64, evaluation.RAW_CHUNK_WORDS]), SEEDS)
    def test_chunks_match_loop(self, samples, mode, n_positive, n_negative, chunk, seed):
        """Chunked draws, with or without a pending word at entry (targets
        with replacement draw an odd number of words), a one-sample
        identity, and RAW_CHUNK_WORDS patched small."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "RAW_CHUNK_WORDS", chunk)
            got, expected = trials_and_state(
                samples, mode, n_positive, min(n_negative, cross_pairs(samples)), seed)
        assert got == expected

    @EXACT
    @given(sized_samples(st.lists(st.integers(2, 5), min_size=3, max_size=6)), MODES,
           st.integers(0, 1), st.integers(0, 5), SEEDS)
    def test_near_exhaustion(self, samples, mode, short, n_positive, seed):
        """Every cross-identity pair, or all but one: most late attempts
        draw a pair drawn before."""
        got, expected = trials_and_state(
            samples, mode, n_positive, cross_pairs(samples) - short, seed)
        assert got == expected
        assert isinstance(got[0][0], list)

    @EXACT
    @given(sized_samples(st.lists(st.integers(2, 5), min_size=3, max_size=6)), MODES,
           st.integers(1, 3), st.integers(0, 1), SEEDS)
    def test_attempt_limit_fires_at_the_same_attempt(self, samples, mode, per_nontarget,
                                                     short, seed):
        """NONTARGET_ATTEMPTS patched to 1-3, which the loop reads too: the
        request is refused after the same attempt, with the generator left
        at the same draw."""
        n_cross = cross_pairs(samples)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "NONTARGET_ATTEMPTS", per_nontarget)
            got, expected = trials_and_state(samples, mode, 0, n_cross - short, seed)
        assert got == expected
        if per_nontarget == 1 and not short:
            assert got[0][0] == "cannot sample enough distinct nontarget pairs"


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(BOX_VALUES, max_size=12), max_size=40))
    @example([])
    @example([[], [7.0], []])
    @example([[-0.0], [0.0, -0.0, 5.0], [np.nan, 1.0], [np.inf, -np.inf]])
    @example([[1.0, 1.0, 1.0, 100.0], [0.0, 0.0, 0.0, 0.0, 6.0, -6.0]])
    @example([[0.0, 1.0, 2.0, 3.0, 6.0], [-2.0, 1.0, 2.0, 3.0, 4.0]])  # a value at a fence
    def test_family_matches_loop(self, segments):
        """One call for a family of 0-40 segments: each segment's stats equal
        the loop reference of that segment alone, by repr as above; an empty
        segment's fields are NaN and it has no outliers."""
        bounds = np.cumsum([0, *map(len, segments)])
        got = boxplot_stats([v for segment in segments for v in segment], bounds)
        outliers, ends = got.outliers
        assert len(ends) == len(segments) + 1 and ends[0] == 0 and ends[-1] == outliers.size
        names = ("minimum", "q1", "median", "q3", "maximum", "whisker_low", "whisker_high")
        for k, segment in enumerate(segments):
            stats = BoxplotStats(*(getattr(got, name)[k].item() for name in names),
                                 tuple(outliers[ends[k]:ends[k + 1]].tolist()))
            if not segment:
                assert all(math.isnan(getattr(stats, name)) for name in names)
                assert stats.outliers == ()
                continue
            with np.errstate(all="ignore"):
                expected = loop_boxplot_stats(segment)
            if len({math.copysign(1.0, v) for v in segment if v == 0.0}) == 2:
                assert _unsigned_zeros(stats) == _unsigned_zeros(expected)
            else:
                assert repr(stats) == repr(expected)
