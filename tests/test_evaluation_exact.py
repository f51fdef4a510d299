"""The vectorised evaluation against its per-pair loop references.

Every comparison is exact (`==`): reports store angles and silhouettes at
full precision, so a difference in the last bit changes output bytes.  The
loop references (`conftest.loop_*`) take a head and samples; `TableHead`
turns drawn matrices into the embeddings both versions see.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avfusion.data import Sample
from avfusion.errors import DegenerateInputError
from avfusion.evaluation import (
    MODALITY_MODES,
    Trial,
    TrialArrays,
    audio_video_angles,
    centroid_angle_matrix,
    compute_eer,
    embed_samples,
    score_trials,
    silhouette_score,
    within_identity_angles,
)

from conftest import (
    loop_audio_video_angles,
    loop_centroid_angle_matrix,
    loop_compute_eer,
    loop_score_trials,
    loop_silhouette_score,
    loop_within_identity_angles,
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
        got = outcome(score_trials, embedded(samples),
                      TrialArrays.from_trials(mode, trials))
        if expected is DegenerateInputError:
            assert got is DegenerateInputError
        else:
            assert np.array_equal(got, expected)

    def test_parallel_embeddings_clamp_to_one(self):
        rng = np.random.default_rng(0)
        audio = rng.normal(size=(50, 8))
        samples = [Sample("id0", f"s{i}", a, 3.0 * a) for i, a in enumerate(audio)]
        trials = [Trial(i, i, "a", "v", True) for i in range(50)]
        got = score_trials(embedded(samples), TrialArrays.from_trials("AxV", trials))
        assert np.array_equal(got, loop_score_trials(TableHead(), trials, samples))
        assert (got == 1.0).any()

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_and_non_finite_embeddings_rejected(self, bad):
        samples = [Sample("id0", "s0", np.array([1.0, 2.0]), np.array([1.0, 0.0])),
                   Sample("id1", "s1", np.array([bad, bad]), np.array([0.0, 1.0]))]
        trials = [Trial(0, 1, "a", "a", False)]
        with pytest.raises(DegenerateInputError):
            loop_score_trials(TableHead(), trials, samples)
        with pytest.raises(DegenerateInputError):
            score_trials(embedded(samples), TrialArrays.from_trials("AxA", trials))


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
    @given(tables(), st.sampled_from(["cosine", "euclidean"]))
    def test_matches_loop(self, samples, distance):
        emb = np.array([s.audio for s in samples])
        labels = identities(samples)
        assert outcome(silhouette_score, emb, labels, distance) == outcome(
            loop_silhouette_score, emb, labels, distance)

    @EXACT
    @given(st.integers(2, 60), st.integers(1, 6), st.integers(2, 8), st.data())
    def test_random_clusters_match_loop(self, n, d, k, data):
        emb = data.draw(hnp.arrays(np.float64, (n, d), elements=ELEMENTS))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        for distance in ("cosine", "euclidean"):
            assert outcome(silhouette_score, emb, labels, distance) == outcome(
                loop_silhouette_score, emb, labels, distance)

    def test_larger_sample_matches_loop(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(300, 8))
        labels = rng.integers(0, 12, size=300)
        for distance in ("cosine", "euclidean"):
            assert silhouette_score(emb, labels, distance) == loop_silhouette_score(
                emb, labels, distance)

    def test_coincident_points_and_singletons(self):
        emb = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0]])
        labels = [0, 0, 1, 1, 2]
        for distance in ("cosine", "euclidean"):
            assert silhouette_score(emb, labels, distance) == loop_silhouette_score(
                emb, labels, distance)

    def test_non_finite_rejected(self):
        emb = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            silhouette_score(emb, [0, 0, 1], "euclidean")

    def test_scales_with_cluster_slices(self):
        # The parent's per-sample loop took 1.42 s at n = 1600.
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(3000, 8))
        labels = rng.integers(0, 50, size=3000)
        start = time.perf_counter()
        score = silhouette_score(emb, labels, "cosine")
        assert time.perf_counter() - start < 2.0
        assert -1.0 <= score <= 1.0

    def test_euclidean_never_holds_the_full_difference_tensor(self):
        # n x n x d float64 is 16.8 MB here; the blocked form stays far below.
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(128, 128))
        labels = rng.integers(0, 4, size=128)
        tracemalloc.start()
        try:
            silhouette_score(emb, labels, "euclidean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
