import time

import numpy as np
import pytest

from avfusion import evaluation
from avfusion.data import Sample
from avfusion.errors import ConfigurationError, DegenerateInputError
from avfusion.evaluation import (
    MAX_TRIALS_PER_CLASS,
    MODALITY_MODES,
    Trial,
    TrialConfig,
    audio_video_angles,
    boxplot_stats,
    build_mode_trials,
    build_trials,
    centroid_angle_matrix,
    compute_eer,
    embed_samples,
    run_full_evaluation,
    score_trials,
    silhouette_score,
    within_identity_angles,
)
from avfusion.heads import MeanFusionHead, MlpFusionHead, MultiViewHead
from avfusion.layers import LinearLayer
from avfusion.linalg import angle_deg, cosine_similarity

from conftest import eer_oracle, make_head, small_dataset, trial_arrays


def passthrough_audio_head(d=2):
    """Mean head whose audio-only embedding is audio/2 and video side is zero."""
    return MeanFusionHead(
        LinearLayer(weight=np.eye(d), bias=np.zeros(d)),
        LinearLayer(weight=np.zeros((d, d)), bias=np.zeros(d)),
    )


def embed_one(head, sample, exposure):
    """One sample's eval-mode embedding under an exposure ("av", "a", "v")."""
    return embed_samples(head, [sample], exposure)[0]


def embed_all(head, samples):
    return {exp: embed_samples(head, samples, exp) for exp in ("av", "a", "v")}


def identities(samples):
    return [s.identity_id for s in samples]


def toy_samples(audio_rows, identity_ids, d_v=2):
    return [
        Sample(identity, f"{identity}-s{i}", np.asarray(a, dtype=np.float64),
               np.zeros(d_v))
        for i, (a, identity) in enumerate(zip(audio_rows, identity_ids))
    ]


class TestBuildTrials:
    def test_all_nontarget(self):
        samples = small_dataset(n_identities=4, samples_per_identity=3)
        trials = build_trials(samples, "AxA", 0, 10, 0)
        assert len(trials) == 10
        assert not any(t.label for t in trials)

    def test_deterministic(self):
        samples = small_dataset(n_identities=4, samples_per_identity=3)
        t1 = build_trials(samples, "AVxAV", 20, 20, 7)
        t2 = build_trials(samples, "AVxAV", 20, 20, 7)
        assert t1 == t2

    def test_two_by_two_enumeration(self):
        samples = small_dataset(n_identities=2, samples_per_identity=2)
        trials = build_trials(samples, "VxV", 2, 2, 0)
        positives = {
            tuple(sorted((t.left, t.right))) for t in trials if t.label
        }
        assert positives == {(0, 1), (2, 3)}
        negatives = [(t.left, t.right) for t in trials if not t.label]
        assert len(set(negatives)) == 2
        for a, b in negatives:
            assert samples[a].identity_id != samples[b].identity_id

    def test_exposures_follow_mode(self):
        samples = small_dataset(n_identities=3, samples_per_identity=3)
        for mode, (left, right) in MODALITY_MODES.items():
            for t in build_trials(samples, mode, 3, 3, 0):
                assert (t.left_exposure, t.right_exposure) == (left, right)

    def test_no_self_pairs(self):
        samples = small_dataset(n_identities=4, samples_per_identity=4)
        for t in build_trials(samples, "AxA", 50, 50, 1):
            assert t.left != t.right

    def test_single_identity_rejected(self):
        samples = small_dataset(n_identities=1, samples_per_identity=4)
        with pytest.raises(ConfigurationError):
            build_trials(samples, "AxA", 1, 1, 0)

    def test_impossible_nontarget_request_fails_at_once(self):
        # 2 identities x 2 samples have 4^2 - (2^2 + 2^2) = 8 ordered
        # cross-identity pairs: 8 nontargets are possible, 100 are not.
        samples = small_dataset(n_identities=2, samples_per_identity=2)
        assert len(build_trials(samples, "AxA", 0, 8, 0)) == 8
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="8 distinct cross-identity"):
            build_trials(samples, "AxA", 0, 100, 0)
        assert time.perf_counter() - start < 1.0

    def test_unknown_mode(self):
        samples = small_dataset(n_identities=2, samples_per_identity=2)
        with pytest.raises(ConfigurationError):
            build_trials(samples, "XxX", 1, 1, 0)

    @pytest.mark.parametrize("field", ["n_positive", "n_negative"])
    @pytest.mark.parametrize("value", [0, -1, MAX_TRIALS_PER_CLASS + 1, float("nan")])
    def test_out_of_range_trial_count_rejected_when_built(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be in"):
            TrialConfig(**{field: value})

    def test_trial_count_bounds_accepted(self):
        assert TrialConfig(1, MAX_TRIALS_PER_CLASS).n_negative == MAX_TRIALS_PER_CLASS


class TestFusedEmbedding:
    def test_mean_av_definition(self, rng):
        head = make_head("mean", rng, d_e=8)
        sample = small_dataset(n_identities=2, samples_per_identity=2)[0]
        assert np.array_equal(
            embed_one(head, sample, "av"),
            head.forward(sample.audio[None], sample.video[None])[0][0],
        )

    def test_multiview_single_modality(self, rng):
        head = make_head("multiview", rng, d_e=8)
        sample = small_dataset(n_identities=2, samples_per_identity=2)[0]
        assert np.array_equal(
            embed_one(head, sample, "a"),
            head.forward_modality("audio", sample.audio[None])[0][0],
        )

    def test_mlp_null_equivalence(self, rng):
        head = make_head("mlp", rng, d_e=8)
        sample = small_dataset(n_identities=2, samples_per_identity=2)[0]
        direct = embed_one(head, sample, "a")
        zero_sub = Sample(sample.identity_id, sample.sample_id, sample.audio,
                          np.zeros_like(sample.video))
        substituted = embed_one(head, zero_sub, "av")
        assert np.array_equal(direct, substituted)

    def test_empty_exposure(self, rng):
        head = make_head("mean", rng)
        sample = small_dataset(n_identities=2, samples_per_identity=2)[0]
        with pytest.raises(DegenerateInputError):
            embed_one(head, sample, "")


class TestScoreTrial:
    def test_self_similarity(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=2, samples_per_identity=2)
        trials = trial_arrays("AVxAV", [Trial(0, 0, "av", "av", True)])
        assert score_trials(embed_all(head, samples), trials)[0] == pytest.approx(1.0)

    def test_symmetry(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=3, samples_per_identity=2)
        trial = Trial(0, 3, "a", "a", False)
        swapped = Trial(3, 0, "a", "a", False)
        trials = trial_arrays("AxA", [trial, swapped])
        scores = score_trials(embed_all(head, samples), trials)
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)

    def test_batch_scoring_matches_loop(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=4, samples_per_identity=3)
        trials = build_mode_trials(samples, TrialConfig(10, 10, 0))["AVxA"]
        batch = score_trials(embed_all(head, samples), trials)
        loop = np.array([
            cosine_similarity(embed_one(head, samples[left], "av"),
                              embed_one(head, samples[right], "a"))
            for left, right in zip(trials.left, trials.right)
        ])
        assert np.allclose(batch, loop, atol=1e-12)


class TestComputeEer:
    def test_perfect_separation(self):
        result = compute_eer([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert result.eer == 0.0
        assert result.n_target == 2
        assert result.n_nontarget == 2

    def test_anti_separation(self):
        result = compute_eer([0.2, 0.1, 0.9, 0.8], [True, True, False, False])
        assert result.eer == 1.0

    def test_one_third_example(self):
        scores = [0.9, 0.7, 0.3, 0.8, 0.2, 0.1]
        labels = [True, True, True, False, False, False]
        assert compute_eer(scores, labels).eer == pytest.approx(1 / 3, abs=1e-12)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 200))
            scores = rng.normal(size=n)
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if labels.all() or not labels.any():
                continue
            got = compute_eer(scores, labels).eer
            assert got == pytest.approx(eer_oracle(scores, labels), abs=1e-9)

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=60)
        labels = rng.random(60) < 0.5
        labels[0], labels[1] = True, False
        base = compute_eer(scores, labels).eer
        assert compute_eer(3.0 * scores + 2.0, labels).eer == pytest.approx(
            base, abs=1e-12
        )
        assert compute_eer(scores**3 + 5 * scores, labels).eer == pytest.approx(
            base, abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            compute_eer([0.1, 0.2], [True, True])


class TestAudioVideoAngles:
    def test_collapsed_head(self):
        head = MeanFusionHead(
            LinearLayer(weight=np.zeros((2, 2)), bias=np.array([1.0, 1.0])),
            LinearLayer(weight=np.zeros((2, 2)), bias=np.array([1.0, 1.0])),
        )
        samples = toy_samples([[1, 0], [0, 1]], ["id0", "id0"])
        report = audio_video_angles(embed_all(head, samples), identities(samples))
        assert report.all_angles() == pytest.approx([0.0, 0.0], abs=1e-4)

    def test_orthogonal_construction(self):
        head = MeanFusionHead(
            LinearLayer(weight=np.array([[1.0], [0.0]]), bias=np.zeros(2)),
            LinearLayer(weight=np.array([[0.0], [1.0]]), bias=np.zeros(2)),
        )
        samples = [Sample("id0", "s0", np.array([1.0]), np.array([1.0]))]
        report = audio_video_angles(embed_all(head, samples), identities(samples))
        assert report.all_angles() == pytest.approx([90.0])

    def test_matches_per_sample_recomputation(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=4, samples_per_identity=4)
        report = audio_video_angles(embed_all(head, samples), identities(samples))
        flattened = []
        for identity in sorted({s.identity_id for s in samples}):
            for s in samples:
                if s.identity_id == identity:
                    flattened.append(
                        angle_deg(
                            embed_one(head, s, "a"),
                            embed_one(head, s, "v"),
                        )
                    )
        assert report.all_angles() == pytest.approx(flattened, abs=1e-9)

    def test_degenerate_embedding_warned(self):
        head = MeanFusionHead(
            LinearLayer(weight=np.zeros((2, 2)), bias=np.zeros(2)),
            LinearLayer(weight=np.zeros((2, 2)), bias=np.zeros(2)),
        )
        samples = toy_samples([[1, 0]], ["id0"])
        report = audio_video_angles(embed_all(head, samples), identities(samples))
        assert report.warnings == 1
        assert report.all_angles() == []


class TestWithinIdentityAngles:
    def test_identical_samples(self):
        head = passthrough_audio_head()
        samples = toy_samples([[1, 1], [1, 1], [1, 1]], ["id0"] * 3)
        report = within_identity_angles(embed_all(head, samples), identities(samples),
                                        "audio")
        assert report.all_angles() == pytest.approx([0.0, 0.0, 0.0], abs=1e-4)

    def test_pair_count(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=3, samples_per_identity=5)
        report = within_identity_angles(embed_all(head, samples), identities(samples),
                                        "audio")
        for angles in report.per_identity.values():
            assert len(angles) == 10  # C(5,2)

    def test_three_sample_toy(self):
        head = passthrough_audio_head()
        samples = toy_samples([[1, 0], [0, 1], [1, 1]], ["id0"] * 3)
        report = within_identity_angles(embed_all(head, samples), identities(samples),
                                        "audio")
        assert sorted(report.per_identity["id0"]) == pytest.approx(
            [45.0, 45.0, 90.0]
        )

    def test_bad_modality(self, rng):
        head = make_head("mean", rng)
        samples = small_dataset(n_identities=2, samples_per_identity=2)
        with pytest.raises(ConfigurationError):
            within_identity_angles(embed_all(head, samples), identities(samples),
                                   "text")


class TestCentroidAngleMatrix:
    def test_orthogonal_centroids(self):
        head = passthrough_audio_head()
        samples = toy_samples([[2, 0], [0, 3]], ["id0", "id1"])
        ids, matrix, skipped = centroid_angle_matrix(embed_all(head, samples),
                                                      identities(samples), "audio")
        assert ids == ["id0", "id1"]
        assert matrix[0, 1] == pytest.approx(90.0)
        assert skipped == 0

    def test_symmetry_and_zero_diagonal(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=5, samples_per_identity=3)
        _, matrix, _ = centroid_angle_matrix(embed_all(head, samples),
                                             identities(samples), "video")
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.zeros(5))

    def test_three_identity_toy(self):
        head = passthrough_audio_head()
        rows = [[1, 0], [0, 1], [1, 1]]
        samples = toy_samples(rows, ["id0", "id1", "id2"])
        _, matrix, _ = centroid_angle_matrix(embed_all(head, samples),
                                             identities(samples), "audio")
        expected = np.array(
            [[0.0, 90.0, 45.0], [90.0, 0.0, 45.0], [45.0, 45.0, 0.0]]
        )
        assert np.allclose(matrix, expected, atol=1e-9)


class TestSilhouette:
    def test_two_tight_far_clusters(self):
        rng = np.random.default_rng(4)
        a = np.array([1.0, 0.0]) + 0.01 * rng.normal(size=(30, 2))
        b = np.array([-1.0, 0.0]) + 0.01 * rng.normal(size=(30, 2))
        emb = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        assert silhouette_score(emb, labels, "cosine") > 0.9

    def test_coincident_points(self):
        emb = np.tile([1.0, 0.0], (6, 1))
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert silhouette_score(emb, labels, "cosine") == 0.0

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(400, 8))
        labels = rng.integers(0, 4, size=400)
        assert abs(silhouette_score(emb, labels, "cosine")) < 0.05

    def test_range(self, rng):
        for _ in range(10):
            emb = rng.normal(size=(40, 4))
            labels = rng.integers(0, 3, size=40)
            assert -1.0 <= silhouette_score(emb, labels, "cosine") <= 1.0

    def test_single_cluster_rejected(self, rng):
        with pytest.raises(DegenerateInputError):
            silhouette_score(rng.normal(size=(5, 3)), np.zeros(5))

    def test_only_cosine_distance(self, rng):
        with pytest.raises(ConfigurationError):
            silhouette_score(rng.normal(size=(4, 3)), [0, 0, 1, 1], "euclidean")

    def test_singleton_cluster_contributes_zero(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]])
        labels = np.array([0, 0, 1])
        score = silhouette_score(emb, labels, "cosine")
        # two near-parallel points score ~1, singleton scores 0
        assert score == pytest.approx(2 / 3, abs=0.01)


class TestUnderflowingNorms:
    """A nonzero row whose squared norm underflows to 0 keeps its direction."""

    def test_scaled_rows_keep_their_cosines(self, rng):
        audio, video = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        tiny_audio, tiny_video = audio.copy(), video.copy()
        tiny_audio[1] *= 1e-200
        tiny_video[[2, 4]] *= 1e-200
        trials = trial_arrays("AxV", [Trial(i, i, "a", "v", True) for i in range(6)])
        expected = score_trials({"a": audio, "v": video}, trials)
        got = score_trials({"a": tiny_audio, "v": tiny_video}, trials)
        assert np.abs(got - expected).max() <= 1e-12
        # the other rows keep their arithmetic
        assert np.array_equal(got[[0, 3, 5]], expected[[0, 3, 5]])

    def test_scaled_row_keeps_its_silhouette(self, rng):
        emb = rng.normal(size=(12, 4))
        labels = np.repeat([0, 1, 2], 4)
        tiny = emb.copy()
        tiny[5] *= 1e-200
        assert abs(silhouette_score(tiny, labels) - silhouette_score(emb, labels)) <= 1e-12

    def test_zero_row_still_refused(self):
        tiny = np.array([[1e-200, -3e-200], [1.0, 2.0]])
        with pytest.raises(DegenerateInputError, match="zero vector"):
            evaluation._row_cosines(tiny, np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestBoxplotStats:
    def test_singleton(self):
        stats = boxplot_stats([7.0])
        assert (stats.minimum, stats.q1, stats.median, stats.q3,
                stats.maximum) == (7.0,) * 5
        assert stats.whisker_low == stats.whisker_high == 7.0
        assert stats.outliers == ()

    def test_interpolated_quartiles(self):
        stats = boxplot_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.q1 == pytest.approx(1.75)
        assert stats.median == pytest.approx(2.5)
        assert stats.q3 == pytest.approx(3.25)

    def test_tukey_outlier(self):
        stats = boxplot_stats([1.0, 1.0, 1.0, 100.0])
        assert stats.outliers == (100.0,)
        assert stats.whisker_high == 1.0
        assert stats.maximum == 100.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            boxplot_stats([])


class TestRunFullEvaluation:
    def test_untrained_head_chance_band(self):
        rng = np.random.default_rng(6)
        head = make_head("mean", rng, d_e=8)
        # heavy noise so identity structure is invisible to a random head
        samples = small_dataset(n_identities=10, samples_per_identity=8,
                                audio_sigma=1.5, video_sigma=1.5)
        report = run_full_evaluation(head, samples, TrialConfig(200, 200, 0))
        for mode, result in report.eer.items():
            assert 0.35 <= result.eer <= 0.65, (mode, result.eer)

    def test_memorizing_head_perfect_avxav(self):
        rng = np.random.default_rng(7)
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(
            n_identities=6, samples_per_identity=4, audio_sigma=0.0,
            video_sigma=0.0,
        )
        report = run_full_evaluation(head, samples, TrialConfig(50, 50, 0))
        assert report.eer["AVxAV"].eer == 0.0

    def test_report_structure(self, rng):
        head = make_head("multiview", rng, d_e=8)
        samples = small_dataset(n_identities=5, samples_per_identity=4)
        report = run_full_evaluation(head, samples, TrialConfig(20, 20, 0))
        assert set(report.eer) == set(MODALITY_MODES)
        assert report.audio_video is not None
        assert set(report.within_identity) == {"audio", "video"}
        assert set(report.between_centroids) == {"audio", "video"}
        assert set(report.silhouette) == {"audio", "video"}
        for angle in report.audio_video.all_angles():
            assert 0.0 <= angle <= 180.0

    def test_mode_consistency(self, rng):
        head = make_head("mean", rng, d_e=8)
        samples = small_dataset(n_identities=5, samples_per_identity=4)
        config = TrialConfig(30, 30, 9)
        report = run_full_evaluation(head, samples, config)
        trials = build_mode_trials(samples, config)["AxA"]
        scores = score_trials(embed_all(head, samples), trials)
        assert report.eer["AxA"].eer == compute_eer(scores, trials.labels).eer
