import warnings

import numpy as np
import pytest

from avfusion.data import (
    DatasetConfig,
    IdentitySpec,
    Sample,
    SampleSet,
    generate_identities,
    identity_codes,
    sample_dataset,
    split_dataset,
)
from avfusion.errors import ConfigurationError, ShapeError
from avfusion.linalg import angle_deg


class TestGenerateIdentities:
    def test_deterministic(self):
        config = DatasetConfig(n_identities=5, seed=42)
        a = generate_identities(config)
        b = generate_identities(config)
        for x, y in zip(a, b):
            assert x.identity_id == y.identity_id
            assert np.array_equal(x.audio_prototype, y.audio_prototype)
            assert np.array_equal(x.video_prototype, y.video_prototype)

    def test_unit_norm_prototypes(self):
        for spec in generate_identities(DatasetConfig(n_identities=10)):
            assert np.linalg.norm(spec.audio_prototype) == pytest.approx(1.0)
            assert np.linalg.norm(spec.video_prototype) == pytest.approx(1.0)

    def test_single_identity(self):
        specs = generate_identities(DatasetConfig(n_identities=1))
        assert len(specs) == 1

    def test_sphere_uniformity(self):
        config = DatasetConfig(n_identities=10_000, d_a=3, d_v=3, seed=0)
        specs = generate_identities(config)
        mean = np.mean([s.audio_prototype for s in specs], axis=0)
        assert np.linalg.norm(mean) < 0.05

    @pytest.mark.parametrize("field", ["audio_noise_sigma", "video_noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_out_of_range_sigma_rejected_when_built(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite and >= 0"):
            DatasetConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_identities", "samples_per_identity", "d_a", "d_v"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_out_of_range_size_rejected_when_built(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            DatasetConfig(**{field: value})

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            generate_identities(DatasetConfig(n_identities=0))
        with pytest.raises(ConfigurationError):
            generate_identities(DatasetConfig(audio_noise_sigma=-0.1))


class TestSampleDataset:
    @pytest.mark.parametrize("field", ["audio_noise_sigma", "video_noise_sigma"])
    def test_overflowing_sigma_is_config_error(self, field):
        config = DatasetConfig(n_identities=3, samples_per_identity=4, **{field: 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=f"{field} 1e\\+308 overflows"):
                sample_dataset(generate_identities(config), config)

    def test_noiseless_samples_equal_prototype(self):
        config = DatasetConfig(
            n_identities=3, samples_per_identity=4,
            audio_noise_sigma=0.0, video_noise_sigma=0.0,
        )
        specs = generate_identities(config)
        by_id = {s.identity_id: s for s in specs}
        for sample in sample_dataset(specs, config):
            spec = by_id[sample.identity_id]
            assert np.array_equal(sample.audio, spec.audio_prototype)
            assert np.array_equal(sample.video, spec.video_prototype)

    def test_mean_distance_matches_chi_mean(self):
        config = DatasetConfig(
            n_identities=1, samples_per_identity=1000, d_a=64,
            audio_noise_sigma=0.1, seed=3,
        )
        specs = generate_identities(config)
        samples = sample_dataset(specs, config)
        dists = [
            np.linalg.norm(s.audio - specs[0].audio_prototype) for s in samples
        ]
        assert abs(np.mean(dists) - 0.1 * np.sqrt(64)) < 0.1 * np.sqrt(64) * 0.1

    def test_two_identities_separable(self):
        config = DatasetConfig(
            n_identities=2, samples_per_identity=50,
            audio_noise_sigma=0.05, video_noise_sigma=0.05, seed=1,
        )
        specs = generate_identities(config)
        samples = sample_dataset(specs, config)
        centroids = {
            spec.identity_id: np.mean(
                [s.audio for s in samples if s.identity_id == spec.identity_id],
                axis=0,
            )
            for spec in specs
        }
        correct = sum(
            min(centroids, key=lambda c: np.linalg.norm(s.audio - centroids[c]))
            == s.identity_id
            for s in samples
        )
        assert correct == len(samples)

    def test_deterministic(self):
        config = DatasetConfig(n_identities=3, samples_per_identity=5, seed=9)
        specs = generate_identities(config)
        a = sample_dataset(specs, config)
        b = sample_dataset(specs, config)
        for x, y in zip(a, b):
            assert x.sample_id == y.sample_id
            assert np.array_equal(x.audio, y.audio)

    def test_noise_stream_follows_position_not_name(self):
        # Digit-free names (alice, bob) and names whose digits collide (id1,
        # id01) get the noise of their position, as generated ids do.
        config = DatasetConfig(n_identities=4, samples_per_identity=3, seed=2)
        specs = generate_identities(config)
        renamed = [IdentitySpec(name, spec.audio_prototype, spec.video_prototype)
                   for name, spec in zip(("alice", "bob", "id1", "id01"), specs)]
        for a, b in zip(sample_dataset(specs, config), sample_dataset(renamed, config)):
            assert np.array_equal(a.audio, b.audio)
            assert np.array_equal(a.video, b.video)

    def test_within_identity_angle_grows_with_sigma(self):
        medians = []
        for sigma in (0.1, 0.3, 0.6):
            config = DatasetConfig(
                n_identities=5, samples_per_identity=30,
                audio_noise_sigma=sigma, seed=4,
            )
            specs = generate_identities(config)
            samples = sample_dataset(specs, config)
            angles = []
            for spec in specs:
                group = [s.audio for s in samples
                         if s.identity_id == spec.identity_id]
                for i in range(0, len(group) - 1, 2):
                    angles.append(angle_deg(group[i], group[i + 1]))
            medians.append(np.median(angles))
        assert medians[0] < medians[1] < medians[2]


class TestSplitDataset:
    def test_stratified_counts(self):
        config = DatasetConfig(n_identities=4, samples_per_identity=10)
        samples = sample_dataset(generate_identities(config), config)
        train, val = split_dataset(samples, 0.2, 0)
        for identity in {s.identity_id for s in samples}:
            assert sum(s.identity_id == identity for s in train) == 8
            assert sum(s.identity_id == identity for s in val) == 2

    def test_deterministic(self):
        config = DatasetConfig(n_identities=4, samples_per_identity=10)
        samples = sample_dataset(generate_identities(config), config)
        t1, v1 = split_dataset(samples, 0.2, 5)
        t2, v2 = split_dataset(samples, 0.2, 5)
        assert [s.sample_id for s in t1] == [s.sample_id for s in t2]
        assert [s.sample_id for s in v1] == [s.sample_id for s in v2]

    def test_minimal_stratification(self):
        config = DatasetConfig(n_identities=3, samples_per_identity=2)
        samples = sample_dataset(generate_identities(config), config)
        train, val = split_dataset(samples, 0.5, 0)
        assert len(train) == len(val) == 3

    def test_disjoint_union(self):
        config = DatasetConfig(n_identities=4, samples_per_identity=10)
        samples = sample_dataset(generate_identities(config), config)
        train, val = split_dataset(samples, 0.3, 2)
        train_ids = {s.sample_id for s in train}
        val_ids = {s.sample_id for s in val}
        assert not train_ids & val_ids
        assert train_ids | val_ids == {s.sample_id for s in samples}

    def test_cannot_stratify(self):
        config = DatasetConfig(n_identities=2, samples_per_identity=1)
        samples = sample_dataset(generate_identities(config), config)
        with pytest.raises(ConfigurationError):
            split_dataset(samples, 0.5, 0)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            split_dataset([], 1.5, 0)


class TestSampleSet:
    def test_identity_codes_follow_sorted_identities(self):
        config = DatasetConfig(n_identities=3, samples_per_identity=2)
        samples = sample_dataset(generate_identities(config), config)
        labels, identities = identity_codes(samples.identity_ids)
        assert identities == sorted(identities)
        assert samples.audio.shape == (6, config.d_a)
        assert samples.video.shape == (6, config.d_v)
        for sample, label in zip(samples, labels):
            assert identities[label] == sample.identity_id

    def test_codes_index_given_identities(self):
        samples = SampleSet(np.zeros((3, 1)), np.zeros((3, 2)), ["b", "a", "b"],
                            ["s0", "s1", "s2"])
        codes, identities = identity_codes(samples.identity_ids, ["x", "b", "a"])
        assert identities == ["x", "b", "a"]
        assert codes.tolist() == [1, 2, 1]

    def test_rows_are_views(self):
        samples = SampleSet(np.arange(6.0).reshape(3, 2), np.zeros((3, 1)),
                            ["a", "a", "b"], ["s0", "s1", "s2"])
        row = samples[1]
        assert (row.identity_id, row.sample_id) == ("a", "s1")
        assert np.shares_memory(row.audio, samples.audio)
        assert [s.sample_id for s in samples[1:]] == ["s1", "s2"]
        assert [s.sample_id for s in samples[np.array([2, 0])]] == ["s2", "s0"]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet(np.zeros((3, 1)), np.zeros((2, 1)), ["a"] * 3, ["s"] * 3)
        with pytest.raises(ShapeError):
            SampleSet(np.zeros((3, 1)), np.zeros((3, 1)), ["a"] * 2, ["s"] * 3)
        with pytest.raises(ShapeError):
            SampleSet.of([Sample("a", "s0", np.zeros(2), np.zeros(1)),
                          Sample("a", "s1", np.zeros(3), np.zeros(1))])

    def test_of_a_set_is_the_set(self):
        config = DatasetConfig(n_identities=2, samples_per_identity=2)
        samples = sample_dataset(generate_identities(config), config)
        assert SampleSet.of(samples) is samples
        assert len(SampleSet.of([])) == 0
