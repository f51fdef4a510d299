import copy
import math
import types
import weakref

import numpy as np
import pytest

from avfusion import training
from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.data import (
    DatasetConfig,
    Sample,
    generate_identities,
    sample_dataset,
    split_dataset,
    stack_samples,
)
from avfusion.errors import ConfigurationError, ConsistencyError
from avfusion.heads import (
    MASK_AUDIO,
    MASK_NONE,
    MASK_VIDEO,
    MeanFusionHead,
    apply_masks,
    sample_mask_modes,
)
from avfusion.rng import substream
from avfusion.training import (
    AdamW,
    ParamStore,
    TrainingConfig,
    batch_loss,
    clip_global_norm,
    train_run,
    validate_accuracy,
)

from conftest import make_head, small_dataset


class TestMasking:
    def test_frequencies(self):
        rng = np.random.default_rng(0)
        modes = sample_mask_modes(rng, 30_000)
        for mode in (MASK_VIDEO, MASK_AUDIO, MASK_NONE):
            freq = np.count_nonzero(modes == mode) / len(modes)
            assert 0.323 <= freq <= 0.343

    def test_reproducible(self):
        a = sample_mask_modes(np.random.default_rng(7), 5)
        b = sample_mask_modes(np.random.default_rng(7), 5)
        assert np.array_equal(a, b)

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(1)
        modes = sample_mask_modes(rng, 100, probabilities=(1.0, 0.0, 0.0))
        assert set(modes) == {MASK_VIDEO}

    def test_apply_masks(self, rng):
        audio = rng.normal(size=(3, 4))
        video = rng.normal(size=(3, 6))
        a, v = apply_masks(audio, video, [MASK_AUDIO, MASK_VIDEO, MASK_NONE])
        assert np.array_equal(a[0], np.zeros(4))
        assert np.array_equal(v[1], np.zeros(6))
        assert np.array_equal(a[2], audio[2])
        assert np.array_equal(v[2], video[2])
        # inputs are untouched
        assert not np.array_equal(a[0], audio[0])
        # the zeros are +0.0, as the per-sample loop wrote them
        assert not np.signbit(a[0]).any() and not np.signbit(v[1]).any()

    def test_draw_is_one_choice_call(self):
        probabilities = (0.2, 0.5, 0.3)
        modes = sample_mask_modes(np.random.default_rng(4), 64, probabilities)
        expected = np.random.default_rng(4).choice(3, size=64, p=np.asarray(probabilities))
        assert np.array_equal(modes, expected)

    def test_unknown_mode(self, rng):
        with pytest.raises(ConfigurationError):
            apply_masks(rng.normal(size=(2, 4)), rng.normal(size=(2, 6)), [0, 3])


class TestClipGlobalNorm:
    def test_below_threshold_unchanged(self):
        grads = {"w": np.array([3.0])}
        clipped, norm = clip_global_norm(grads, 5.0)
        assert clipped["w"] is grads["w"]
        assert norm == pytest.approx(3.0)

    def test_scales_to_max_norm(self):
        grads = {"w": np.array([3.0, 4.0])}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert np.allclose(clipped["w"], [0.6, 0.8])
        assert norm == pytest.approx(5.0)

    def test_scales_in_place(self):
        grads = {"w": np.array([3.0, 4.0]), "b": np.array([0.0])}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert clipped["w"] is grads["w"]
        assert norm == 5.0
        assert np.array_equal(clipped["w"], np.array([3.0, 4.0]) * (1.0 / 5.0))

    def test_zero_gradients(self):
        grads = {"w": np.zeros(3)}
        clipped, norm = clip_global_norm(grads, 5.0)
        assert np.array_equal(clipped["w"], np.zeros(3))
        assert norm == 0.0

    def test_never_increases_norm(self, rng):
        for _ in range(20):
            grads = {f"p{i}": rng.normal(size=4) * 10 for i in range(3)}
            clipped, _ = clip_global_norm(grads, 5.0)
            total = np.sqrt(sum(np.sum(g**2) for g in clipped.values()))
            assert total <= 5.0 + 1e-9


class TestAdamW:
    def test_zero_grad_zero_decay_fixed_point(self):
        config = TrainingConfig(weight_decay=0.0)
        opt = AdamW(config, 2)
        p = np.array([1.0, -2.0])
        opt.step(p, np.zeros(2), config.learning_rate)
        assert np.array_equal(p, [1.0, -2.0])

    def test_pure_weight_decay(self):
        config = TrainingConfig()  # lr 0.001, wd 0.01
        opt = AdamW(config, 1)
        p = np.array([1.0])
        opt.step(p, np.zeros(1), config.learning_rate)
        assert p[0] == pytest.approx(0.99999, abs=1e-12)

    def test_first_step_matches_scalar_reference(self):
        config = TrainingConfig()
        opt = AdamW(config, 1)
        params = {"p": np.array([2.0])}
        opt.step(params["p"], np.array([1.0]), config.learning_rate)
        # scalar reference computed independently
        m = (1 - 0.9) * 1.0
        v = (1 - 0.999) * 1.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        p = 2.0 - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
        p -= 0.001 * 0.01 * p
        assert params["p"][0] == pytest.approx(p, abs=1e-15)

    def test_shape_mismatch(self):
        opt = AdamW(TrainingConfig(), 3)
        with pytest.raises(ConsistencyError):
            opt.step(np.zeros(3), np.zeros(4), 0.001)

    def test_two_steps_match_reference_loop(self, rng):
        config = TrainingConfig()
        opt = AdamW(config, 4)
        p0 = rng.normal(size=4)
        grads = [rng.normal(size=4), rng.normal(size=4)]
        params = {"p": p0.copy()}
        for g in grads:
            opt.step(params["p"], g, config.learning_rate)
        # independent reference
        p = p0.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            p = p - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
            p = p - 0.001 * 0.01 * p
        assert np.allclose(params["p"], p, atol=1e-14)

    def test_decay_reads_the_updated_parameter(self):
        # The decay multiplies the parameter after the Adam update, not
        # theta_{t-1} as in arXiv 1711.05101, Alg. 2; the two forms differ.
        lr, wd, b1, b2, eps = 0.1, 0.5, 0.9, 0.999, 1e-8
        config = TrainingConfig(learning_rate=lr, weight_decay=wd)
        opt = AdamW(config, 1)
        p = np.array([0.75])
        after, before, m, v = 0.75, 0.75, 0.0, 0.0
        for t, g in enumerate([0.3, -1.2], start=1):
            opt.step(p, np.array([g]), lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            update = lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            after -= update
            after -= lr * wd * after
            before = before - update - lr * wd * before
            assert p[0] == after
        assert after != before


class TestParamStore:
    def test_attributes_become_views_of_one_buffer(self, rng):
        head = make_head("mlp", rng)
        arc = ArcMarginHead.create(rng, 8, 5)
        state = {k: v.copy() for k, v in head.state().items()}
        protos = arc.prototypes.copy()
        originals = [weakref.ref(getattr(layer, attr))
                     for _, layer, attr in head.parameters()]
        store = ParamStore.of_model(head, arc)
        # the copies are exact and the per-tensor arrays are released
        assert all(ref() is None for ref in originals)
        for name, value in head.state().items():
            assert np.array_equal(value, state[name])
        assert np.array_equal(arc.prototypes, protos)
        for _, layer, attr in head.parameters():
            assert np.shares_memory(getattr(layer, attr), store.params)
        assert np.shares_memory(arc.prototypes, store.params)
        assert store.params.size == (
            sum(getattr(layer, attr).size for _, layer, attr in head.parameters())
            + arc.prototypes.size
        )

    def test_load_grads_keeps_the_gradient_order(self):
        owner = types.SimpleNamespace(a=np.zeros(2), b=np.zeros((2, 2)))
        store = ParamStore([("a", owner, "a"), ("b", owner, "b")])
        views = store.load_grads({"b": np.full((2, 2), 3.0), "a": np.array([1.0, 2.0])})
        assert list(views) == ["b", "a"]
        assert np.array_equal(store.grads, [1.0, 2.0, 3.0, 3.0, 3.0, 3.0])
        assert all(np.shares_memory(v, store.grads) for v in views.values())

    def test_load_grads_shape_mismatch(self):
        owner = types.SimpleNamespace(a=np.zeros(3))
        store = ParamStore([("a", owner, "a")])
        with pytest.raises(ConsistencyError):
            store.load_grads({"a": np.zeros(1)})  # would broadcast
        with pytest.raises(ConsistencyError):
            store.load_grads({"a": np.zeros(3), "b": np.zeros(3)})


class TestLrSchedule:
    @staticmethod
    def epoch_lrs(monkeypatch, accuracies):
        """Learning rate of each epoch of a train_run whose validation
        accuracies are scripted."""
        scripted = iter(accuracies)
        monkeypatch.setattr(training, "validate_accuracy",
                            lambda head, arc, samples: next(scripted))
        train, val = split_small()
        head = make_head("mean", substream(0, "init"), d_e=8)
        arc = ArcMarginHead.create(substream(0, "init-arc"), 8, 8)
        result = train_run(head, arc, train, val,
                           TrainingConfig(learning_rate=0.001,
                                          max_epochs=len(accuracies)))
        return [r.lr for r in result.records], result.best_epoch

    def test_improvement_keeps_lr(self, monkeypatch):
        lrs, best_epoch = self.epoch_lrs(monkeypatch, [0.5, 0.6, 0.1])
        assert lrs[2] == 0.001
        assert best_epoch == 1

    def test_tie_decays(self, monkeypatch):
        lrs, best_epoch = self.epoch_lrs(monkeypatch, [0.5, 0.5, 0.1])
        assert lrs[2] == pytest.approx(0.00095)
        assert best_epoch == 0

    def test_three_nonimproving_epochs(self, monkeypatch):
        lrs, _ = self.epoch_lrs(monkeypatch, [0.5, 0.5, 0.4, 0.45, 0.7, 0.1])
        assert lrs[4] == pytest.approx(0.001 * 0.95**3)
        # a new best after the decays keeps the decayed rate
        assert lrs[5] == pytest.approx(0.001 * 0.95**3)

    def test_first_epoch_no_decay(self, monkeypatch):
        # the first epoch is a new best even at zero accuracy
        lrs, best_epoch = self.epoch_lrs(monkeypatch, [0.0, 0.0])
        assert lrs == [0.001, 0.001]
        assert best_epoch == 0


class TestBatchLoss:
    def test_multiview_weights_degenerate(self, rng):
        head = make_head("multiview", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(6, 4))
        video = rng.normal(size=(6, 6))
        labels = rng.integers(0, 5, size=6)
        loss_joint, _ = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=1.0, lambda_video=0.0),
        )
        emb_a, _ = head.forward_modality("audio", audio, train=False)
        loss_audio, *_ = arc_margin_loss_grad_batch(arc, emb_a, labels)
        assert loss_joint == pytest.approx(loss_audio, abs=1e-12)

    def test_multiview_loss_decomposition(self, rng):
        head = make_head("multiview", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(6, 4))
        video = rng.normal(size=(6, 6))
        labels = rng.integers(0, 5, size=6)
        loss, _ = batch_loss(head, arc, audio, video, labels, TrainingConfig())
        la, _ = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=1.0, lambda_video=0.0),
        )
        lv, _ = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=0.0, lambda_video=1.0),
        )
        assert abs(loss - (0.5 * la + 0.5 * lv)) <= 1e-10

    def test_mean_loss_matches_composition_oracle(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(6, 4))
        video = rng.normal(size=(6, 6))
        labels = rng.integers(0, 5, size=6)
        # masks drawn with probability 1 for "none" leave the inputs unmasked
        loss, _ = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(mask_probabilities=(0.0, 0.0, 1.0)),
            mask_rng=np.random.default_rng(0),
        )
        # independent composition: project, average, arc-margin per sample
        emb = 0.5 * (
            audio @ head.proj_audio.weight.T + head.proj_audio.bias
            + video @ head.proj_video.weight.T + head.proj_video.bias
        )
        expected, *_ = arc_margin_loss_grad_batch(arc, emb, labels)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_duplicate_sample_mean_invariance(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(4, 4))
        video = rng.normal(size=(4, 6))
        labels = rng.integers(0, 5, size=4)
        loss1, _ = batch_loss(head, arc, audio, video, labels, TrainingConfig())
        loss2, _ = batch_loss(
            head, arc, np.vstack([audio, audio]), np.vstack([video, video]),
            np.concatenate([labels, labels]), TrainingConfig(),
        )
        assert loss1 == pytest.approx(loss2, abs=1e-12)


class TestValidateAccuracy:
    def test_oracle_prototypes(self):
        # Head that passes the audio embedding through; prototypes placed
        # exactly at the class embeddings.
        import avfusion.layers as layers

        head = MeanFusionHead(
            layers.LinearLayer(weight=2 * np.eye(3), bias=np.zeros(3)),
            layers.LinearLayer(weight=np.zeros((3, 3)), bias=np.zeros(3)),
        )
        protos = np.eye(3)
        arc = ArcMarginHead(prototypes=protos)
        samples = [
            Sample(f"id{i}", f"id{i}-s0", np.eye(3)[i], np.zeros(3))
            for i in range(3)
        ]
        assert validate_accuracy(head, arc, samples) == 1.0

    def test_single_class(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3)
        arc = ArcMarginHead.create(rng, 3, 1)
        samples = [
            Sample("id0", f"id0-s{j}", rng.normal(size=4), rng.normal(size=6))
            for j in range(5)
        ]
        assert validate_accuracy(head, arc, samples) == 1.0

    def test_random_prototypes_chance_level(self):
        rng = np.random.default_rng(11)
        n_classes, n = 4, 2000
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=8)
        arc = ArcMarginHead.create(rng, 8, n_classes)
        samples = [
            Sample(f"id{int(i % n_classes)}", f"s{i}",
                   rng.normal(size=4), rng.normal(size=6))
            for i in range(n)
        ]
        acc = validate_accuracy(head, arc, samples)
        p = 1 / n_classes
        assert abs(acc - p) <= 3 * np.sqrt(p * (1 - p) / n) + 0.02


def split_small(seed=0, **kwargs):
    samples = small_dataset(seed=seed, **kwargs)
    return split_dataset(samples, 0.25, seed)


class TestTrainRun:
    def test_zero_learning_rate_is_identity(self, rng):
        train, val = split_small()
        head = make_head("mean", rng, d_e=8)
        arc = ArcMarginHead.create(rng, 8, 8)
        before = {k: v.copy() for k, v in head.state().items()}
        protos_before = arc.prototypes.copy()
        result = train_run(head, arc, train, val,
                           TrainingConfig(learning_rate=0.0, max_epochs=2))
        for name, value in head.state().items():
            assert np.array_equal(value, before[name])
        assert np.array_equal(arc.prototypes, protos_before)
        for name, value in result.best_head.state().items():
            assert np.array_equal(value, before[name])

    def test_seeded_determinism(self):
        train, val = split_small()
        results = []
        for _ in range(2):
            head = make_head("mean", substream(3, "init"), d_e=8)
            arc = ArcMarginHead.create(substream(3, "init-arc"), 8, 8)
            results.append(
                train_run(head, arc, train, val,
                          TrainingConfig(learning_rate=0.05, max_epochs=3, seed=3))
            )
        r1, r2 = results
        assert [
            (r.epoch, r.mean_loss, r.val_accuracy, r.lr, r.is_best)
            for r in r1.records
        ] == [
            (r.epoch, r.mean_loss, r.val_accuracy, r.lr, r.is_best)
            for r in r2.records
        ]
        for name, value in r1.best_head.state().items():
            assert np.array_equal(value, r2.best_head.state()[name])

    def test_monotone_lr_and_single_best(self):
        train, val = split_small()
        head = make_head("mean", substream(0, "init"), d_e=8)
        arc = ArcMarginHead.create(substream(0, "init-arc"), 8, 8)
        result = train_run(head, arc, train, val,
                           TrainingConfig(learning_rate=0.05, max_epochs=5))
        lrs = [r.lr for r in result.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert sum(r.is_best for r in result.records) == 1
        assert result.records[result.best_epoch].is_best

    def test_overlapping_splits_rejected(self, rng):
        train, val = split_small()
        head = make_head("mean", rng, d_e=8)
        arc = ArcMarginHead.create(rng, 8, 8)
        with pytest.raises(ConfigurationError):
            train_run(head, arc, train, train[:5], TrainingConfig())

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_single_sample_loss_decreases(self, kind):
        rng = np.random.default_rng(17)
        head = make_head(kind, rng, d_a=8, d_v=8, d_e=4, hidden=6, dropout_p=0.0)
        if kind == "mlp":
            # an identical-row batch normalizes to the beta vectors; nonzero
            # betas keep the embedding (and its gradient) away from zero
            for bn in head.norms:
                bn.beta = rng.normal(size=bn.dim)
        arc = ArcMarginHead.create(rng, 4, 3)
        audio = np.tile(rng.normal(size=8), (4, 1))
        video = np.tile(rng.normal(size=8), (4, 1))
        labels = np.zeros(4, dtype=int)
        config = TrainingConfig(learning_rate=1e-3)

        def eval_loss():
            # train-mode measurement (dropout is off) so the MLP's batch
            # statistics match the ones training actually optimizes against
            from conftest import composed_loss

            return composed_loss(head, arc, audio, video, labels,
                                 rng.bit_generator.state)

        before = eval_loss()
        store = ParamStore.of_model(head, arc)
        opt = AdamW(config, store.params.size)
        for _ in range(5):
            _, grads = batch_loss(head, arc, audio, video, labels, config, rng=rng)
            grads, _ = clip_global_norm(store.load_grads(grads), config.clip_norm)
            opt.step(store.params, store.grads, config.learning_rate)
        assert eval_loss() < before

    def test_separable_data_smoke(self):
        # 10 well-separated identities must be nearly solved in 10 epochs.
        config = DatasetConfig(
            n_identities=10, samples_per_identity=20,
            audio_noise_sigma=0.1, video_noise_sigma=0.1, seed=0,
        )
        samples = sample_dataset(generate_identities(config), config)
        train, val = split_dataset(samples, 0.2, 0)
        head = make_head("mean", substream(0, "init"), d_e=8)
        arc = ArcMarginHead.create(substream(0, "init-arc"), 8, 10)
        result = train_run(
            head, arc, train, val,
            TrainingConfig(learning_rate=0.1, batch_size=32, seed=0),
        )
        assert max(r.val_accuracy for r in result.records) > 0.9
