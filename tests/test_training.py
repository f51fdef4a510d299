import collections
import copy
import dataclasses
import io
import math
import tempfile
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from avfusion import heads, training
from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.cli import FLAG_SPECS
from avfusion.data import (
    DatasetConfig,
    SampleSet,
    generate_identities,
    identity_codes,
    sample_dataset,
    split_dataset,
)
from avfusion.errors import ConfigurationError, ConsistencyError, DegenerateInputError
from avfusion.heads import (
    MASK_AUDIO,
    MASK_NONE,
    MASK_VIDEO,
    MeanFusionHead,
    sample_mask_modes,
)
from avfusion.evaluation import TrialConfig
from avfusion.layers import BatchNormLayer, DropoutSpec, LinearLayer
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

from conftest import loop_batch_loss, make_head, model_grads, small_dataset, store_names


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

    def test_input_block_zeroes_the_masked_modality(self, rng):
        audio = rng.normal(size=(3, 4))
        video = rng.normal(size=(3, 6))
        head = MeanFusionHead.create(rng, 4, 6, 3, dropout_p=0.0)
        _, cache = head.forward(audio, video, train=True, rng=rng,
                                modes=np.array([MASK_AUDIO, MASK_VIDEO, MASK_NONE]))
        # the projections' inputs are the two sides of the masked input block
        a, v = cache["a"], cache["v"]
        assert np.array_equal(a[0], np.zeros(4))
        assert np.array_equal(v[1], np.zeros(6))
        assert np.array_equal(a[2], audio[2])
        assert np.array_equal(v[2], video[2])
        # inputs are untouched
        assert not np.array_equal(a[0], audio[0])
        # the zeros are +0.0, as the per-sample loop wrote them
        assert not np.signbit(a[0]).any() and not np.signbit(v[1]).any()

    def test_draw_is_one_choice_call(self):
        generator = np.random.default_rng(4)
        modes = sample_mask_modes(generator, 64)
        expected_generator = np.random.default_rng(4)
        thirds = np.asarray((1 / 3, 1 / 3, 1 / 3))
        expected = expected_generator.choice(3, size=64, p=thirds)
        assert np.array_equal(modes, expected)
        # the stream is left where the one call leaves it
        assert generator.random() == expected_generator.random()


def scratch_for(grads):
    """A clip scratch array as large as the largest gradient."""
    return np.empty(max(g.size for g in grads.values()))


class TestClipGlobalNorm:
    def test_below_threshold_unchanged(self):
        grads = {"w": np.array([3.0])}
        clipped, norm = clip_global_norm(grads, 5.0, scratch_for(grads))
        assert clipped["w"] is grads["w"]
        assert norm == pytest.approx(3.0)

    def test_scales_to_max_norm(self):
        grads = {"w": np.array([3.0, 4.0])}
        clipped, norm = clip_global_norm(grads, 1.0, scratch_for(grads))
        assert np.allclose(clipped["w"], [0.6, 0.8])
        assert norm == pytest.approx(5.0)

    def test_scales_in_place(self):
        grads = {"w": np.array([3.0, 4.0]), "b": np.array([0.0])}
        clipped, norm = clip_global_norm(grads, 1.0, scratch_for(grads))
        assert clipped["w"] is grads["w"]
        assert norm == 5.0
        assert np.array_equal(clipped["w"], np.array([3.0, 4.0]) * (1.0 / 5.0))

    def test_zero_gradients(self):
        grads = {"w": np.zeros(3)}
        clipped, norm = clip_global_norm(grads, 5.0, scratch_for(grads))
        assert np.array_equal(clipped["w"], np.zeros(3))
        assert norm == 0.0

    def test_never_increases_norm(self, rng):
        for _ in range(20):
            grads = {f"p{i}": rng.normal(size=4) * 10 for i in range(3)}
            clipped, _ = clip_global_norm(grads, 5.0, scratch_for(grads))
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

    def test_grad_views_keep_the_given_order(self):
        owner = types.SimpleNamespace(a=np.zeros(2), b=np.zeros((2, 2)))
        store = ParamStore([("b", owner, "b"), ("a", owner, "a")])
        views = store.grad_views
        views["b"][...] = 3.0
        views["a"][...] = [1.0, 2.0]
        assert list(views) == ["b", "a"]
        assert np.array_equal(store.grads, [3.0, 3.0, 3.0, 3.0, 1.0, 2.0])
        assert all(np.shares_memory(v, store.grads) for v in views.values())

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_layout_is_the_backward_order(self, rng, kind):
        """The store lays the tensors out in the order in which the
        reference backward pass returns their gradients, the order clipping
        sums in, with the prototypes last."""
        head = make_head(kind, rng)
        arc = ArcMarginHead.create(rng, 8, 5)
        audio, video = rng.normal(size=(6, 16)), rng.normal(size=(6, 32))
        _, reference = loop_batch_loss(head, arc, audio, video, rng.integers(0, 5, size=6),
                                       TrainingConfig(), rng=rng)
        order = list(ParamStore.of_model(head, arc).grad_views)
        assert order == list(store_names(reference))
        assert order[-1] == "arc.prototypes"


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

    def test_one_best_snapshot_at_a_time(self, monkeypatch):
        # every epoch improves: no copy of the model is made in memory, and
        # each best epoch before the last writes over the one spilled
        # snapshot; the last epoch is not spilled, and nothing is read back
        def no_deepcopy(obj, memo=None):
            raise AssertionError("the model was deep-copied")

        monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
        log = spill_log(monkeypatch)
        _, best_epoch = self.epoch_lrs(monkeypatch, [0.1, 0.2, 0.3])
        assert best_epoch == 2
        assert len(log) == 2 and log[0] == log[1]
        assert [(op, offset) for op, offset, _ in log] == [("write", 0)] * 2

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
        loss_joint = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=1.0, lambda_video=0.0), model_grads(head, arc),
        )
        emb_a, _ = head.forward_modality("audio", audio)
        loss_audio, *_ = arc_margin_loss_grad_batch(arc, emb_a, labels)
        assert loss_joint == pytest.approx(loss_audio, abs=1e-12)

    def test_multiview_loss_decomposition(self, rng):
        head = make_head("multiview", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(6, 4))
        video = rng.normal(size=(6, 6))
        labels = rng.integers(0, 5, size=6)
        grads = model_grads(head, arc)
        loss = batch_loss(head, arc, audio, video, labels, TrainingConfig(), grads)
        la = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=1.0, lambda_video=0.0), grads,
        )
        lv = batch_loss(
            head, arc, audio, video, labels,
            TrainingConfig(lambda_audio=0.0, lambda_video=1.0), grads,
        )
        assert abs(loss - (0.5 * la + 0.5 * lv)) <= 1e-10

    def test_mean_loss_matches_composition_oracle(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(6, 4))
        video = rng.normal(size=(6, 6))
        labels = rng.integers(0, 5, size=6)
        # without a mask generator the inputs stay unmasked
        loss = batch_loss(
            head, arc, audio, video, labels, TrainingConfig(), model_grads(head, arc),
            mask_rng=None,
        )
        # independent composition: project, average, arc-margin per sample
        emb = 0.5 * (
            audio @ head.proj_audio.weight.T + head.proj_audio.bias
            + video @ head.proj_video.weight.T + head.proj_video.bias
        )
        expected, *_ = arc_margin_loss_grad_batch(arc, emb, labels)
        assert loss == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_forms_no_input_gradient_of_the_first_layers(self, kind, monkeypatch):
        rng = np.random.default_rng(9)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        arc = ArcMarginHead.create(rng, 3, 5)
        formed = []
        backward = LinearLayer.backward

        def recording(layer, *args, **kwargs):
            result = backward(layer, *args, **kwargs)
            formed.append((layer, result[0] is not None))
            return result

        monkeypatch.setattr(LinearLayer, "backward", recording)
        batch_loss(head, arc, rng.normal(size=(6, 4)), rng.normal(size=(6, 6)),
                   rng.integers(0, 5, size=6), TrainingConfig(), model_grads(head, arc),
                   mask_rng=rng, rng=rng)
        first = [head.layers[0]] if kind == "mlp" else [head.proj_audio, head.proj_video]
        assert len(formed) == {"mean": 2, "mlp": 3, "multiview": 3}[kind]
        for layer, has_input_grad in formed:
            assert has_input_grad == all(layer is not f for f in first)

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_one_arc_margin_call_per_step(self, kind, monkeypatch):
        # every loss term goes through one stacked arc-margin call, and the
        # multi-view paths through one shared-classifier forward and backward
        rng = np.random.default_rng(10)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        arc = ArcMarginHead.create(rng, 3, 5)
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(training, "arc_margin_loss_grad_batch", recording(
            "loss", arc_margin_loss_grad_batch))
        for method in ("forward", "backward"):
            monkeypatch.setattr(LinearLayer, method, recording(
                method, getattr(LinearLayer, method)))
        batch_loss(head, arc, rng.normal(size=(6, 4)), rng.normal(size=(6, 6)),
                   rng.integers(0, 5, size=6), TrainingConfig(), model_grads(head, arc),
                   mask_rng=rng, rng=rng)
        assert [name for name, _ in calls].count("loss") == 1
        if kind == "multiview":
            shared = [name for name, layer in calls if layer is head.shared_classifier]
            assert shared == ["forward", "backward"]

    @pytest.mark.parametrize("kind, expected", [
        ("mean", {"LinearLayer.forward": 2, "LinearLayer.backward": 2,
                  "DropoutSpec.apply": 2}),
        ("mlp", {"LinearLayer.forward": 3, "LinearLayer.backward": 3,
                 "BatchNormLayer.forward": 3, "BatchNormLayer.backward": 3,
                 "leaky_relu": 3, "leaky_relu_backward": 3, "DropoutSpec.apply": 4}),
        ("multiview", {"LinearLayer.forward": 3, "LinearLayer.backward": 3,
                       "DropoutSpec.apply": 1}),
    ])
    def test_layer_calls_per_step(self, kind, expected, monkeypatch):
        # the layer functions a benchmark trace counts and times, patched
        # where the heads look them up: one call per layer and pass
        rng = np.random.default_rng(11)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        arc = ArcMarginHead.create(rng, 3, 5)
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner in (LinearLayer, BatchNormLayer, DropoutSpec):
            for method in ("forward", "backward", "apply"):
                if method in vars(owner):
                    monkeypatch.setattr(owner, method, counting(
                        f"{owner.__name__}.{method}", getattr(owner, method)))
        for name in ("leaky_relu", "leaky_relu_backward"):
            monkeypatch.setattr(heads, name, counting(name, getattr(heads, name)))
        batch_loss(head, arc, rng.normal(size=(6, 4)), rng.normal(size=(6, 6)),
                   rng.integers(0, 5, size=6), TrainingConfig(), model_grads(head, arc),
                   mask_rng=rng, rng=rng)
        assert calls == expected

    def test_duplicate_sample_mean_invariance(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3, dropout_p=0.0)
        arc = ArcMarginHead.create(rng, 3, 5)
        audio = rng.normal(size=(4, 4))
        video = rng.normal(size=(4, 6))
        labels = rng.integers(0, 5, size=4)
        grads = model_grads(head, arc)
        loss1 = batch_loss(head, arc, audio, video, labels, TrainingConfig(), grads)
        loss2 = batch_loss(
            head, arc, np.vstack([audio, audio]), np.vstack([video, video]),
            np.concatenate([labels, labels]), TrainingConfig(), grads,
        )
        assert loss1 == pytest.approx(loss2, abs=1e-12)


class TestStepMemory:
    def test_mlp_step_holds_one_copy_of_each_activation(self):
        # With hidden = d_a + d_v every activation is the size of the input
        # block.  The backward pass of stage 2 is the step's peak: the input
        # block, five stored activations (stage 1's normalised values,
        # dropout mask and output; stage 2's normalised values and dropout
        # mask), and batch norm's upstream gradient and its two work arrays
        # are 9 blocks; sign masks and the narrow arrays of the output stage
        # and the loss add about half a block.
        rng = np.random.default_rng(14)
        n, d_a, d_v, hidden = 128, 64, 448, 512
        head = make_head("mlp", rng, d_a=d_a, d_v=d_v, d_e=32, hidden=hidden)
        arc = ArcMarginHead.create(rng, 32, 50)
        grads = model_grads(head, arc)
        audio, video = rng.normal(size=(n, d_a)), rng.normal(size=(n, d_v))
        labels = rng.integers(0, 50, size=n)

        def step():
            batch_loss(head, arc, audio, video, labels, TrainingConfig(), grads,
                       mask_rng=rng, rng=rng)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = n * (d_a + d_v) * 8
        assert peak < 10 * block, f"peak {peak / block:.2f} input blocks"


def validation_of(samples):
    """(audio, video, labels) of a set, labels indexing its sorted identities."""
    return samples.audio, samples.video, identity_codes(samples.identity_ids)[0]


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
        samples = SampleSet(np.eye(3), np.zeros((3, 3)), [f"id{i}" for i in range(3)],
                            [f"id{i}-s0" for i in range(3)])
        assert validate_accuracy(head, arc, validation_of(samples)) == 1.0

    def test_single_class(self, rng):
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3)
        arc = ArcMarginHead.create(rng, 3, 1)
        audio = np.empty((5, 4))
        video = np.empty((5, 6))
        for j in range(5):  # the draws of the per-sample rows
            audio[j], video[j] = rng.normal(size=4), rng.normal(size=6)
        samples = SampleSet(audio, video, ["id0"] * 5, [f"id0-s{j}" for j in range(5)])
        assert validate_accuracy(head, arc, validation_of(samples)) == 1.0

    def test_random_prototypes_chance_level(self):
        rng = np.random.default_rng(11)
        n_classes, n = 4, 2000
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=8)
        arc = ArcMarginHead.create(rng, 8, n_classes)
        audio = np.empty((n, 4))
        video = np.empty((n, 6))
        for i in range(n):  # the draws of the per-sample rows
            audio[i], video[i] = rng.normal(size=4), rng.normal(size=6)
        samples = SampleSet(audio, video, [f"id{i % n_classes}" for i in range(n)],
                            [f"s{i}" for i in range(n)])
        acc = validate_accuracy(head, arc, validation_of(samples))
        p = 1 / n_classes
        assert abs(acc - p) <= 3 * np.sqrt(p * (1 - p) / n) + 0.02


def split_small(seed=0, **kwargs):
    samples = small_dataset(seed=seed, **kwargs)
    return split_dataset(samples, 0.25, seed)


def spill_log(monkeypatch, spill=io.BytesIO):
    """The list of ("write", offset, bytes) and ("read", offset, bytes) of
    every write and read of train_run's spill file, which becomes an
    in-memory `spill` file."""
    log = []

    class Logged(spill):
        def write(self, data):
            log.append(("write", self.tell(), memoryview(data).nbytes))
            return super().write(data)

        def readinto(self, buffer):
            offset = self.tell()
            n = super().readinto(buffer)
            log.append(("read", offset, n))
            return n

    monkeypatch.setattr(tempfile, "TemporaryFile", Logged)
    return log


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

    @pytest.mark.parametrize("field, value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", math.nan),
        ("eps", math.nan), ("eps", math.inf),
        ("mask_probabilities", (math.nan, 0.5, 0.5)),
    ])
    def test_config_field_without_a_flag_rejected(self, field, value):
        # The Adam moments and the mask mix are constants: no config holds them.
        with pytest.raises(TypeError):
            TrainingConfig(**{field: value})

    def test_every_config_field_has_a_flag(self):
        # Each setting is declared once: the flag of a field's name has the
        # field's type and default, except the common --seed.
        pairs = [(command, settings, f.name, f.name) for command, settings in (
            ("generate", DatasetConfig), ("train", TrainingConfig), ("evaluate", TrialConfig),
        ) for f in dataclasses.fields(settings)]
        pairs += [("train", ArcMarginHead, "scale", "scale"),
                  ("train", ArcMarginHead, "margin", "margin"),
                  ("train", DropoutSpec, "probability", "dropout")]
        for command, settings, name, dest in pairs:
            flags = {flag.dest: flag for flag in FLAG_SPECS[command]}
            assert dest in flags, (command, dest)
            field = {f.name: f for f in dataclasses.fields(settings)}[name]
            if name != "seed":
                assert (flags[dest].type, flags[dest].default) == (field.type, field.default), (
                    command, dest)
                assert type(field.default) is field.type, (settings, name)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("learning_rate", "weight_decay", "clip_norm",
                                     "lr_decay_factor", "lambda_audio", "lambda_video")
        for value in (math.nan, math.inf, -1.0)
    ] + [(field, value) for field in ("batch_size", "max_epochs") for value in (math.nan, 0)])
    def test_out_of_range_setting_rejected_when_built(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainingConfig(**{field: value})

    def test_overlapping_splits_rejected(self, rng):
        train, val = split_small()
        head = make_head("mean", rng, d_e=8)
        arc = ArcMarginHead.create(rng, 8, 8)
        with pytest.raises(ConfigurationError):
            train_run(head, arc, train, train[:5], TrainingConfig())

    def test_empty_training_set_is_data_error(self, rng):
        train, val = split_small()
        head = make_head("mean", rng, d_e=8)
        arc = ArcMarginHead.create(rng, 8, 8)
        with pytest.raises(DegenerateInputError, match="empty training set"):
            train_run(head, arc, train[:0], val, TrainingConfig())

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
        grads = store.grad_views
        opt = AdamW(config, store.params.size)
        scratch = scratch_for(grads)
        for _ in range(5):
            batch_loss(head, arc, audio, video, labels, config, grads, rng=rng)
            clip_global_norm(grads, config.clip_norm, scratch)
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


class TestBestEpoch:
    """The best epoch is kept in a spill file, and the head and arc head
    passed in are returned holding it."""

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    @pytest.mark.parametrize("accuracies, restored", [
        ([0.2, 0.5, 0.4], True),  # the best epoch before the last is read back
        ([0.2, 0.1, 0.3], False),  # the best epoch is the last: nothing is read
        ([0.3], False),  # one epoch: nothing is spilled
    ])
    def test_best_epoch_state_bit_for_bit(self, monkeypatch, kind, accuracies, restored):
        scripted, seen = iter(accuracies), []

        def validate(head, arc, validation):
            seen.append(({k: v.tobytes() for k, v in head.state().items()},
                         arc.prototypes.tobytes()))
            return next(scripted)

        monkeypatch.setattr(training, "validate_accuracy", validate)
        train, val = split_small()
        head = make_head(kind, substream(0, "init"), d_e=8)
        arc = ArcMarginHead.create(substream(0, "init-arc"), 8, 8)
        result = train_run(head, arc, train, val,
                           TrainingConfig(learning_rate=0.05, max_epochs=len(accuracies)))
        best = int(np.argmax(accuracies))
        assert result.best_epoch == best
        assert (result.best_head, result.best_arc) == (head, arc)
        state, protos = seen[best]
        assert {k: v.tobytes() for k, v in head.state().items()} == state
        assert arc.prototypes.tobytes() == protos
        if restored:  # the last epoch's state differs from what was restored
            assert seen[-1][0] != state and seen[-1][1] != protos
            if kind == "mlp":
                assert seen[-1][0]["bn1.running_mean"] != state["bn1.running_mean"]

    @pytest.mark.parametrize("kind, d_v, d_e", [
        ("mean", 2048, 128), ("mlp", 2048, 128), ("multiview", 2048, 128),
        ("multiview", 1024, 512)], ids=["mean", "mlp", "multiview", "multiview-512"])
    def test_no_model_sized_copy(self, monkeypatch, kind, d_v, d_e):
        """A run whose first epoch is best, and read back, peaks under 4.5
        times the parameter buffer's bytes plus its data: the parameters,
        gradients and AdamW's two moments, one batch and the scratch.  A copy
        of the best epoch in memory would add a fifth buffer.  At d_e = 512
        the multi-view shared classifier's weight is 28 % of the parameters,
        and a stacked temporary of its two terms' weight gradients read 4.65
        buffers, where adding the second term in place reads 4.37."""
        config = DatasetConfig(n_identities=4, samples_per_identity=6, d_a=256, d_v=d_v)
        train, val = split_dataset(sample_dataset(generate_identities(config), config),
                                   0.25, 0)
        head = make_head(kind, substream(0, "init"), d_a=256, d_v=d_v, d_e=d_e,
                         hidden=256)
        arc = ArcMarginHead.create(substream(0, "init-arc"), d_e, 4)
        store_bytes = 8 * (sum(getattr(layer, attr).size
                               for _, layer, attr in head.parameters()) + arc.prototypes.size)
        data = sum(a.nbytes for a in (train.audio, train.video, val.audio, val.video))
        scripted = iter([0.5, 0.1])
        monkeypatch.setattr(training, "validate_accuracy", lambda *args: next(scripted))
        tracemalloc.start()
        try:
            result = train_run(head, arc, train, val,
                               TrainingConfig(batch_size=8, max_epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_epoch == 0
        assert peak < 4.5 * store_bytes + data, f"peak {(peak - data) / store_bytes:.2f} stores"

    def test_short_read_is_os_error(self, monkeypatch):
        class Truncated(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-1])

        log = spill_log(monkeypatch, Truncated)
        monkeypatch.setattr(training, "validate_accuracy",
                            lambda *args, scripted=iter([0.5, 0.1]): next(scripted))
        train, val = split_small()
        head = make_head("mean", substream(0, "init"), d_e=8)
        arc = ArcMarginHead.create(substream(0, "init-arc"), 8, 8)
        with pytest.raises(OSError, match="could not be read back"):
            train_run(head, arc, train, val, TrainingConfig(max_epochs=2))
        size = log[0][2]
        assert log == [("write", 0, size), ("read", 0, size - 1)]
