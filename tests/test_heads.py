import numpy as np
import pytest

from avfusion.arcmargin import ArcMarginHead
from avfusion.errors import (
    ConsistencyError,
    DegenerateBatchError,
    DegenerateInputError,
    ShapeError,
)
from avfusion.heads import MeanFusionHead, MlpFusionHead, MultiViewHead
from avfusion.layers import BN_EPS, BatchNormLayer, DropoutSpec, LinearLayer

from conftest import LOSS_CONFIG, dropout_state, gradient_check, make_head, replay


def identity_linear(dim):
    return LinearLayer(weight=np.eye(dim), bias=np.zeros(dim))


def embed_one(head, audio, video):
    """Eval-mode embedding of one sample; None is a null modality."""
    rows = [None if x is None else np.atleast_2d(x) for x in (audio, video)]
    return head.embed(*rows)[0]


def gradient_arrays(head):
    """An array shaped like each trained tensor, by name, filled with NaN so
    that an entry a backward pass leaves unwritten shows."""
    return {name: np.full_like(getattr(layer, attr), np.nan)
            for name, layer, attr in head.parameters()}


def null_embedding(head):
    """The embedding of a sample with both modalities null."""
    return head.forward(np.zeros((1, head.d_a)), np.zeros((1, head.d_v)))[0][0]


class TestMeanFusion:
    def test_identity_projections(self):
        head = MeanFusionHead(identity_linear(2), identity_linear(2))
        out = embed_one(head, np.array([2.0, 0.0]), np.array([0.0, 2.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_null_audio_is_half_video_projection(self, rng):
        head = MeanFusionHead.create(rng, 4, 6, 3)
        head.proj_audio.bias = np.zeros(3)
        head.proj_video.bias = np.zeros(3)
        v = rng.normal(size=6)
        out = embed_one(head, None, v)
        assert np.allclose(out, 0.5 * (head.proj_video.weight @ v))

    def test_zero_weights_give_mean_bias(self, rng):
        b_a = np.array([1.0, 2.0])
        b_v = np.array([3.0, -4.0])
        head = MeanFusionHead(
            LinearLayer(weight=np.zeros((2, 4)), bias=b_a),
            LinearLayer(weight=np.zeros((2, 6)), bias=b_v),
        )
        out = embed_one(head, rng.normal(size=4), rng.normal(size=6))
        assert np.array_equal(out, (b_a + b_v) / 2)

    def test_double_null_is_error(self, rng):
        head = MeanFusionHead.create(rng, 4, 6, 3)
        with pytest.raises(DegenerateInputError):
            head.embed(None, None)

    def test_decomposition_identity(self, rng):
        head = MeanFusionHead.create(rng, 4, 6, 3)
        a = rng.normal(size=4)
        v = rng.normal(size=6)
        joint = embed_one(head, a, v)
        parts = embed_one(head, a, None) + embed_one(head, None, v) - null_embedding(head)
        assert np.allclose(joint, parts, atol=1e-14)

    def test_null_equals_explicit_zero(self, rng):
        head = MeanFusionHead.create(rng, 4, 6, 3)
        v = rng.normal(size=(10, 6))
        out_null, _ = head.forward(None, v)
        out_zero, _ = head.forward(np.zeros((10, 4)), v)
        assert np.array_equal(out_null, out_zero)


def mlp_reference_forward(head, x):
    """Independent eval-mode re-implementation for oracle comparison."""
    for lin, bn in zip(head.layers, head.norms):
        z = x @ lin.weight.T + lin.bias
        r = np.where(z >= 0, z, head.leaky_slope * z)
        x = bn.gamma * (r - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
        x = x + bn.beta
    return x


class TestMlpFusion:
    def test_zero_network(self, rng):
        head = MlpFusionHead.create(rng, 3, 3, 2, hidden=4)
        for lin in head.layers:
            lin.weight[:] = 0.0
            lin.bias[:] = 0.0
        out = embed_one(head, rng.normal(size=3), rng.normal(size=3))
        assert np.array_equal(out, np.zeros(2))

    def test_toy_network_matches_reference(self):
        rng = np.random.default_rng(21)
        head = MlpFusionHead.create(rng, 2, 2, 2, hidden=2)
        # Give the running stats and affine parameters nontrivial values.
        for bn in head.norms:
            bn.gamma = rng.uniform(0.5, 1.5, size=2)
            bn.beta = rng.normal(size=2)
            bn.running_mean = rng.normal(size=2) * 0.1
            bn.running_var = rng.uniform(0.5, 2.0, size=2)
        a = np.array([1.0, 0.0])
        v = np.array([1.0, 0.0])
        out = embed_one(head, a, v)
        expected = mlp_reference_forward(head, np.concatenate([a, v])[None, :])[0]
        assert np.allclose(out, expected, atol=1e-12)

    def test_null_equals_explicit_zero(self, rng):
        head = MlpFusionHead.create(rng, 4, 6, 3, hidden=5)
        a = rng.normal(size=(10, 4))
        out_null, _ = head.forward(a, None)
        out_zero, _ = head.forward(a, np.zeros((10, 6)))
        assert np.array_equal(out_null, out_zero)

    def test_train_single_sample_batch_rejected(self, rng):
        head = MlpFusionHead.create(rng, 4, 6, 3, hidden=5, dropout_p=0.0)
        with pytest.raises(DegenerateBatchError):
            head.forward(np.ones((1, 4)), np.ones((1, 6)), train=True, rng=rng)

    @pytest.mark.parametrize("broken", ["layer", "norm"])
    def test_stages_that_do_not_chain_rejected(self, rng, broken):
        head = MlpFusionHead.create(rng, 4, 6, 3, hidden=5)
        layers, norms = list(head.layers), list(head.norms)
        if broken == "layer":
            layers[1] = LinearLayer.create(rng, 4, 5)
        else:
            norms[2] = BatchNormLayer.create(2)
        with pytest.raises(ShapeError):
            MlpFusionHead(layers, norms, 4)


class TestMultiView:
    def test_zero_input_zero_biases(self, rng):
        head = MultiViewHead.create(rng, 4, 6, 3)
        for lin in (head.proj_audio, head.proj_video, head.shared_classifier):
            lin.bias[:] = 0.0
        out = embed_one(head, np.zeros(4), None)
        assert np.array_equal(out, np.zeros(3))

    def test_identity_composition(self):
        head = MultiViewHead(identity_linear(3), identity_linear(3),
                             identity_linear(3))
        x = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(embed_one(head, x, None), x)

    def test_toy_hand_computed(self):
        rng = np.random.default_rng(31)
        head = MultiViewHead.create(rng, 2, 2, 2)
        x = np.array([1.0, -1.0])
        p = head.proj_audio.weight @ x + head.proj_audio.bias
        c = head.shared_classifier.weight @ p + head.shared_classifier.bias
        expected = np.maximum(c, 0.0)
        assert np.allclose(embed_one(head, x, None), expected)

    def test_joint_is_mean_of_paths(self, rng):
        head = MultiViewHead.create(rng, 4, 6, 3)
        a = rng.normal(size=4)
        v = rng.normal(size=6)
        joint = embed_one(head, a, v)
        expected = 0.5 * (embed_one(head, a, None) + embed_one(head, None, v))
        assert np.allclose(joint, expected)

    def test_joint_of_equal_paths(self):
        head = MultiViewHead(identity_linear(2), identity_linear(2),
                             identity_linear(2))
        x = np.array([1.0, 2.0])
        assert np.array_equal(embed_one(head, x, x), x)

    def test_joint_requires_both(self, rng):
        head = MultiViewHead.create(rng, 4, 6, 3)
        with pytest.raises(DegenerateInputError):
            head.forward_joint(None, np.ones((1, 6)))

    def test_shared_classifier_is_shared(self, rng):
        head = MultiViewHead.create(rng, 4, 6, 3)
        # keep the classifier outputs in the active ReLU region
        head.shared_classifier.bias[:] = 5.0
        a = rng.normal(size=4)
        v = rng.normal(size=6)
        before = (embed_one(head, a, None), embed_one(head, None, v))
        head.shared_classifier.weight += 0.5
        after = (embed_one(head, a, None), embed_one(head, None, v))
        assert not np.array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_bad_modality(self, rng):
        head = MultiViewHead.create(rng, 4, 6, 3)
        with pytest.raises(ShapeError):
            head.forward_modality("text", np.ones((1, 4)))


class TestBackward:
    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_zero_upstream_gradient(self, kind):
        rng = np.random.default_rng(5)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5, dropout_p=0.0)
        a = rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 6))
        if kind == "multiview":
            out, cache = head.forward_joint(a, v)
            grads = head.backward_joint(cache, np.zeros_like(out), gradient_arrays(head))
        else:
            out, cache = head.forward(a, v, train=True, rng=rng)
            grads = head.backward(cache, np.zeros_like(out), gradient_arrays(head))
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_mean_weight_gradient_is_half_outer_product(self):
        rng = np.random.default_rng(6)
        head = MeanFusionHead.create(rng, 4, 6, 3, dropout_p=0.0)
        a = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 6))
        dout = rng.normal(size=(5, 3))
        _, cache = head.forward(a, v, train=True, rng=rng)
        grads = head.backward(cache, dout, gradient_arrays(head))
        assert np.allclose(grads["proj_audio.weight"], 0.5 * dout.T @ a)
        assert np.allclose(grads["proj_video.weight"], 0.5 * dout.T @ v)

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_finite_difference_toy_configs(self, kind):
        rng = np.random.default_rng(40)
        head = make_head(kind, rng, d_a=8, d_v=8, d_e=4, hidden=6)
        arc = ArcMarginHead.create(rng, 4, 3)
        n = 5
        audio = rng.normal(size=(n, 8))
        video = rng.normal(size=(n, 8))
        labels = rng.integers(0, 3, size=n)
        state = dropout_state(head, rng, n)
        assert gradient_check(head, arc, audio, video, labels, state) < 1e-4

    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_replayed_pass_draws_the_masks_of_its_state(self, kind):
        rng = np.random.default_rng(41)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5, dropout_p=0.5)
        n = 5
        audio = rng.normal(size=(n, 4))
        video = rng.normal(size=(n, 6))
        state = dropout_state(head, rng, n)
        replayed = replay(state)
        _, cache = head.loss_terms(audio, video, LOSS_CONFIG, rng=replayed)
        if kind == "multiview":
            masks = [c["drop_mask"] for c in cache]
        else:
            masks = [cache["mask_a"], cache["mask_v"]]
            masks += [stage[3] for stage in cache.get("stages", [])[:2]]
        shapes = {"mean": [(n, 4), (n, 6)], "mlp": [(n, 4), (n, 6), (n, 5), (n, 5)],
                  "multiview": [(n, 3), (n, 3)]}[kind]
        reference = np.random.default_rng()
        reference.bit_generator.state = state
        assert len(masks) == len(shapes)
        for mask, shape in zip(masks, shapes):
            assert np.array_equal(mask, head.dropout.draw_mask(reference, shape))
        # the pass and the helper leave their generators at the same point
        assert replayed.bit_generator.state == reference.bit_generator.state
        assert replayed.bit_generator.state == rng.bit_generator.state

    def test_cache_head_mismatch(self, rng):
        head1 = MeanFusionHead.create(rng, 4, 6, 3)
        head2 = MeanFusionHead.create(rng, 4, 6, 3)
        out, cache = head1.forward(np.ones((2, 4)), np.ones((2, 6)))
        with pytest.raises(ConsistencyError):
            head2.backward(cache, np.zeros_like(out), {})


class TestEvalDeterminism:
    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_repeated_eval_identical(self, kind):
        rng = np.random.default_rng(8)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        a = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 6))
        assert np.array_equal(head.embed(a, v), head.embed(a, v))
