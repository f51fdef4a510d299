import math

import numpy as np
import pytest

from avfusion.arcmargin import (
    ArcMarginHead,
    arc_margin_logits,
    arc_margin_loss_grad_batch,
    arc_margin_loss,
    plain_cosine_logits,
    softmax_cross_entropy,
)
from avfusion.errors import DegenerateInputError, LabelError, ShapeError
from avfusion.linalg import l2_normalize


def random_head(rng, d_e=4, n_classes=3, scale=16.0, margin=0.125):
    return ArcMarginHead.create(rng, d_e, n_classes, scale=scale, margin=margin)


class TestConstruction:
    def test_prototype_columns_unit_norm(self, rng):
        head = random_head(rng)
        assert np.allclose(np.linalg.norm(head.prototypes, axis=0), 1.0)

    def test_zero_column_rejected(self):
        protos = np.eye(3)
        protos[:, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            ArcMarginHead(prototypes=protos)

    def test_bad_margin_rejected(self):
        with pytest.raises(ShapeError):
            ArcMarginHead(prototypes=np.eye(2), margin=2.0)


class TestLogits:
    def test_margin_zero_reduces_to_scaled_cosine(self, rng):
        head = random_head(rng, margin=0.0)
        emb = rng.normal(size=4)
        logits = arc_margin_logits(head, emb, 1)
        cos = l2_normalize(emb) @ head.prototypes
        assert np.max(np.abs(logits - head.scale * cos)) <= 1e-12

    def test_parallel_embedding_target_logit(self):
        head = ArcMarginHead(prototypes=np.eye(3), scale=16.0, margin=0.125)
        logits = arc_margin_logits(head, np.array([2.0, 0.0, 0.0]), 0)
        assert logits[0] == pytest.approx(16.0 * math.cos(0.125), abs=1e-12)

    def test_orthogonal_nontarget_logit_zero(self):
        head = ArcMarginHead(prototypes=np.eye(3), scale=16.0, margin=0.125)
        logits = arc_margin_logits(head, np.array([1.0, 0.0, 0.0]), 0)
        assert logits[1] == pytest.approx(0.0, abs=1e-12)
        assert logits[2] == pytest.approx(0.0, abs=1e-12)

    def test_zero_embedding_rejected(self, rng):
        head = random_head(rng)
        with pytest.raises(DegenerateInputError):
            arc_margin_logits(head, np.zeros(4), 0)

    def test_target_out_of_range(self, rng):
        head = random_head(rng)
        with pytest.raises(LabelError):
            arc_margin_logits(head, np.ones(4), 7)

    def test_stability_fallback_region(self, rng):
        # Embedding antipodal to its prototype: theta + m > pi, so the
        # monotone surrogate cos(theta) - m*sin(m) applies.
        head = ArcMarginHead(prototypes=np.eye(2), scale=16.0, margin=0.125)
        logits = arc_margin_logits(head, np.array([-1.0, 0.0]), 0)
        expected = 16.0 * (-1.0 - 0.125 * math.sin(0.125))
        assert logits[0] == pytest.approx(expected, abs=1e-12)
        assert np.isfinite(logits).all()


class TestSoftmaxCrossEntropy:
    def test_single_class(self):
        assert softmax_cross_entropy(np.array([3.7]), 0) == pytest.approx(0.0)

    def test_two_equal_logits(self):
        assert softmax_cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=6)
        base = softmax_cross_entropy(logits, 2)
        shifted = softmax_cross_entropy(logits + 123.456, 2)
        assert abs(base - shifted) <= 1e-12

    def test_loss_matches_logits(self, rng):
        head = random_head(rng)
        emb = rng.normal(size=4)
        logits = arc_margin_logits(head, emb, 1)
        assert arc_margin_loss(head, emb, 1) == pytest.approx(
            softmax_cross_entropy(logits, 1), abs=1e-12
        )


class TestGradients:
    def test_single_class_zero_gradient(self, rng):
        head = ArcMarginHead(prototypes=rng.normal(size=(4, 1)))
        loss, grad_e, grad_w, _ = arc_margin_loss_grad_batch(head, rng.normal(size=4), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad_e, 0.0)
        assert np.allclose(grad_w, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        head = random_head(rng)
        emb = rng.normal(size=4)
        target = int(rng.integers(0, 3))
        _, grad_e, grad_w, _ = arc_margin_loss_grad_batch(head, emb, [target])
        h = 1e-5

        def fd(param, analytic):
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = arc_margin_loss(head, emb, target)
                flat[i] = orig - h
                down = arc_margin_loss(head, emb, target)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                a = analytic.reshape(-1)[i]
                assert abs(numeric - a) <= 1e-4 * max(abs(numeric), abs(a), 1e-3)

        fd(emb, grad_e)
        fd(head.prototypes, grad_w)

    def test_scale_invariance(self, rng):
        head = random_head(rng)
        emb = rng.normal(size=4)
        loss1 = arc_margin_loss(head, emb, 0)
        loss2 = arc_margin_loss(head, 2.0 * emb, 0)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        _, g1, _, _ = arc_margin_loss_grad_batch(head, emb, [0])
        _, g2, _, _ = arc_margin_loss_grad_batch(head, 2.0 * emb, [0])
        # loss(c*x) == loss(x), so grad at 2x is half the grad at x
        assert np.allclose(g2, 0.5 * g1, atol=1e-12)

    def test_margin_monotone_in_stable_region(self, rng):
        for _ in range(20):
            emb = rng.normal(size=4)
            target = int(rng.integers(0, 3))
            protos = rng.normal(size=(4, 3))
            losses = []
            for margin in (0.0, 0.1, 0.2, 0.4):
                head = ArcMarginHead(prototypes=protos.copy(), margin=margin)
                cos_t = float(
                    l2_normalize(emb) @ l2_normalize(protos[:, target])
                )
                if math.acos(np.clip(cos_t, -1, 1)) + margin >= math.pi:
                    break
                losses.append(arc_margin_loss(head, emb, target))
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


class TestPlainCosine:
    def test_zero_row_scores_zero(self, rng):
        head = random_head(rng)
        emb = np.vstack([np.zeros(4), rng.normal(size=4)])
        logits = plain_cosine_logits(head, emb)
        assert np.allclose(logits[0], 0.0)
        assert not np.allclose(logits[1], 0.0)
