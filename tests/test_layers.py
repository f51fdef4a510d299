import numpy as np
import pytest

from avfusion.errors import ConfigurationError, DegenerateBatchError, ShapeError
from avfusion.layers import (
    BN_EPS,
    BatchNormLayer,
    DropoutSpec,
    LinearLayer,
    leaky_relu,
    leaky_relu_backward,
)


class TestLinear:
    def test_identity(self):
        layer = LinearLayer(weight=np.eye(3), bias=np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5]])
        out, _ = layer.forward(x)
        assert np.array_equal(out, x)

    def test_zero_weight_gives_bias(self):
        layer = LinearLayer(weight=np.zeros((2, 4)), bias=np.array([3.0, -1.0]))
        out, _ = layer.forward(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.array_equal(out, np.tile([3.0, -1.0], (5, 1)))

    def test_hand_computed(self):
        layer = LinearLayer(
            weight=np.array([[1.0, 2.0], [0.0, 1.0]]), bias=np.array([1.0, 0.0])
        )
        out, _ = layer.forward(np.array([[1.0, 1.0]]))
        assert np.array_equal(out[0], [4.0, 1.0])

    def test_shape_error(self):
        layer = LinearLayer(weight=np.ones((2, 3)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 4)))

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(3)
        layer = LinearLayer.create(rng, 4, 3)
        x = rng.normal(size=(5, 4))
        dout = rng.normal(size=(5, 3))

        def loss():
            out, _ = layer.forward(x)
            return float((out * dout).sum())

        _, cache = layer.forward(x)
        dx, dw, db = layer.backward(cache, dout, (np.empty((3, 4)), np.empty(3)))
        h = 1e-6
        for param, grad in ((layer.weight, dw), (layer.bias, db)):
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                assert (up - down) / (2 * h) == pytest.approx(
                    grad.reshape(-1)[i], rel=1e-5, abs=1e-8
                )
        assert np.allclose(dx, dout @ layer.weight)

    def test_backward_refuses_mismatched_out_view(self):
        view = np.zeros(4)[1:]
        layer = LinearLayer(weight=np.zeros((1, 2)), bias=np.zeros(1))
        with pytest.raises(ValueError):
            # a bias gradient of shape (1,) would broadcast into the view
            layer.backward(np.zeros((4, 2)), np.zeros((4, 1)), (np.zeros((1, 2)), view))


class TestBatchNorm:
    def test_constant_feature(self):
        bn = BatchNormLayer.create(1)
        out, _ = bn.forward(np.full((4, 1), 7.0), train=True)
        assert np.allclose(out, 0.0)

    def test_eval_identity_stats(self):
        bn = BatchNormLayer.create(3)
        x = np.random.default_rng(1).normal(size=(6, 3))
        out, _ = bn.forward(x, train=False)
        assert np.allclose(out, x / np.sqrt(1 + BN_EPS))

    def test_train_two_sample_batch(self):
        bn = BatchNormLayer.create(1)
        out, _ = bn.forward(np.array([[1.0], [3.0]]), train=True)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)  # batch mean 2, population var 1
        assert np.allclose(out[:, 0], [-expected, expected])
        assert out[1, 0] == pytest.approx(0.999995, abs=1e-6)

    def test_running_stats_update(self):
        bn = BatchNormLayer.create(1)
        bn.forward(np.array([[1.0], [3.0]]), train=True)
        # momentum 0.1; unbiased variance = 1 * 2/1 = 2
        assert bn.running_mean[0] == pytest.approx(0.2)
        assert bn.running_var[0] == pytest.approx(0.9 + 0.1 * 2.0)

    @pytest.mark.parametrize("name, value", [
        ("beta", np.zeros(2)), ("running_var", np.ones(4)),
        ("gamma", np.ones((3, 1))), ("running_mean", np.zeros(())),
    ])
    def test_tensors_of_other_shapes_rejected(self, name, value):
        tensors = {"gamma": np.ones(3), "beta": np.zeros(3),
                   "running_mean": np.zeros(3), "running_var": np.ones(3)}
        tensors[name] = value
        with pytest.raises(ShapeError):
            BatchNormLayer(**tensors)

    def test_single_sample_train_batch(self):
        bn = BatchNormLayer.create(2)
        with pytest.raises(DegenerateBatchError):
            bn.forward(np.ones((1, 2)), train=True)

    def test_train_backward_finite_difference(self):
        rng = np.random.default_rng(4)
        bn = BatchNormLayer.create(3)
        bn.gamma = rng.normal(size=3)
        bn.beta = rng.normal(size=3)
        x = rng.normal(size=(6, 3))
        dout = rng.normal(size=(6, 3))
        _, cache = bn.forward(x, train=True)
        dx, dgamma, dbeta = bn.backward(cache, dout, (np.empty(3), np.empty(3)))

        def loss(arr):
            out, _ = bn.forward(x, train=True)
            return float((out * dout).sum())

        h = 1e-6
        for param, grad in ((x, dx), (bn.gamma, dgamma), (bn.beta, dbeta)):
            flat = param.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss(param)
                flat[i] = orig - h
                down = loss(param)
                flat[i] = orig
                assert (up - down) / (2 * h) == pytest.approx(
                    grad.reshape(-1)[i], rel=1e-4, abs=1e-7
                )


class TestLeakyRelu:
    def test_positive_passthrough(self):
        x = np.array([[0.5, 2.0, 7.0]])
        out, mask = leaky_relu(x, 0.01)
        assert np.array_equal(out, x)
        assert mask.all()

    def test_slope_zero_is_relu(self):
        out, _ = leaky_relu(np.array([-1.0, 2.0]), 0.0)
        assert np.array_equal(out, [0.0, 2.0])

    def test_hand_computed(self):
        out, _ = leaky_relu(np.array([-2.0, 3.0]), 0.01)
        assert np.allclose(out, [-0.02, 3.0])

    def test_backward(self):
        x = np.array([-1.0, 4.0])
        _, mask = leaky_relu(x, 0.01)
        dx = leaky_relu_backward(mask, 0.01, np.array([10.0, 10.0]))
        assert np.allclose(dx, [0.1, 10.0])


class TestDropout:
    def test_eval_identity(self, rng):
        spec = DropoutSpec(0.5)
        x = rng.normal(size=(3, 4))
        out, mask = spec.apply(x, train=False)
        assert out is x
        assert mask is None

    def test_zero_probability_identity(self, rng):
        spec = DropoutSpec(0.0)
        x = rng.normal(size=(2, 5))
        out, mask = spec.apply(x, train=True, rng=rng)
        assert np.array_equal(out, x)
        assert np.array_equal(mask, np.ones_like(x))

    def test_fixed_mask_replay(self, rng):
        """A generator restored to the same state draws the same mask again."""
        spec = DropoutSpec(0.5)
        x = rng.normal(size=(4, 6))
        state = rng.bit_generator.state
        out, mask = spec.apply(x, train=True, rng=rng)
        rng.bit_generator.state = state
        replayed, replayed_mask = spec.apply(x, train=True, rng=rng)
        assert np.array_equal(replayed, out)
        assert np.array_equal(replayed_mask, mask)
        # survivors are scaled by 1/(1-p), the rest dropped
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert np.array_equal(out, x * mask)

    def test_mask_statistics(self):
        spec = DropoutSpec(0.1)
        mask = spec.draw_mask(np.random.default_rng(0), (100, 100))
        drop_rate = (mask == 0).mean()
        assert abs(drop_rate - 0.1) < 0.01
        assert abs(mask.mean() - 1.0) < 0.02  # inverted scaling is unbiased

    def test_deterministic_given_stream(self):
        spec = DropoutSpec(0.3)
        m1 = spec.draw_mask(np.random.default_rng(9), (4, 4))
        m2 = spec.draw_mask(np.random.default_rng(9), (4, 4))
        assert np.array_equal(m1, m2)

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            DropoutSpec(1.0)
