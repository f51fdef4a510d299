"""The lean training step against verbatim copies of the code it replaced.

Batch norm forms its statistics from one centred pass, the mask draw runs
`choice`'s inverse-CDF lookup without its argument checks, and `batch_loss`
makes one arc-margin call for all its loss terms, which normalises the
prototypes once.  `conftest.loop_*`
keeps the forms they replaced.  Every comparison is exact, down to the sign
of zero: the outputs feed the checkpoints, so a difference in the last bit
changes output bytes.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.heads import sample_mask_modes
from avfusion.layers import BatchNormLayer
from avfusion.training import ParamStore, TrainingConfig, batch_loss

from conftest import (
    loop_arc_margin_loss_grad_batch,
    loop_batch_loss_in_place,
    loop_batchnorm_backward,
    loop_batchnorm_forward,
    loop_sample_mask_modes,
    make_head,
)

EXACT = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
# Scales from 1e-3 to 1e3.
SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def assert_same(got, expected):
    """Equal values, shapes and dtypes, and equal bytes: the signs of zeros
    too, which a checkpoint records."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert got.tobytes() == expected.tobytes()


@st.composite
def batchnorm_cases(draw):
    """(layer, x, dout): 2-300 rows, columns of their own scale and offset,
    some of them constant (zero variance), and random running statistics."""
    n, dim = draw(st.integers(2, 300)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(SEEDS))
    scales = np.array(draw(st.lists(SCALES, min_size=dim, max_size=dim)))
    offsets = np.array(draw(st.lists(SCALES, min_size=dim, max_size=dim)))
    x = rng.normal(size=(n, dim)) * scales + offsets * rng.choice([-1.0, 0.0, 1.0], dim)
    constant = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    x[:, constant] = x[0, constant]
    layer = BatchNormLayer(gamma=rng.normal(size=dim), beta=rng.normal(size=dim),
                           running_mean=rng.normal(size=dim) * scales,
                           running_var=rng.uniform(0.0, 2.0, size=dim) * scales**2)
    return layer, x, rng.normal(size=(n, dim)) * draw(SCALES)


@EXACT
@given(batchnorm_cases(), st.booleans())
def test_batchnorm_matches_loop(case, train):
    layer, x, dout = case
    reference = copy.deepcopy(layer)
    out, cache = layer.forward(x, train)
    ref_out, ref_cache = loop_batchnorm_forward(reference, x, train)
    assert_same(out, ref_out)
    for got, expected in zip(cache, ref_cache):
        assert_same(got, expected)
    for name in BatchNormLayer.STATE:
        assert_same(getattr(layer, name), getattr(reference, name))
    # the backward pass, into given arrays as training calls it
    into = (np.empty(layer.dim), np.empty(layer.dim))
    grads = layer.backward(cache, dout, into)
    for got, expected in zip(grads, loop_batchnorm_backward(reference, ref_cache, dout)):
        assert_same(got, expected)
    assert grads[1] is into[0] and grads[2] is into[1]


@pytest.mark.parametrize("n", [0, 1, 100_000])
@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_mask_modes_match_choice(n, seed):
    generator, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    modes = sample_mask_modes(generator, n)
    assert_same(modes, loop_sample_mask_modes(reference, n))
    # the stream is left where the one choice call leaves it
    assert generator.random() == reference.random()
    if n == 100_000:
        assert set(np.unique(modes)) == {0, 1, 2}


ROW_KINDS = np.array(["free", "zero", "along", "opposite"])


@st.composite
def margin_cases(draw):
    """(head, embeddings, targets): 2-300 rows of free directions, exactly
    zero rows, and rows along their target prototype (cos_t = 1) or opposite
    it (cos_t = -1, where theta + m > pi for any margin), at scales from
    1e-3 to 1e3."""
    d_e, n_classes, n = draw(st.integers(1, 8)), draw(st.integers(1, 50)), draw(
        st.integers(2, 300))
    rng = np.random.default_rng(draw(SEEDS))
    protos = rng.normal(size=(d_e, n_classes)) * draw(SCALES)
    head = ArcMarginHead(prototypes=protos, scale=draw(st.sampled_from([1.0, 16.0, 64.0])),
                         margin=draw(st.sampled_from([0.0, 0.125, 0.5, 1.5])))
    targets = rng.integers(0, n_classes, size=n)
    kinds = ROW_KINDS[rng.integers(0, len(ROW_KINDS), size=n)]
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    embeddings = rng.normal(size=(n, d_e)) * scales
    embeddings[kinds == "zero"] = 0.0
    for kind, sign in (("along", 1.0), ("opposite", -1.0)):
        rows = kinds == kind
        embeddings[rows] = sign * scales[rows] * protos[:, targets[rows]].T
    return head, embeddings, targets


@EXACT
@given(margin_cases())
def test_loss_grad_with_unit_prototypes_matches_loop(case):
    head, embeddings, targets = case
    expected = loop_arc_margin_loss_grad_batch(head, embeddings, targets)
    got = arc_margin_loss_grad_batch(head, embeddings, targets)
    assert got[0] == expected[0]
    for a, b in zip(got[1:], expected[1:]):
        assert_same(a, b)


def models(kind, seed, dropout_p, dims):
    """Two identical heads with their prototypes and flat stores."""
    d_a, d_v, d_e, hidden, n_classes = dims
    out = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        head = make_head(kind, rng, d_a=d_a, d_v=d_v, d_e=d_e, hidden=hidden,
                         dropout_p=dropout_p)
        arc = ArcMarginHead.create(rng, d_e, n_classes)
        out.append((head, arc, ParamStore.of_model(head, arc)))
    return out


@EXACT
@given(st.sampled_from(["mean", "mlp", "multiview"]), st.integers(2, 300), SEEDS,
       st.sampled_from([0.0, 0.1, 0.5]), SCALES, st.booleans())
def test_batch_loss_normalises_prototypes_once(kind, n, seed, dropout_p, scale,
                                               dead_zero_rows):
    """Two steps of `batch_loss` against the copy that normalised the
    prototypes per loss term; inputs at one scale with exactly zero rows,
    which the multi-view head can turn into exactly zero embeddings."""
    dims = (4, 6, 2, 5, 7)
    (head, arc, store), (ref_head, ref_arc, ref_store) = models(kind, seed, dropout_p, dims)
    if kind == "multiview" and dead_zero_rows:
        # a zero input row reaches the ReLU as W_s b_p + b_s < 0: a zero embedding
        for h in (head, ref_head):
            shared = h.shared_classifier
            shared.bias[...] = -np.abs(shared.weight @ h.proj_audio.bias) - np.abs(
                shared.weight @ h.proj_video.bias) - 1.0
    names = list(store.grad_views)
    data = np.random.default_rng(seed + 1)
    config = TrainingConfig(lambda_audio=0.25, lambda_video=0.75)
    for step in range(2):
        audio, video = (data.normal(size=(n, d)) * scale for d in dims[:2])
        audio[data.random(n) < 0.2] = 0.0
        video[data.random(n) < 0.2] = 0.0
        labels = data.integers(0, dims[4], size=n)
        draws = [{"mask_rng": np.random.default_rng(seed + 2 + step),
                  "rng": np.random.default_rng(seed + 3 + step)} for _ in range(2)]
        with mock.patch.object(ArcMarginHead, "unit_prototypes", autospec=True,
                               side_effect=ArcMarginHead.unit_prototypes) as unit:
            loss = batch_loss(head, arc, audio, video, labels, config,
                              store.grad_views, **draws[0])
        assert unit.call_count == 1
        expected = loop_batch_loss_in_place(ref_head, ref_arc, audio, video, labels,
                                            config, ref_store.grad_views, **draws[1])
        assert loss == expected
        assert_same(store.grads, ref_store.grads)
        # every gradient keeps its place, the order clipping sums in
        assert list(store.grad_views) == names
        for g in store.grad_views.values():
            assert np.shares_memory(g, store.grads)
        store.params -= 0.1 * store.grads
        ref_store.params -= 0.1 * ref_store.grads
