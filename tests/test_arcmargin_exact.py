"""The arc-margin logits and loss against their former separate copies.

`arc_margin_logits_batch` and `arc_margin_loss_grad_batch` share one margin
computation; `conftest.loop_*` keeps the two copies they replaced.  Every
comparison is exact (`==`): the loss gradients feed the checkpoints, so a
difference in the last bit changes output bytes.  The drawn batches mix
free rows with zero rows, rows along their target prototype or a hair off
it (|cos| within 1e-9 of 1) and rows opposite it, which puts the target
angle in the unstable region cos(theta_t) <= cos(pi - m).  A stack of two
loss terms in one call gives each term the bytes of its own former call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from avfusion.arcmargin import (
    ArcMarginHead,
    arc_margin_logits_batch,
    arc_margin_loss_grad_batch,
)
from avfusion.errors import LabelError, ShapeError

from conftest import loop_arc_margin_logits_batch, loop_arc_margin_loss_grad_batch

EXACT = settings(max_examples=200, deadline=None)
ELEMENTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)
ROW_KINDS = ("free", "zero", "along", "near", "opposite")


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # both versions must fail the same way
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result,)


def assert_same(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b)
        else:
            assert a == b


def batch(head, targets, kinds, free_rows, offsets):
    """One embedding row per target, of the given kinds."""
    rows = []
    for target, kind, free, offset in zip(targets, kinds, free_rows, offsets):
        proto = head.prototypes[:, target]
        rows.append({
            "free": free,
            "zero": np.zeros_like(proto),
            "along": 3.0 * proto,
            "near": proto + 1e-9 * offset,
            "opposite": -0.5 * proto,
        }[kind])
    return np.array(rows)


@st.composite
def cases(draw):
    d_e = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    protos = draw(hnp.arrays(np.float64, (d_e, n_classes), elements=ELEMENTS))
    protos[0, np.linalg.norm(protos, axis=0) == 0.0] = 1.0  # no zero column
    head = ArcMarginHead(
        prototypes=protos,
        scale=draw(st.sampled_from([1.0, 16.0, 64.0])),
        margin=draw(st.sampled_from([0.0, 0.125, 0.5, 1.5])),
    )
    targets = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n, max_size=n))
    free = draw(hnp.arrays(np.float64, (n, d_e), elements=ELEMENTS))
    offsets = draw(hnp.arrays(np.float64, (n, d_e), elements=st.floats(-1.0, 1.0)))
    return head, batch(head, targets, kinds, free, offsets), targets


@EXACT
@given(cases())
def test_logits_and_loss_match_the_former_copies(case):
    head, embeddings, targets = case
    assert_same(outcome(arc_margin_logits_batch, head, embeddings, targets),
                outcome(loop_arc_margin_logits_batch, head, embeddings, targets))
    assert_same(outcome(arc_margin_loss_grad_batch, head, embeddings, targets),
                outcome(loop_arc_margin_loss_grad_batch, head, embeddings, targets))


def test_every_edge_case_in_one_batch():
    rng = np.random.default_rng(7)
    head = ArcMarginHead.create(rng, 4, 3, margin=0.5)
    targets = np.array([0, 1, 2, 0, 1, 2])
    kinds = ("free", "zero", "along", "near", "opposite", "free")
    embeddings = batch(head, targets, kinds, rng.normal(size=(6, 4)),
                       rng.normal(size=(6, 4)))
    unit = embeddings[[2, 3, 4]] / np.linalg.norm(embeddings[[2, 3, 4]], axis=1,
                                                  keepdims=True)
    cos_t = np.einsum("ij,ij->i", unit, head.prototypes[:, [2, 0, 1]].T)
    assert (np.abs(np.abs(cos_t) - 1.0) <= 1e-9).all()
    assert cos_t[2] <= math.cos(math.pi - head.margin)
    assert_same(arc_margin_loss_grad_batch(head, embeddings, targets),
                loop_arc_margin_loss_grad_batch(head, embeddings, targets))
    keep = np.array(kinds) != "zero"
    assert_same((arc_margin_logits_batch(head, embeddings[keep], targets[keep]),),
                (loop_arc_margin_logits_batch(head, embeddings[keep], targets[keep]),))


def test_one_target_per_embedding():
    head = ArcMarginHead(prototypes=np.eye(3))
    for fn in (arc_margin_logits_batch, arc_margin_loss_grad_batch):
        with pytest.raises(ShapeError):
            fn(head, np.ones((4, 3)), np.array([0]))
        with pytest.raises(ShapeError):
            fn(head, np.ones((2, 3)), np.array([0, 1, 2]))


def assert_terms_match_loop(head, stack, targets):
    """Each term of one stacked call against its own former call, byte for
    byte, the signs of zeros included."""
    losses, grad_e, grad_w, per_sample = arc_margin_loss_grad_batch(head, stack, targets)
    assert len(losses) == len(stack)
    for k, embeddings in enumerate(stack):
        expected = loop_arc_margin_loss_grad_batch(head, embeddings, targets)
        assert type(losses[k]) is float and losses[k] == expected[0]
        for got, want in zip((grad_e[k], grad_w[k], per_sample[k]), expected[1:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@st.composite
def stacked_cases(draw):
    """(head, stack, targets): a second batch of its own row kinds beside a
    drawn case, on the same head and targets."""
    head, first, targets = draw(cases())
    n, d_e = first.shape
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n, max_size=n))
    free = draw(hnp.arrays(np.float64, (n, d_e), elements=ELEMENTS))
    offsets = draw(hnp.arrays(np.float64, (n, d_e), elements=st.floats(-1.0, 1.0)))
    return head, np.stack([first, batch(head, targets, kinds, free, offsets)]), targets


@EXACT
@given(stacked_cases())
def test_stacked_terms_match_their_former_calls(case):
    assert_terms_match_loop(*case)


@pytest.mark.parametrize("n, d_e, n_classes", [(2, 8, 50), (42, 8, 50), (128, 8, 50),
                                               (128, 256, 40), (1, 1, 1)])
def test_stacked_relu_terms_match_their_former_calls(n, d_e, n_classes):
    # ReLU outputs, as the multi-view head's two paths give them: exactly
    # zero entries, and whole rows of zeros in either term
    rng = np.random.default_rng(n)
    head = ArcMarginHead.create(rng, d_e, n_classes)
    stack = np.maximum(rng.normal(size=(2, n, d_e)), 0.0)
    stack[0, ::3] = 0.0
    stack[1, 1::4] = 0.0
    assert_terms_match_loop(head, stack, rng.integers(0, n_classes, size=n))


def test_stacked_targets_are_checked():
    head = ArcMarginHead(prototypes=np.eye(3))
    stack = np.ones((2, 4, 3))
    for targets in ([0, 1, 2, -1], [0, 1, 2, 3]):
        with pytest.raises(LabelError):
            arc_margin_loss_grad_batch(head, stack, np.array(targets))
    for targets in ([0], [0, 1, 2, 0, 1], [[0, 1], [2, 0]]):
        with pytest.raises(ShapeError):
            arc_margin_loss_grad_batch(head, stack, np.array(targets))
