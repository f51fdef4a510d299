"""The arc-margin logits and loss against their former separate copies.

`arc_margin_logits_batch` and `arc_margin_loss_grad_batch` share one margin
computation; `conftest.loop_*` keeps the two copies they replaced.  Every
comparison is exact (`==`): the loss gradients feed the checkpoints, so a
difference in the last bit changes output bytes.  The drawn batches mix
free rows with zero rows, rows along their target prototype or a hair off
it (|cos| within 1e-9 of 1) and rows opposite it, which puts the target
angle in the unstable region cos(theta_t) <= cos(pi - m).
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
from avfusion.errors import ShapeError

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
