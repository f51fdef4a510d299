"""The flat-store training step against its loop references.

Every comparison is exact (`==`): each trained tensor is written to the
checkpoint at full precision, so a difference in the last bit of one update
changes output bytes.  The loop references (`conftest.loop_adamw_step`,
`conftest.loop_clip_global_norm`) work on a dict of separate arrays; the
fused pass works on one buffer in ADAMW_BLOCK-element blocks.  The gradient
step's references (`conftest.loop_batch_loss`, `loop_load_grads`,
`loop_clip_in_place`) make new gradient arrays and copy them into the
store; the step under test writes each gradient into the store once.
"""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import training
from avfusion.arcmargin import ArcMarginHead
from avfusion.data import DatasetConfig, generate_identities, sample_dataset, split_dataset
from avfusion.training import (
    ADAMW_BLOCK,
    AdamW,
    ParamStore,
    TrainingConfig,
    batch_loss,
    clip_global_norm,
    train_run,
)

from conftest import (
    LoopAdamW,
    loop_batch_loss,
    loop_clip_global_norm,
    loop_clip_in_place,
    loop_load_grads,
    make_head,
    store_names,
)

EXACT = settings(max_examples=60, deadline=None)


@st.composite
def tensor_shapes(draw):
    """Mixed shapes whose sizes add up to one block boundary, or one either
    side of it: a few small tensors, then one 1-d tensor that fills up."""
    shapes = draw(st.lists(
        st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=4,
    ))
    total = draw(st.integers(1, 2)) * ADAMW_BLOCK + draw(st.sampled_from([-1, 0, 1]))
    shapes.append((total - sum(int(np.prod(s)) for s in shapes),))
    return shapes


def draw_values(rng, shape):
    """Normal values at a random scale, with some exact zeros."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
    values[rng.random(shape) < 0.1] = 0.0
    return values


@EXACT
@given(
    shapes=tensor_shapes(),
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 3),
    lr=st.sampled_from([0.0, 1e-3, 0.1]),
    weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
    clip_scale=st.sampled_from([0.5, 2.0]),
)
def test_fused_step_matches_loop(shapes, seed, n_steps, lr, weight_decay, clip_scale):
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(len(shapes))]
    initial = {name: draw_values(rng, shape) for name, shape in zip(names, shapes)}
    config = TrainingConfig(weight_decay=weight_decay)

    owner = types.SimpleNamespace(**{name: value.copy() for name, value in initial.items()})
    store = ParamStore([(name, owner, name) for name in names])
    fused = AdamW(config, store.params.size)
    loop_params = {name: value.copy() for name, value in initial.items()}
    loop = LoopAdamW(config)
    scratch = np.empty(store.params.size)

    fired = []
    for _ in range(n_steps):
        # The views are handed over in another order than the store's
        # layout; the norm sums in the order of the dict it is given.
        order = list(rng.permutation(names))
        grads = {name: draw_values(rng, initial[name].shape) for name in order}
        norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
        max_norm = clip_scale * norm

        expected, expected_total = loop_clip_global_norm(
            {name: g.copy() for name, g in grads.items()}, max_norm)
        loop.step(loop_params, expected, lr)

        views = {name: store.grad_views[name] for name in order}
        for name in order:
            views[name][...] = grads[name]
        clipped, total = clip_global_norm(views, max_norm, scratch)
        fused.step(store.params, store.grads, lr)

        assert total == expected_total
        assert list(clipped) == order
        for name in names:
            assert np.array_equal(clipped[name], expected[name])
        fired.append(total > max_norm)
    assert fired == [clip_scale < 1] * n_steps
    for name in names:
        assert np.array_equal(getattr(owner, name), loop_params[name])


def test_step_allocates_no_full_size_temporary():
    size = 2_000_000
    rng = np.random.default_rng(0)
    config = TrainingConfig()

    def peak_of(step):
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    owner = types.SimpleNamespace(p=rng.normal(size=size))
    store = ParamStore([("p", owner, "p")])
    store.grads[...] = rng.normal(size=size)
    fused = AdamW(config, size)
    fused_peak = peak_of(lambda: fused.step(store.params, store.grads, 1e-3))
    # The per-tensor loop makes its moments and several full-size
    # temporaries: the measurement sees them.
    loop = LoopAdamW(config)
    loop_peak = peak_of(lambda: loop.step({"p": owner.p}, {"p": store.grads}, 1e-3))
    assert fused_peak < 2**20
    assert loop_peak > 16 * 2**20


@pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
@pytest.mark.parametrize("dims", [(16, 32, 8, 24), (40, 300, 32, 130)])
@pytest.mark.parametrize("max_norm", [1e-3, 1e3])
def test_in_place_step_matches_loop(kind, dims, max_norm):
    """Three steps of the in-place gradient step against the allocating
    one, with clipping fired at every step (max_norm 1e-3) or at none."""
    d_a, d_v, d_e, hidden = dims
    n, n_classes = 24, 5
    config = TrainingConfig(learning_rate=0.01)
    models = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        head = make_head(kind, rng, d_a=d_a, d_v=d_v, d_e=d_e, hidden=hidden)
        arc = ArcMarginHead.create(rng, d_e, n_classes)
        store = ParamStore.of_model(head, arc)
        models.append((head, arc, store, AdamW(config, store.params.size)))
    (head, arc, store, optimizer), (ref_head, ref_arc, ref_store, ref_optimizer) = models
    grads = store.grad_views
    scratch = np.empty(max(g.size for g in grads.values()))
    data_rng = np.random.default_rng(8)
    for step in range(3):
        audio = data_rng.normal(size=(n, d_a))
        video = data_rng.normal(size=(n, d_v))
        labels = data_rng.integers(0, n_classes, size=n)

        def draws():
            return {"mask_rng": np.random.default_rng(100 + step),
                    "rng": np.random.default_rng(200 + step)}

        ref_loss, ref_grads = loop_batch_loss(
            ref_head, ref_arc, audio, video, labels, config, **draws())
        expected, expected_total = loop_clip_in_place(
            loop_load_grads(ref_store, store_names(ref_grads)), max_norm)
        ref_optimizer.step(ref_store.params, ref_store.grads, config.learning_rate)

        loss = batch_loss(head, arc, audio, video, labels, config, grads, **draws())
        clipped, total = clip_global_norm(grads, max_norm, scratch)
        optimizer.step(store.params, store.grads, config.learning_rate)

        assert loss == ref_loss
        assert total == expected_total
        assert (total > max_norm) == (max_norm < 1)
        # the same names, in the order the norm sums them
        assert list(clipped) == list(expected)
        for name in expected:
            assert np.array_equal(clipped[name], expected[name])
        assert np.array_equal(store.grads, ref_store.grads)
        assert np.array_equal(store.params, ref_store.params)
        ref_state = ref_head.state()
        for name, value in head.state().items():
            assert np.array_equal(value, ref_state[name])


def test_mlp_step_allocates_no_array_as_large_as_the_first_layer(monkeypatch):
    """From the loss to the optimizer update, a training step of an MLP head
    with a 1024 x 1024 first layer holds under half that layer's weight in
    arrays it made: no gradient array of the weight's size, no copy, no
    squares of it.  The bound is half because the baseline, taken when the
    loss is called, counts the batch's inputs, which the step frees."""
    d_a, d_v, d_e, hidden = 256, 768, 64, 1024
    dataset = DatasetConfig(n_identities=4, samples_per_identity=12, d_a=d_a, d_v=d_v,
                            seed=0)
    train, val = split_dataset(
        sample_dataset(generate_identities(dataset), dataset), 0.25, 0)
    rng = np.random.default_rng(0)
    head = make_head("mlp", rng, d_a=d_a, d_v=d_v, d_e=d_e, hidden=hidden)
    arc = ArcMarginHead.create(rng, d_e, 4)
    weight_bytes = head.layers[0].weight.nbytes
    assert head.layers[0].weight.size >= 2**20

    peaks, starts = [], []
    loss_fn, step_fn = training.batch_loss, AdamW.step

    def measured_loss(*args, **kwargs):
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return loss_fn(*args, **kwargs)

    def measured_step(*args, **kwargs):
        step_fn(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])

    monkeypatch.setattr(training, "batch_loss", measured_loss)
    monkeypatch.setattr(AdamW, "step", measured_step)
    tracemalloc.start()
    try:
        train_run(head, arc, train, val, TrainingConfig(batch_size=16, max_epochs=1))
    finally:
        tracemalloc.stop()
    assert len(peaks) == -(-len(train) // 16)  # one per batch
    assert max(peaks) < weight_bytes // 2


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(50_000, 500_000).map(lambda k: 2 * k + 1),
                   min_size=1, max_size=2),
    rows=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    clip_scale=st.sampled_from([0.5, 2.0]),
)
def test_clip_through_a_block_scratch_matches_loop(sizes, rows, seed, clip_scale):
    """Views of 10^5-10^6 values of odd length, and a 2-d view, clipped
    through a scratch of ADAMW_BLOCK values: the norm and every clipped value
    equal the loop's, which squares each gradient whole."""
    rng = np.random.default_rng(seed)
    shapes = [(size,) for size in sizes] + [(rows, ADAMW_BLOCK + 3)]
    owner = types.SimpleNamespace(**{f"t{i}": np.zeros(s) for i, s in enumerate(shapes)})
    store = ParamStore([(name, owner, name) for name in vars(owner)])
    for view in store.grad_views.values():
        view[...] = draw_values(rng, view.shape)
    norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in store.grad_views.values()))
    max_norm = clip_scale * norm
    expected, expected_total = loop_clip_global_norm(
        {name: g.copy() for name, g in store.grad_views.items()}, max_norm)

    scratch = np.empty(ADAMW_BLOCK)
    tracemalloc.start()
    try:
        clipped, total = clip_global_norm(store.grad_views, max_norm, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == expected_total
    assert (total > max_norm) == (clip_scale < 1)
    for name, g in expected.items():
        assert np.array_equal(clipped[name], g)
    assert peak < 2**16  # no square of a gradient, not even of one block


def test_train_run_clips_through_one_block(monkeypatch):
    """The clip scratch of a run holds at most ADAMW_BLOCK values, however
    large its gradients: an MLP layer of 200 x 300 weights is clipped
    through it."""
    dataset = DatasetConfig(n_identities=3, samples_per_identity=6, d_a=100, d_v=200,
                            seed=0)
    train, val = split_dataset(
        sample_dataset(generate_identities(dataset), dataset), 0.34, 0)
    rng = np.random.default_rng(0)
    head = make_head("mlp", rng, d_a=100, d_v=200, d_e=8, hidden=200)
    arc = ArcMarginHead.create(rng, 8, 3)
    sizes, clip = [], training.clip_global_norm

    def recording(grads, max_norm, scratch):
        sizes.append((scratch.size, max(g.size for g in grads.values())))
        return clip(grads, max_norm, scratch)

    monkeypatch.setattr(training, "clip_global_norm", recording)
    train_run(head, arc, train, val, TrainingConfig(batch_size=4, max_epochs=1))
    assert sizes and all(scratch == ADAMW_BLOCK < largest for scratch, largest in sizes)
