"""The flat-store optimizer against its per-tensor loop references.

Every comparison is exact (`==`): each trained tensor is written to the
checkpoint at full precision, so a difference in the last bit of one update
changes output bytes.  The loop references (`conftest.loop_adamw_step`,
`conftest.loop_clip_global_norm`) work on a dict of separate arrays; the
fused pass works on one buffer in ADAMW_BLOCK-element blocks.
"""

import tracemalloc
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.training import (
    ADAMW_BLOCK,
    AdamW,
    ParamStore,
    TrainingConfig,
    clip_global_norm,
)

from conftest import LoopAdamW, loop_clip_global_norm

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

    fired = []
    for _ in range(n_steps):
        # Gradients arrive in another order than the store's layout, as a
        # head's backward pass yields them; the norm sums in their order.
        order = list(rng.permutation(names))
        grads = {name: draw_values(rng, initial[name].shape) for name in order}
        norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
        max_norm = clip_scale * norm

        expected, expected_total = loop_clip_global_norm(
            {name: g.copy() for name, g in grads.items()}, max_norm)
        loop.step(loop_params, expected, lr)

        clipped, total = clip_global_norm(store.load_grads(grads), max_norm)
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
    store.load_grads({"p": rng.normal(size=size)})
    fused = AdamW(config, size)
    fused_peak = peak_of(lambda: fused.step(store.params, store.grads, 1e-3))
    # The per-tensor loop makes its moments and several full-size
    # temporaries: the measurement sees them.
    loop = LoopAdamW(config)
    loop_peak = peak_of(lambda: loop.step({"p": owner.p}, {"p": store.grads}, 1e-3))
    assert fused_peak < 2**20
    assert loop_peak > 16 * 2**20
