"""The sample set against the per-sample lists it replaced, bit for bit.

`sample_dataset`, `split_dataset`, `write_embeddings` and `read_embeddings`
build and move whole matrices; their `loop_*` references in conftest.py
build one `Sample` per row.  Every matrix is compared by its bytes, every id
list with ==, and every written file by its bytes.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.arcmargin import ArcMarginHead
from avfusion.data import (
    DatasetConfig,
    IdentitySpec,
    SampleSet,
    generate_identities,
    sample_dataset,
    split_dataset,
)
from avfusion.errors import ConfigurationError
from avfusion.persistence import read_embeddings, write_embeddings
from avfusion.rng import substream
from avfusion.training import TrainingConfig, train_run

from conftest import (
    loop_read_embeddings,
    loop_sample_dataset,
    loop_split_dataset,
    loop_write_embeddings,
    make_head,
)


def assert_same_rows(samples, rows):
    """`samples`, a set, holds exactly the `Sample` rows `rows`."""
    assert isinstance(samples, SampleSet)
    assert samples.identity_ids == [s.identity_id for s in rows]
    assert samples.sample_ids == [s.sample_id for s in rows]
    d_a, d_v = samples.audio.shape[1], samples.video.shape[1]
    for matrix, column, dim in ((samples.audio, "audio", d_a), (samples.video, "video", d_v)):
        assert matrix.shape == (len(rows), dim)
        expected = np.array([getattr(s, column) for s in rows]).reshape(len(rows), dim)
        assert matrix.dtype == expected.dtype
        assert np.array_equal(matrix, expected)
        assert matrix.tobytes() == expected.tobytes()  # signed zeros too


_CONFIGS = st.builds(
    DatasetConfig,
    n_identities=st.integers(1, 5),
    samples_per_identity=st.integers(1, 6),
    d_a=st.integers(1, 5),
    d_v=st.integers(1, 5),
    audio_noise_sigma=st.floats(0.0, 2.0),
    video_noise_sigma=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS)
def test_sample_dataset_matches_loop(config):
    specs = generate_identities(config)
    assert_same_rows(sample_dataset(specs, config), loop_sample_dataset(specs, config))


def test_sample_dataset_keeps_spec_order_and_names():
    config = DatasetConfig(n_identities=3, samples_per_identity=2, d_a=2, d_v=3, seed=4)
    specs = generate_identities(config)
    renamed = [IdentitySpec(name, spec.audio_prototype, spec.video_prototype)
               for name, spec in zip(("zed", "amy", "id1"), specs)]
    assert_same_rows(sample_dataset(renamed, config), loop_sample_dataset(renamed, config))


def _shuffled(samples, order_seed):
    """The set's rows in another order, so that identities interleave."""
    if order_seed is None:
        return samples
    return samples[np.random.default_rng(order_seed).permutation(len(samples))]


@settings(max_examples=80, deadline=None)
@given(config=_CONFIGS, fraction=st.floats(0.05, 0.95), seed=st.integers(0, 1000),
       order_seed=st.none() | st.integers(0, 1000))
def test_split_dataset_matches_loop(config, fraction, seed, order_seed):
    samples = _shuffled(sample_dataset(generate_identities(config), config), order_seed)
    rows = list(samples)
    try:
        expected = loop_split_dataset(rows, fraction, seed)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as got:
            split_dataset(samples, fraction, seed)
        assert str(got.value) == str(exc)
        return
    for part, loop_part in zip(split_dataset(samples, fraction, seed), expected):
        assert_same_rows(part, loop_part)
    # A `Sample` list splits as its set does.
    for part, loop_part in zip(split_dataset(rows, fraction, seed), expected):
        assert_same_rows(part, loop_part)


def test_split_of_an_empty_set_is_empty():
    train, val = split_dataset([], 0.5, 0)
    assert len(train) == len(val) == 0
    assert loop_split_dataset([], 0.5, 0) == ([], [])


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS, order_seed=st.none() | st.integers(0, 1000))
def test_written_files_match_loop_bytes(tmp_path_factory, config, order_seed):
    samples = _shuffled(sample_dataset(generate_identities(config), config), order_seed)
    root = tmp_path_factory.mktemp("emb")
    loop_write_embeddings(root / "loop.emb", list(samples))
    write_embeddings(root / "set.emb", samples)
    write_embeddings(root / "rows.emb", list(samples))
    expected = (root / "loop.emb").read_bytes()
    assert (root / "set.emb").read_bytes() == expected
    assert (root / "rows.emb").read_bytes() == expected
    loaded = read_embeddings(root / "set.emb")
    assert_same_rows(loaded, loop_read_embeddings(root / "set.emb"))
    assert_same_rows(loaded, list(samples))


def _framed_embeddings(d_a, d_v, records, payload):
    header = {"version": 1, "endianness": "little", "d_a": d_a, "d_v": d_v,
              "count": len(records), "records": records}
    body = json.dumps(header).encode("utf-8")
    return b"AVFEMB01" + struct.pack("<I", len(body)) + body + payload


@settings(max_examples=30, deadline=None)
@given(d_a=st.integers(0, 4), d_v=st.integers(0, 4))
def test_count_zero_file_matches_loop(tmp_path_factory, d_a, d_v):
    path = tmp_path_factory.mktemp("empty") / "empty.emb"
    path.write_bytes(_framed_embeddings(d_a, d_v, [], b""))
    loaded = read_embeddings(path)
    assert loop_read_embeddings(path) == [] == list(loaded)
    assert loaded.audio.shape == (0, d_a) and loaded.video.shape == (0, d_v)
    assert loaded.identity_ids == loaded.sample_ids == []


def test_read_rows_are_views_of_one_buffer(tmp_path):
    config = DatasetConfig(n_identities=2, samples_per_identity=3, d_a=2, d_v=3)
    write_embeddings(tmp_path / "s.emb", sample_dataset(generate_identities(config), config))
    loaded = read_embeddings(tmp_path / "s.emb")
    assert loaded.audio.base is loaded.video.base is not None
    assert all(np.shares_memory(row.audio, loaded.audio) for row in loaded)


@settings(max_examples=40, deadline=None)
@given(config=_CONFIGS)
def test_of_a_sample_list_matches_its_rows(config):
    rows = loop_sample_dataset(generate_identities(config), config)
    samples = SampleSet.of(rows)
    assert_same_rows(samples, rows)
    assert SampleSet.of(samples) is samples
    assert [(s.identity_id, s.sample_id) for s in samples] == [
        (s.identity_id, s.sample_id) for s in rows]


@pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
def test_train_run_on_sample_lists_matches_sets(kind):
    config = DatasetConfig(n_identities=4, samples_per_identity=8, seed=3)
    train, val = split_dataset(sample_dataset(generate_identities(config), config), 0.25, 0)
    results = []
    for train_part, val_part in ((train, val), (list(train), list(val))):
        head = make_head(kind, substream(0, "init"))
        arc = ArcMarginHead.create(substream(0, "init-arc"), head.d_e, 4)
        result = train_run(head, arc, train_part, val_part,
                           TrainingConfig(learning_rate=0.05, batch_size=8, max_epochs=2))
        results.append(result)
    first, second = results
    assert [vars(r) for r in first.records] == [vars(r) for r in second.records]
    for name, value in first.best_head.state().items():
        assert value.tobytes() == second.best_head.state()[name].tobytes()
    assert first.best_arc.prototypes.tobytes() == second.best_arc.prototypes.tobytes()
