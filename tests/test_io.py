import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.arcmargin import ArcMarginHead
from avfusion.data import Sample
from avfusion.errors import PersistenceError
from avfusion.evaluation import (
    TrialConfig,
    boxplot_stats,
    run_full_evaluation,
)
from avfusion.persistence import (
    load_checkpoint,
    read_embeddings,
    read_epoch_log,
    read_report,
    report_document,
    save_checkpoint,
    write_embeddings,
    write_epoch_log,
    write_report,
)
from avfusion.svgplot import render_boxplot_svg
from avfusion.training import EpochRecord

from conftest import make_head, small_dataset


def random_samples(rng, n, d_a=5, d_v=7):
    return [
        Sample(f"id{int(rng.integers(0, 4)):03d}", f"s{i:05d}",
               rng.normal(size=d_a), rng.normal(size=d_v))
        for i in range(n)
    ]


class TestEmbeddingFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.emb"
        header = {"version": 1, "endianness": "little", "d_a": 3, "d_v": 4,
                  "count": 0, "records": []}
        path.write_bytes(_framed(b"AVFEMB01", header, b""))
        assert read_embeddings(path) == []

    def test_empty_list_not_written(self, tmp_path):
        path = tmp_path / "empty.emb"
        with pytest.raises(PersistenceError):
            write_embeddings(path, [])
        assert not path.exists()

    def test_round_trip_bit_exact(self, tmp_path, rng):
        samples = random_samples(rng, 1000)
        path = tmp_path / "samples.emb"
        write_embeddings(path, samples)
        loaded = read_embeddings(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.identity_id == b.identity_id
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.audio, b.audio)
            assert np.array_equal(a.video, b.video)

    def test_corrupted_magic(self, tmp_path, rng):
        path = tmp_path / "bad.emb"
        write_embeddings(path, random_samples(rng, 3))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "cut.emb"
        write_embeddings(path, random_samples(rng, 3))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(PersistenceError):
            read_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            read_embeddings(tmp_path / "nope.emb")

    def test_dimension_mismatch_on_write(self, tmp_path, rng):
        samples = random_samples(rng, 2) + random_samples(rng, 1, d_a=9)
        with pytest.raises(PersistenceError):
            write_embeddings(tmp_path / "mixed.emb", samples)


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["mean", "mlp", "multiview"])
    def test_round_trip_eval_equality(self, kind, tmp_path):
        rng = np.random.default_rng(1)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        arc = ArcMarginHead.create(rng, 3, 7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, head, arc, {"epoch": 3})
        loaded_head, loaded_arc, provenance = load_checkpoint(path)
        assert provenance == {"epoch": 3}
        assert np.array_equal(loaded_arc.prototypes, arc.prototypes)
        for _ in range(100):
            a = rng.normal(size=(1, 4))
            v = rng.normal(size=(1, 6))
            assert np.array_equal(head.embed(a, v), loaded_head.embed(a, v))

    def test_mlp_running_stats_preserved(self, tmp_path):
        rng = np.random.default_rng(2)
        head = make_head("mlp", rng, d_a=4, d_v=6, d_e=3, hidden=5,
                         dropout_p=0.0)
        # push the running stats away from their initial values
        head.forward(rng.normal(size=(8, 4)), rng.normal(size=(8, 6)),
                     train=True, rng=rng)
        arc = ArcMarginHead.create(rng, 3, 7)
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(path, head, arc)
        loaded, _, _ = load_checkpoint(path)
        for bn, loaded_bn in zip(head.norms, loaded.norms):
            assert np.array_equal(bn.running_mean, loaded_bn.running_mean)
            assert np.array_equal(bn.running_var, loaded_bn.running_var)

    def test_prototypes_of_another_dim_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3)
        path = tmp_path / "mean.ckpt"
        save_checkpoint(path, head, ArcMarginHead.create(rng, 2, 7))
        with pytest.raises(PersistenceError, match="prototypes"):
            load_checkpoint(path)

    def test_out_of_range_dropout_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3)
        head.dropout.probability = 1.5
        path = tmp_path / "mean.ckpt"
        save_checkpoint(path, head, ArcMarginHead.create(rng, 3, 7))
        with pytest.raises(PersistenceError, match="dropout"):
            load_checkpoint(path)

    def test_truncated_checkpoint(self, tmp_path):
        rng = np.random.default_rng(4)
        head = make_head("mean", rng, d_a=4, d_v=6, d_e=3)
        arc = ArcMarginHead.create(rng, 3, 7)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, head, arc)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(PersistenceError):
            load_checkpoint(path)


def _header_paths(node, prefix=()):
    """The key path of every node of a parsed JSON header, root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _header_paths(child, prefix + (key,))


def _split(blob, magic):
    """(parsed JSON header, payload) of a framed file."""
    (length,) = struct.unpack("<I", blob[len(magic) : len(magic) + 4])
    start = len(magic) + 4
    return json.loads(blob[start : start + length]), blob[start + length :]


def _framed(magic, header, payload):
    body = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(body)) + body + payload


@pytest.fixture(scope="module")
def intact_files(tmp_path_factory):
    """name -> (reader, magic, bytes) of one valid file per format and head."""
    root = tmp_path_factory.mktemp("intact")
    rng = np.random.default_rng(9)
    write_embeddings(root / "s.emb", random_samples(rng, 4, d_a=3, d_v=2))
    files = {"emb": (read_embeddings, b"AVFEMB01", (root / "s.emb").read_bytes())}
    for kind in ("mean", "mlp", "multiview"):
        head = make_head(kind, rng, d_a=3, d_v=2, d_e=2, hidden=3)
        save_checkpoint(root / f"{kind}.ckpt", head, ArcMarginHead.create(rng, 2, 3),
                        {"seed": 1})
        files[kind] = (load_checkpoint, b"AVFCKP01", (root / f"{kind}.ckpt").read_bytes())
    return root, files


def _read_or_persistence_error(intact_files, name, blob):
    root, files = intact_files
    reader = files[name][0]
    path = root / "damaged"
    path.write_bytes(blob)
    try:
        reader(path)
    except PersistenceError:
        pass


_FILE_NAMES = st.sampled_from(["emb", "mean", "mlp", "multiview"])
_WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(),
    st.text(max_size=3), st.sampled_from(["mean", "mlp", "multiview"]),
    st.lists(st.integers(-1, 4), max_size=3), st.just({}), st.just("<deleted>"),
)


class TestDamagedFiles:
    """Damaged or malformed files fail with PersistenceError and nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(name=_FILE_NAMES, data=st.data())
    def test_truncated(self, intact_files, name, data):
        blob = intact_files[1][name][2]
        cut = data.draw(st.integers(0, len(blob) - 1))
        _read_or_persistence_error(intact_files, name, blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(name=_FILE_NAMES, data=st.data())
    def test_flipped_bytes(self, intact_files, name, data):
        blob = bytearray(intact_files[1][name][2])
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
            min_size=1, max_size=3,
        ))
        for index, mask in flips:
            blob[index] ^= mask
        _read_or_persistence_error(intact_files, name, bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(name=_FILE_NAMES, data=st.data(), value=_WRONG_VALUES)
    def test_wrong_typed_header(self, intact_files, name, data, value):
        _, magic, blob = intact_files[1][name]
        header, payload = _split(blob, magic)
        path = data.draw(st.sampled_from(list(_header_paths(header))))
        if path:
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        else:
            header = value
        _read_or_persistence_error(intact_files, name, _framed(magic, header, payload))

    @pytest.mark.parametrize("name", ["emb", "mean"])
    def test_non_finite_payload(self, intact_files, name):
        root, files = intact_files
        reader, _, blob = files[name]
        (root / "nan").write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        with pytest.raises(PersistenceError):
            reader(root / "nan")

    @pytest.mark.parametrize("name, entry", [
        ("emb", "d_a"), ("mlp", "head"), ("mlp", "arc"), ("mlp", "tensors"),
        ("mlp", "first tensor"),
    ])
    def test_missing_entry(self, intact_files, name, entry):
        root, files = intact_files
        reader, magic, blob = files[name]
        header, payload = _split(blob, magic)
        if entry == "first tensor":
            # its row in the tensor table and its bytes in the payload
            _, shape = header["tensors"].pop(0)
            payload = payload[8 * int(np.prod(shape)):]
        else:
            del header[entry]
        (root / "missing").write_bytes(_framed(magic, header, payload))
        with pytest.raises(PersistenceError):
            reader(root / "missing")


class TestEpochLog:
    def test_round_trip(self, tmp_path):
        records = [
            EpochRecord(0, 1.5, 0.4, 0.001, False),
            EpochRecord(1, 1.2, 0.6, 0.001, True),
        ]
        path = tmp_path / "epochs.log"
        write_epoch_log(path, records)
        loaded = read_epoch_log(path)
        assert loaded == [
            {"epoch": 0, "mean_loss": 1.5, "val_accuracy": 0.4, "lr": 0.001,
             "is_best": False},
            {"epoch": 1, "mean_loss": 1.2, "val_accuracy": 0.6, "lr": 0.001,
             "is_best": True},
        ]


@pytest.fixture(scope="module")
def sample_report():
    rng = np.random.default_rng(5)
    head = make_head("mean", rng, d_e=8)
    samples = small_dataset(n_identities=4, samples_per_identity=4)
    return run_full_evaluation(head, samples, TrialConfig(15, 15, 0))


class TestReports:
    def test_structured_round_trip(self, tmp_path, sample_report):
        paths = write_report(tmp_path / "report", sample_report, "structured")
        doc = read_report(paths[0])
        assert doc == report_document(sample_report)
        assert len(doc["eer"]) == 6
        # all values are already at 6 significant digits
        for entry in doc["eer"].values():
            assert entry["eer"] == float(f"{entry['eer']:.6g}")

    def test_tabular_eer_rows(self, tmp_path, sample_report):
        paths = write_report(tmp_path / "report", sample_report, "tabular")
        eer_lines = (tmp_path / "report_eer.csv").read_text().strip().splitlines()
        assert len(eer_lines) == 7  # header + 6 modes
        assert eer_lines[0] == "mode,eer,threshold,n_target,n_nontarget"
        assert len(paths) == 2

    def test_empty_diagnostics_section(self, tmp_path):
        from avfusion.evaluation import DiagnosticsReport

        report = DiagnosticsReport()
        paths = write_report(tmp_path / "empty", report, "tabular")
        diag_lines = (tmp_path / "empty_diagnostics.csv").read_text().splitlines()
        assert len(diag_lines) == 1  # header only
        assert (tmp_path / "empty_eer.csv").read_text().splitlines()[0].startswith(
            "mode,"
        )

    def test_both_formats(self, tmp_path, sample_report):
        both = write_report(tmp_path / "both", sample_report, "both")
        assert [os.path.basename(p) for p in both] == [
            "both.json", "both_eer.csv", "both_diagnostics.csv"]
        single = (write_report(tmp_path / "one", sample_report, "structured")
                  + write_report(tmp_path / "one", sample_report, "tabular"))
        assert [open(p, "rb").read() for p in both] == [
            open(p, "rb").read() for p in single]

    def test_unknown_format(self, tmp_path, sample_report):
        with pytest.raises(PersistenceError):
            write_report(tmp_path / "report", sample_report, "xml")
        assert list(tmp_path.iterdir()) == []


class TestSvgBoxplots:
    def test_single_box(self, tmp_path):
        stats = boxplot_stats([1.0, 2.0, 3.0])
        path = tmp_path / "one.svg"
        doc = render_boxplot_svg(path, [("g0", [stats])], ["model"])
        assert doc.startswith("<svg")
        assert doc.count('class="box"') == 1
        assert path.read_text() == doc

    def test_deterministic_bytes(self, tmp_path, rng):
        groups = [
            (f"id{i}", [boxplot_stats(rng.normal(size=20))]) for i in range(4)
        ]
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        render_boxplot_svg(p1, groups, ["m"])
        render_boxplot_svg(p2, groups, ["m"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_box_count_three_models_five_groups(self, tmp_path, rng):
        groups = [
            (f"id{i}", [boxplot_stats(rng.normal(size=20)) for _ in range(3)])
            for i in range(5)
        ]
        doc = render_boxplot_svg(
            tmp_path / "grid.svg", groups, ["mean", "mlp", "multiview"]
        )
        assert doc.count('class="box"') == 15

    def test_outlier_markers(self, tmp_path):
        stats = boxplot_stats([1.0, 1.0, 1.0, 100.0])
        doc = render_boxplot_svg(tmp_path / "o.svg", [("g", [stats])], ["m"])
        assert doc.count('class="outlier"') == 1
