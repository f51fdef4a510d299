import hashlib
import json
import math
import os
import pathlib
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import persistence
from avfusion.arcmargin import ArcMarginHead
from avfusion.data import Sample
from avfusion.errors import AvFusionError, PersistenceError
from avfusion.evaluation import (
    MODALITY_MODES,
    AngleReport,
    DiagnosticsReport,
    EerResult,
    TrialConfig,
    boxplot_stats,
    run_full_evaluation,
)
from avfusion.persistence import (
    _report_arrays,
    _report_json,
    _sig6,
    _sig6_matrix,
    _sig6_texts,
    load_checkpoint,
    read_embeddings,
    read_report,
    report_document,
    save_checkpoint,
    write_comparison,
    write_diagnostics,
    write_embeddings,
    write_epoch_log,
    write_report,
)
from avfusion.svgplot import render_boxplot_svg
from avfusion.training import EpochRecord

from conftest import (
    loop_boxplot_stats,
    loop_diagnose_outputs,
    loop_stats_dict,
    loop_load_checkpoint,
    loop_read_embeddings,
    loop_write_comparison,
    loop_write_diagnostics_csv,
    make_head,
    small_dataset,
)


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
        loaded = read_embeddings(path)
        assert list(loaded) == []
        assert loaded.audio.shape == (0, 3) and loaded.video.shape == (0, 4)

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

    @pytest.mark.parametrize("dims", [(0, 4), (3, 0), (0, 0)])
    def test_zero_dim_rejected(self, tmp_path, rng, dims):
        path = tmp_path / "zero.emb"
        write_embeddings(path, random_samples(rng, 3, *dims))
        with pytest.raises(PersistenceError, match=r"dims \(\d, \d\) must be >= 1"):
            read_embeddings(path)

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

    @pytest.mark.parametrize("kind, edit", [
        ("mean", {"d_a": 999, "d_e": 3}), ("mlp", {"hidden": 4}), ("multiview", {"x": 1.0}),
    ])
    def test_header_disagreeing_with_tensors_rejected(self, tmp_path, kind, edit):
        rng = np.random.default_rng(3)
        head = make_head(kind, rng, d_a=4, d_v=6, d_e=3, hidden=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, head, ArcMarginHead.create(rng, 3, 7))
        header, payload = _split(path.read_bytes(), b"AVFCKP01")
        header["head"].update(edit)
        path.write_bytes(_framed(b"AVFCKP01", header, payload))
        with pytest.raises(PersistenceError, match="disagrees with its tensors"):
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


_LOOP_READERS = {read_embeddings: loop_read_embeddings,
                 load_checkpoint: loop_load_checkpoint}


def _read_outcome(reader, path):
    """What a reader makes of a file: its PersistenceError message, or every
    loaded value as bytes.  Any other exception propagates."""
    try:
        result = reader(path)
    except PersistenceError as exc:
        return str(exc)
    if reader in (read_embeddings, loop_read_embeddings):
        return [(s.identity_id, s.sample_id, s.audio.dtype, s.audio.tobytes(),
                 s.video.dtype, s.video.tobytes()) for s in result]
    head, arc, provenance = result
    tensors = {**head.state(), "arc": arc.prototypes}
    return (head.kind, head.meta(), arc.scale, arc.margin, provenance,
            {k: (v.dtype, v.shape, v.tobytes()) for k, v in tensors.items()})


def _refused_since_the_loop_reader(magic, blob, loaded):
    """Whether the file `blob`, which the loop reader loaded as `loaded`, is
    one the reader now refuses: an embedding file of samples of a zero audio
    or video dim, or a checkpoint whose header `head` entry differs from the
    loaded head's meta()."""
    header = _split(blob, magic)[0]
    if magic == b"AVFEMB01":
        return header["count"] > 0 and 0 in (header["d_a"], header["d_v"])
    return header["head"] != loaded[1]


def _read_or_persistence_error(intact_files, name, blob):
    """Reads `blob` as file `name`, which may fail with PersistenceError and
    nothing else, and with the message or values of the loop reader that
    copied the payload per tensor, except where that reader loaded a file
    that the reader now refuses."""
    root, files = intact_files
    reader, magic, _ = files[name]
    path = root / "damaged"
    path.write_bytes(blob)
    got, expected = _read_outcome(reader, path), _read_outcome(_LOOP_READERS[reader], path)
    if not isinstance(expected, str) and _refused_since_the_loop_reader(magic, blob, expected):
        assert isinstance(got, str), got
    else:
        assert got == expected


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

    @settings(max_examples=100, deadline=None)
    @given(name=_FILE_NAMES, extra=st.binary(min_size=1, max_size=17))
    def test_appended_bytes(self, intact_files, name, extra):
        _read_or_persistence_error(intact_files, name, intact_files[1][name][2] + extra)

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


class TestOneBufferReads:
    @pytest.mark.parametrize("name", ["emb", "mean", "mlp", "multiview"])
    def test_intact_files_load_as_the_loop_readers_load_them(self, intact_files, name):
        _read_or_persistence_error(intact_files, name, intact_files[1][name][2])

    def test_checkpoint_load_holds_one_copy_of_the_payload(self, tmp_path):
        """The load peaks below 1.25 times the payload: the payload is read
        into one buffer and the tensors are views of it."""
        rng = np.random.default_rng(0)
        head = make_head("mlp", rng, d_a=100, d_v=300, d_e=64, hidden=800)
        arc = ArcMarginHead.create(rng, 64, 50)
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(path, head, arc)
        payload = 8 * (sum(v.size for v in head.state().values()) + arc.prototypes.size)
        tracemalloc.start()
        try:
            loaded, _, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * payload, (peak, payload)
        assert loaded.kind == "mlp"


class TestEpochLog:
    def test_round_trip(self, tmp_path):
        records = [
            EpochRecord(0, 1.5, 0.4, 0.001, False),
            EpochRecord(1, 1.2, 0.6, 0.001, True),
        ]
        path = tmp_path / "epochs.log"
        write_epoch_log(path, records)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
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

    def test_both_formats(self, tmp_path, sample_report):
        both = write_report(tmp_path / "both", sample_report, "both")
        assert [os.path.basename(p) for p in both] == [
            "both.json", "both_eer.csv", "both_diagnostics.csv"]
        single = (write_report(tmp_path / "one", sample_report, "structured")
                  + write_report(tmp_path / "one", sample_report, "tabular"))
        assert [open(p, "rb").read() for p in both] == [
            open(p, "rb").read() for p in single]

    def test_failure_while_spelling_leaves_no_file(self, tmp_path, sample_report,
                                                   monkeypatch):
        # A matrix is spelled while the report file is open, after its first
        # pieces are written; the failure removes that file.
        def no_memory(*args):
            assert (tmp_path / "report.json").exists()
            raise MemoryError

        monkeypatch.setattr(persistence, "_matrix_json", no_memory)
        with pytest.raises(MemoryError):
            write_report(tmp_path / "report", sample_report, "both")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format(self, tmp_path, sample_report):
        with pytest.raises(PersistenceError):
            write_report(tmp_path / "report", sample_report, "xml")
        assert list(tmp_path.iterdir()) == []


class TestFamilyBoxplots:
    @pytest.mark.parametrize("n_identities", [5, 50])
    def test_calls_do_not_grow_with_identities(self, tmp_path, monkeypatch, n_identities):
        """The boxplots of every identity of every angle family come from one
        `boxplot_stats` call: `write_report` makes two (the families, then
        the centroid triangles) and `write_diagnostics` two (the identities,
        then each family as a whole), whatever the identity count."""
        calls = []

        def counted(*args):
            calls.append(args)
            return boxplot_stats(*args)

        report = run_full_evaluation(
            make_head("mean", np.random.default_rng(3), d_e=8),
            small_dataset(n_identities=n_identities, samples_per_identity=4),
            TrialConfig(15, 15, 0))
        monkeypatch.setattr(persistence, "boxplot_stats", counted)
        write_report(tmp_path / "report", report, "both")
        assert len(calls) == 2
        calls.clear()
        write_diagnostics(tmp_path / "diagnose", report, "mean")
        assert len(calls) == 2


# Identities sort in an order of their own; an empty angle list is an
# identity with no angles, and an empty dict a family with no identities.
IDENTITIES = st.text(alphabet="ab0_", min_size=1, max_size=3)
ANGLES = st.lists(st.one_of(st.sampled_from([0.0, 45.0, 90.0, 180.0]),
                            st.floats(0.0, 180.0)), max_size=6)


@st.composite
def angle_reports(draw, family):
    return AngleReport(family, draw(st.dictionaries(IDENTITIES, ANGLES, max_size=5)),
                       draw(st.integers(0, 4)))


@st.composite
def centroid_matrices(draw):
    """(identities, symmetric angle matrix); a zero centroid leaves fewer
    identities than the family has, down to none."""
    ids = sorted(draw(st.sets(IDENTITIES, max_size=5)))
    matrix = np.zeros((len(ids), len(ids)))
    first, second = np.triu_indices(len(ids), k=1)
    upper = draw(st.lists(st.floats(0.0, 180.0), min_size=first.size,
                          max_size=first.size))
    matrix[first, second] = matrix[second, first] = upper
    return ids, matrix


@st.composite
def diagnostics_reports(draw):
    families = [draw(angle_reports(f)) for f in
                ("audio_video", "within_identity_audio", "within_identity_video")]
    skipped = draw(st.integers(0, 3))  # zero centroids; not in the summary
    return DiagnosticsReport(
        eer={}, audio_video=families[0],
        within_identity={"audio": families[1], "video": families[2]},
        between_centroids={m: draw(centroid_matrices()) for m in ("audio", "video")},
        silhouette={m: draw(st.floats(-1.0, 1.0)) for m in ("audio", "video")},
        warnings=sum(f.warnings for f in families) + skipped,
    )


def written(directory):
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


def outcome(fn, *args):
    try:
        return fn(*args)
    except AvFusionError as exc:
        return type(exc), str(exc)


class TestDiagnosticsOutputs:
    """The writers of `diagnose` and `evaluate` against the files the CLI
    wrote itself, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(diagnostics_reports(), st.sampled_from(["mean", "mlp", "multiview"]))
    def test_write_diagnostics_matches_loop(self, report, label):
        with tempfile.TemporaryDirectory() as root:
            got_dir, want_dir = pathlib.Path(root, "got"), pathlib.Path(root, "want")
            got_dir.mkdir()
            want_dir.mkdir()
            got = outcome(write_diagnostics, got_dir, report, label)
            want = outcome(loop_diagnose_outputs, want_dir, report, label)
            assert got == want
            # A refused report leaves no file, where the loop wrote the SVGs
            # before the one it refused.
            assert written(got_dir) == (written(want_dir) if isinstance(got, dict) else {})
        if isinstance(got, dict):
            families = (report.audio_video, *report.within_identity.values())
            assert got["warnings"] == sum(f.warnings for f in families)

    @settings(max_examples=120, deadline=None)
    @given(diagnostics_reports())
    def test_report_files_match_loop(self, report):
        with tempfile.TemporaryDirectory() as root:
            root = pathlib.Path(root)
            doc = report_document(report)
            paths = write_report(root / "got", report, "both")
            loop_write_diagnostics_csv(root / "want.csv", doc)
            assert (root / "got_diagnostics.csv").read_bytes() == (
                root / "want.csv").read_bytes()
            assert pathlib.Path(paths[0]).read_bytes() == (
                json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
        for fam, rep in [(doc["angle_families"]["audio_video"], report.audio_video),
                         *[(doc["angle_families"]["within_identity"][m],
                            report.within_identity[m]) for m in ("audio", "video")]]:
            assert list(fam["per_identity"].items()) == [
                (identity, loop_stats_dict(loop_boxplot_stats(angles)) if angles else None)
                for identity, angles in sorted(rep.per_identity.items())]
        for modality, (ids, matrix) in report.between_centroids.items():
            fam = doc["angle_families"]["between_centroids"][modality]
            assert fam["identities"] == ids
            assert hexes(fam["matrix"]) == hexes([[_sig6(v) for v in row] for row in matrix])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["mean", "mlp", "multiview", "x_1"]),
                              st.fixed_dictionaries({m: st.floats(0.0, 1.0)
                                                     for m in MODALITY_MODES})),
                    min_size=1, max_size=4))
    def test_write_comparison_matches_loop(self, rows):
        with tempfile.TemporaryDirectory() as root:
            root = pathlib.Path(root)
            path = write_comparison(root, [
                (model, {m: EerResult(eer, 0.0, 1, 1) for m, eer in eers.items()})
                for model, eers in rows])
            loop_write_comparison(root / "want.csv", rows)
            assert path == os.path.join(root, "comparison.csv")
            assert (root / "comparison.csv").read_bytes() == (root / "want.csv").read_bytes()

    def test_one_and_several_checkpoints(self, tmp_path, sample_report):
        rows = [("mean", sample_report.eer), ("mlp", sample_report.eer),
                ("multiview", sample_report.eer)]
        for n in (1, 3):
            path = write_comparison(tmp_path, rows[:n])
            loop_write_comparison(tmp_path / "want.csv", [
                (model, {m: r.eer for m, r in eers.items()}) for model, eers in rows[:n]])
            lines = (tmp_path / "comparison.csv").read_text().splitlines()
            assert len(lines) == n + 1
            assert open(path, "rb").read() == (tmp_path / "want.csv").read_bytes()


# Floats whose spelling or rounding is a case of its own: the non-finite
# ones, the signed zeros, the smallest subnormal, where repr switches to
# exponents, sixth-digit ties, and both sides of where `.6g` switches.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072e-308, 1e-5, 1e16, 1e22, 12.34565, 0.1234565,
                  123456.5, 9.999995e-5, 1e-4, 1.000005e-4, 999999.5, 1e6,
                  1000005.0, 1e300]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# Identities whose JSON text a report writer must not take for its layout:
# quotes, backslashes, NUL, the key "matrix" and the text that marks a
# matrix's place, non-ASCII text and lone surrogates.
IDENTITY_PIECES = ['"', "\\", "\x00", ": ", "matrix", '"matrix": "\\u0000"', '": "\\u0000"',
                   '"matrix": "\x00"', "é", "漢", "😀", "\ud800", "\udfff", "a"]
ADVERSARIAL_IDENTITIES = st.one_of(
    st.lists(st.sampled_from(IDENTITY_PIECES), min_size=1, max_size=4).map("".join),
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=4))


@st.composite
def adversarial_reports(draw):
    """Reports of adversarial identities, with centroid matrices of 0, 1 or
    several rows whose values are mostly special floats, often repeated."""

    def family(name):
        return AngleReport(name, draw(st.dictionaries(ADVERSARIAL_IDENTITIES, ANGLES,
                                                      max_size=3)), draw(st.integers(0, 2)))

    def centroids():
        n = draw(st.integers(0, 5))
        values = draw(st.lists(FLOATS, min_size=n * n, max_size=n * n))
        return (draw(st.lists(ADVERSARIAL_IDENTITIES, min_size=n, max_size=n)),
                np.array(values, dtype=np.float64).reshape(n, n))

    modes = draw(st.sets(st.sampled_from(list(MODALITY_MODES))))
    return DiagnosticsReport(
        eer={mode: EerResult(draw(FLOATS), draw(FLOATS), 1, 1) for mode in modes},
        audio_video=family("audio_video"),
        within_identity={m: family(f"within_identity_{m}") for m in ("audio", "video")},
        between_centroids={m: centroids() for m in ("audio", "video")},
        silhouette={m: draw(FLOATS) for m in ("audio", "video")},
        warnings=draw(st.integers(0, 9)),
    )


class TestReportJson:
    """The report writer against its definition, `json.dumps(doc,
    sort_keys=True, indent=1)` of the report's document, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(adversarial_reports())
    def test_equals_json_dumps(self, report):
        assert "".join(_report_json(_report_arrays(report))) == json.dumps(
            report_document(report), sort_keys=True, indent=1)

    def test_marker_text_as_identity(self):
        marker = '"matrix": "\\u0000"'
        report = DiagnosticsReport(
            audio_video=AngleReport("audio_video", {"matrix": [1.0], marker: [2.0]}),
            within_identity={m: AngleReport(m, {"\x00": []}) for m in ("audio", "video")},
            between_centroids={"audio": (["\x00", marker], np.array([[0.0, 5e-324],
                                                                     [math.nan, -0.0]])),
                               "video": ([], np.zeros((0, 0)))},
            silhouette={"audio": math.inf, "video": -math.inf})
        text = "".join(_report_json(_report_arrays(report)))
        assert text == json.dumps(report_document(report), sort_keys=True, indent=1)
        assert json.loads(text)["angle_families"]["between_centroids"]["audio"][
            "identities"] == ["\x00", marker]


    def test_matrix_rows_in_blocks(self):
        """A 300-identity centroid matrix is laid out in blocks of whole rows
        (at most 2**16 texts, 218 rows, at a time); its text is still the
        standard encoder's."""
        rng = np.random.default_rng(4)
        ids = [f"id{k:03d}" for k in range(300)]
        matrix = rng.choice([0.0, 12.5, 90.0, 179.99999949], size=(300, 300))
        matrix[:150] = rng.uniform(0.0, 180.0, size=(150, 300))
        report = DiagnosticsReport(
            audio_video=AngleReport("audio_video", {"a": [1.0]}),
            within_identity={m: AngleReport(m, {"a": [2.0, 3.0]}) for m in ("audio", "video")},
            between_centroids={"audio": (ids, matrix), "video": (ids[:2], matrix[:2, :2])},
            silhouette={"audio": 0.5, "video": 0.25})
        assert "".join(_report_json(_report_arrays(report))) == json.dumps(
            report_document(report), sort_keys=True, indent=1)


ROUNDING_VALUES = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                            st.sampled_from(SPECIAL_FLOATS).map(lambda v: -v),
                            st.floats(), st.floats(0.0, 180.0))


@st.composite
def square_matrices(draw):
    """Square matrices of any values: neither symmetric nor zero on the
    diagonal, as the rounding must not assume."""
    n = draw(st.integers(0, 7))
    return np.array(draw(st.lists(st.lists(ROUNDING_VALUES, min_size=n, max_size=n),
                                  min_size=n, max_size=n)), dtype=np.float64).reshape(n, n)


def hexes(rows):
    return [[float.hex(v) for v in row] for row in rows]


class TestRounding:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matrix_rounding_equals_sig6_per_value(self, matrix):
        rounded, inverse = _sig6_matrix(matrix)
        assert hexes(rounded[inverse].tolist()) == hexes([[_sig6(v) for v in row]
                                                          for row in matrix])
        flat = matrix.ravel()
        assert hexes([list(map(float, _sig6_texts(flat)))]) == hexes([[_sig6(v) for v in flat]])

    @settings(max_examples=1000, deadline=None)
    @given(ROUNDING_VALUES)
    def test_text_of_rounded_value_is_the_text(self, value):
        """The diagnostics CSV spells a stat by its `.6g` text, which is the
        `.6g` text of the rounded value that the JSON report holds."""
        text = _sig6_texts(np.array([value]))[0]
        assert text == f"{value:.6g}" == f"{_sig6(value):.6g}"
        assert float.hex(float(text)) == float.hex(_sig6(value))

    def test_every_special_value_in_one_matrix(self):
        values = SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS]
        n = math.isqrt(len(values)) + 1
        matrix = np.resize(np.array(values), (n, n))
        matrix[0, 1], matrix[1, 0] = 0.0, -0.0
        rounded, inverse = _sig6_matrix(matrix)
        got = rounded[inverse].tolist()
        assert hexes(got) == hexes([[_sig6(v) for v in row] for row in matrix])
        assert (math.copysign(1.0, got[0][1]), math.copysign(1.0, got[1][0])) == (1.0, -1.0)


# See TestSvgBoxplots.test_bytes_of_the_former_one_label_call.
SVG_SHA256 = "61c544a18b9881456d3ef78fa3d93bc6725aa1b7f96a4c652dcefa1c113bd905"


class TestSvgBoxplots:
    def test_single_box(self):
        stats = boxplot_stats([1.0, 2.0, 3.0])
        doc = render_boxplot_svg([("g0", stats)], "model", "t")
        assert doc.startswith("<svg")
        assert doc.endswith("</svg>\n")
        assert doc.count('class="box"') == 1

    def test_deterministic_bytes(self, rng):
        groups = [(f"id{i}", boxplot_stats(rng.normal(size=20))) for i in range(4)]
        assert render_boxplot_svg(groups, "m", "t") == render_boxplot_svg(groups, "m", "t")

    def test_box_per_group_and_one_legend_entry(self, rng):
        groups = [(f"id{i}", boxplot_stats(rng.normal(size=20))) for i in range(4)]
        doc = render_boxplot_svg([*groups, ("id4", None)], "mlp", "t")
        assert doc.count('class="box"') == 4
        assert doc.count(">id4</text>") == 1
        assert doc.count(">mlp</text>") == 1

    def test_bytes_of_the_former_one_label_call(self):
        # sha256 of what the renderer wrote for these groups when it took a
        # list of stats per group and a list of labels, called as
        # `diagnose` called it: one stats entry per group and one label.
        groups = [
            ("id0000", boxplot_stats([10.0, 12.5, 13.0, 40.0, 11.0])),
            ("id0001", None),
            ("id0002", boxplot_stats([7.25])),
            ("id0003", boxplot_stats([20.0, 20.0, 21.0, 19.0, 90.0, 1.0])),
        ]
        doc = render_boxplot_svg(groups, "mean", "audio video")
        assert hashlib.sha256(doc.encode()).hexdigest() == SVG_SHA256

    def test_outlier_markers(self):
        stats = boxplot_stats([1.0, 1.0, 1.0, 100.0])
        doc = render_boxplot_svg([("g", stats)], "m", "t")
        assert doc.count('class="outlier"') == 1
