import errno
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

import avfusion
from avfusion import cli, persistence
from avfusion.persistence import (
    load_checkpoint,
    read_embeddings,
    read_report,
    save_checkpoint,
    write_embeddings,
)
from avfusion.arcmargin import ArcMarginHead
from avfusion.data import SampleSet
from avfusion.heads import MeanFusionHead, MlpFusionHead
from avfusion.rng import substream


def run(argv):
    return cli.main(argv)


def generate_args(out_dir, seed=0, identities=6, per_identity=10):
    return [
        "generate", "--out-dir", str(out_dir), "--seed", str(seed),
        "--n-identities", str(identities),
        "--samples-per-identity", str(per_identity),
    ]


def train_args(data_dir, out_dir, head="mean", seed=0, extra=()):
    return [
        "train",
        "--train-embeddings", str(data_dir / "train.emb"),
        "--val-embeddings", str(data_dir / "val.emb"),
        "--head", head,
        "--seed", str(seed),
        "--max-epochs", "2",
        "--batch-size", "32",
        "--learning-rate", "0.05",
        "--checkpoint-out", str(out_dir / f"{head}.ckpt"),
        "--epoch-log-out", str(out_dir / f"{head}.log"),
        *extra,
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated dataset plus a trained mean-head checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run(generate_args(root)) == 0
    assert run(train_args(root, root)) == 0
    return root


@pytest.fixture(scope="module")
def other_dims(tmp_path_factory):
    """A dataset of audio/video dims (5, 7), and a mean-head checkpoint of it."""
    root = tmp_path_factory.mktemp("other-dims")
    assert run([*generate_args(root), "--d-a", "5", "--d-v", "7"]) == 0
    assert run(train_args(root, root, extra=["--checkpoint-out", str(root / "other.ckpt")])) == 0
    return root


def huge_weight_checkpoint(pipeline, out_dir):
    """The mean checkpoint with one finite weight whose embeddings overflow."""
    head, arc, provenance = load_checkpoint(pipeline / "mean.ckpt")
    head.proj_audio.weight[0, 0] = 1e300
    path = out_dir / "huge-weight.ckpt"
    save_checkpoint(path, head, arc, provenance)
    return path


def rewrite_header(source, target, edit):
    """Writes framed file `source` to `target` with `edit` applied to its
    JSON header."""
    blob = source.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + length])
    edit(header)
    body = json.dumps(header).encode("utf-8")
    target.write_bytes(blob[:8] + struct.pack("<I", len(body)) + body + blob[12 + length :])
    return target


def epoch_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_capped(argv, timeout=120):
    """A CLI call in a child process whose address space is capped at 4 GiB
    once the library is loaded, so that an allocation beyond it fails at
    once."""
    limit = 4 * 2**30
    code = ("import resource, sys\n"
            "from avfusion import cli\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(avfusion.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def write_test_set(path, identities, per_identity, seed=0):
    """Desk-dim (16/32) samples of `identities` identities, `per_identity`
    each."""
    rng = np.random.default_rng(seed)
    n = identities * per_identity
    write_embeddings(path, SampleSet(
        rng.normal(size=(n, 16)), rng.normal(size=(n, 32)),
        [f"id{i // per_identity:05d}" for i in range(n)], [f"s{i:06d}" for i in range(n)]))
    return path


def fail_writes_after(monkeypatch, n):
    """`persistence` opens its first `n` files for writing as usual; the next
    open for writing fails as a full disk would."""
    writes = []

    def limited_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(file)
            if len(writes) > n:
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
        return open(file, mode, *args, **kwargs)
    monkeypatch.setattr(persistence, "open", limited_open, raising=False)


def run_recording_warnings(argv):
    """(exit code, RuntimeWarnings raised) of one CLI call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestHelp:
    def test_all_flags_documented(self, capsys):
        for command, flags in cli.FLAG_SPECS.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            help_text = capsys.readouterr().out
            for flag in flags:
                assert f"--{flag.name}" in help_text, (command, flag.name)


class TestGenerate:
    def test_stratified_counts(self, pipeline):
        train = read_embeddings(pipeline / "train.emb")
        val = read_embeddings(pipeline / "val.emb")
        test = read_embeddings(pipeline / "test.emb")
        # 10 per identity: 2 test, then 1 of the remaining 8 for validation
        assert len(test) == 6 * 2
        assert len(val) == 6 * 1
        assert len(train) == 6 * 7
        for part in (train, val, test):
            assert len({s.identity_id for s in part}) == 6

    def test_seed_repeat_identical_files(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        assert run(generate_args(d1, seed=5)) == 0
        assert run(generate_args(d2, seed=5)) == 0
        for name in ("train.emb", "val.emb", "test.emb"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_invalid_sigma(self, tmp_path, capsys):
        code = run(generate_args(tmp_path) + ["--audio-noise-sigma", "-1"])
        assert code == cli.EXIT_CONFIG
        assert "audio_noise_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--audio-noise-sigma", "--video-noise-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_or_overflowing_sigma_is_config_error(self, tmp_path, capsys, flag,
                                                             value):
        out = tmp_path / "out"
        code, runtime_warnings = run_recording_warnings(generate_args(out) + [flag, value])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:].replace("-", "_") in captured.err
        assert not runtime_warnings
        assert not out.exists()

    def test_invalid_test_fraction(self, tmp_path, capsys):
        code = run(generate_args(tmp_path) + ["--test-fraction", "1.5"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "1.5" in err and "val_fraction" not in err

    def test_single_identity_is_config_error(self, tmp_path, capsys):
        # A verification trial pairs two identities; evaluate and diagnose
        # could only reject a one-identity split.
        out = tmp_path / "out"
        assert run(generate_args(out, identities=1)) == cli.EXIT_CONFIG
        assert "--n-identities must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_request_is_config_error(self, tmp_path, capsys):
        # 2**42 identities' prototypes alone would take 2**49 bytes, more
        # than any address space; the request is refused before allocation.
        out = tmp_path / "out"
        assert run(generate_args(out, identities=2**42)) == cli.EXIT_CONFIG
        assert f"more than {2**31}" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_nothing(self, tmp_path, capsys):
        # test.emb is a directory: train.emb and val.emb, written before it, go.
        out = tmp_path / "out"
        (out / "test.emb").mkdir(parents=True)
        assert run(generate_args(out)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert os.listdir(out) == ["test.emb"]

    def test_failed_write_removes_the_out_dir_it_made(self, tmp_path, capsys, monkeypatch):
        fail_writes_after(monkeypatch, 2)
        assert run(generate_args(tmp_path / "made" / "out")) == cli.EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_write_failing_within_a_file_removes_it(self, tmp_path, capsys, monkeypatch):
        class FullDisk:
            """An open file whose first write fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(persistence, "open", lambda *args: FullDisk(open(*args)),
                            raising=False)
        out = tmp_path / "out"
        out.mkdir()
        assert run(generate_args(out)) == cli.EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(out) == []


class TestTrain:
    def test_zero_lr_checkpoint_equals_init(self, pipeline, tmp_path):
        assert run(
            train_args(pipeline, tmp_path, seed=3,
                       extra=["--learning-rate", "0"])
        ) == 0
        head, arc, provenance = load_checkpoint(tmp_path / "mean.ckpt")
        reference = MeanFusionHead.create(substream(3, "init"), 16, 32, 8, dropout_p=0.1)
        for name, value in head.state().items():
            assert np.array_equal(value, reference.state()[name])
        assert provenance["config"]["learning_rate"] == 0

    @pytest.mark.parametrize("head", ["mean", "mlp", "multiview"])
    def test_all_heads_train(self, pipeline, tmp_path, head):
        assert run(train_args(pipeline, tmp_path, head=head)) == 0
        loaded, _, _ = load_checkpoint(tmp_path / f"{head}.ckpt")
        assert loaded.kind == head

    @pytest.mark.parametrize("head, extra", [
        ("mean", ["--dropout", "1.0"]), ("mean", ["--dropout", "-0.1"]),
        ("mean", ["--margin", "2.0"]), ("mean", ["--scale", "0"]),
        ("mean", ["--d-e", "0"]), ("mlp", ["--hidden", "0"]),
        ("mlp", ["--hidden", "-3"]),
        ("mean", ["--scale", "nan"]), ("mean", ["--scale", "inf"]),
        ("mean", ["--learning-rate", "nan"]), ("mean", ["--learning-rate", "inf"]),
        ("mean", ["--clip-norm", "nan"]), ("mean", ["--clip-norm", "inf"]),
        ("mean", ["--weight-decay", "nan"]), ("mean", ["--weight-decay", "-0.01"]),
        ("mean", ["--lr-decay-factor", "-1"]), ("mean", ["--lr-decay-factor", "0"]),
        ("mean", ["--lr-decay-factor", "1.5"]), ("mean", ["--lr-decay-factor", "nan"]),
        ("multiview", ["--lambda-audio", "nan"]), ("multiview", ["--lambda-audio", "-0.5"]),
        ("multiview", ["--lambda-video", "inf"]), ("multiview", ["--lambda-video", "-1"]),
    ])
    def test_out_of_range_value_is_config_error(self, pipeline, tmp_path, capsys,
                                                head, extra):
        code = run(train_args(pipeline, tmp_path, head=head, extra=extra))
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_epoch_log_decay_consistency(self, pipeline, tmp_path):
        assert run(
            train_args(pipeline, tmp_path, seed=7,
                       extra=["--max-epochs", "6"])
        ) == 0
        records = epoch_records(tmp_path / "mean.log")
        assert len(records) == 6
        # replay the schedule: decay exactly when an epoch fails to improve
        lr = records[0]["lr"]
        accuracies = []
        for record in records:
            assert record["lr"] == pytest.approx(lr)
            accuracies.append(record["val_accuracy"])
            if len(accuracies) > 1 and accuracies[-1] <= max(accuracies[:-1]):
                lr *= 0.95
        assert sum(r["is_best"] for r in records) == 1

    def test_determinism(self, pipeline, tmp_path):
        # identical invocation twice (the provenance echoes the full config,
        # so the output paths must match as well)
        argv = train_args(pipeline, tmp_path, seed=2)
        assert run(argv) == 0
        first = ((tmp_path / "mean.ckpt").read_bytes(),
                 (tmp_path / "mean.log").read_bytes())
        assert run(argv) == 0
        assert (tmp_path / "mean.ckpt").read_bytes() == first[0]
        assert (tmp_path / "mean.log").read_bytes() == first[1]

    def test_non_finite_loss_is_data_error(self, pipeline, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(train_args(pipeline, tmp_path,
                                  extra=["--learning-rate", "1e300"]))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "mean.ckpt").exists()
        assert not (tmp_path / "mean.log").exists()

    def test_trailing_one_row_batch_trains(self, tmp_path):
        # 28 training samples in batches of 27: the last row joins the first
        # batch, as train-mode batch norm cannot take a batch of one.
        assert run(generate_args(tmp_path, identities=4)) == 0
        assert len(read_embeddings(tmp_path / "train.emb")) == 28
        argv = train_args(tmp_path, tmp_path, head="mlp", extra=["--batch-size", "27"])
        assert run(argv) == 0
        assert len(epoch_records(tmp_path / "mlp.log")) == 2

    def test_batch_size_one_is_config_error_for_batch_norm(self, pipeline, tmp_path,
                                                            capsys):
        argv = train_args(pipeline, tmp_path, head="mlp", extra=["--batch-size", "1"])
        assert run(argv) == cli.EXIT_CONFIG
        assert "batch_size must be >= 2 for the mlp head" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # a head without batch norm trains on single rows
        argv = train_args(pipeline, tmp_path, head="multiview",
                          extra=["--batch-size", "1", "--max-epochs", "1"])
        assert run(argv) == 0

    @pytest.mark.parametrize("head, extra", [
        ("mean", ["--d-e", str(2**44)]), ("mlp", ["--hidden", str(2**40)]),
    ])
    def test_oversized_dimension_is_config_error(self, pipeline, tmp_path, capsys,
                                                 head, extra):
        # The first weight matrix alone would take 2**48 bytes or more, more
        # than any address space; it is refused before it is allocated.
        argv = train_args(pipeline, tmp_path, head=head, extra=extra)
        assert run(argv) == cli.EXIT_CONFIG
        assert f"more than {2**31}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def keep_identities(path, keep):
        write_embeddings(path, [s for s in read_embeddings(path) if keep(s.identity_id)])

    def test_validation_scored_with_training_class_indices(self, tmp_path):
        # Validation holds only identities id0010 and above, so numbering
        # them within the validation file would shift every label by 10.
        assert run(generate_args(tmp_path, identities=20, per_identity=20)) == 0
        self.keep_identities(tmp_path / "val.emb", lambda identity: identity >= "id0010")
        assert run(train_args(tmp_path, tmp_path, extra=["--learning-rate", "0.1"])) == 0
        head, arc, provenance = load_checkpoint(tmp_path / "mean.ckpt")
        train_ids = sorted({s.identity_id for s in read_embeddings(tmp_path / "train.emb")})
        val = read_embeddings(tmp_path / "val.emb")
        labels = np.array([train_ids.index(s.identity_id) for s in val])
        emb = head.embed(np.stack([s.audio for s in val]), np.stack([s.video for s in val]))
        unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        protos = arc.prototypes / np.linalg.norm(arc.prototypes, axis=0)
        accuracy = float(np.mean((unit @ protos).argmax(axis=1) == labels))
        assert accuracy > 0.3  # far above the 0.05 of chance
        assert provenance["best_val_accuracy"] == accuracy

    def test_validation_identity_missing_from_training_is_data_error(
            self, tmp_path, capsys):
        assert run(generate_args(tmp_path, identities=6)) == 0
        self.keep_identities(tmp_path / "train.emb", lambda identity: identity < "id0004")
        assert run(train_args(tmp_path, tmp_path)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "2 validation identities are not in the training set, first 'id0004'" in err
        assert not (tmp_path / "mean.ckpt").exists()
        assert not (tmp_path / "mean.log").exists()

    def test_validation_of_other_dims_is_data_error(self, pipeline, other_dims, tmp_path,
                                                    capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_run", no_training)
        argv = train_args(pipeline, tmp_path)
        argv[argv.index("--val-embeddings") + 1] = str(other_dims / "val.emb")
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"data error: {other_dims / 'val.emb'} holds audio/video dims "
                       f"(5, 7), {pipeline / 'train.emb'} takes (16, 32)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("head, extra", [
        ("mean", ["--d-e", "100000000"]), ("mlp", ["--hidden", "40000"]),
    ])
    def test_memory_exhaustion_is_config_error(self, pipeline, tmp_path, head, extra):
        # Each request passes the array-size bound, yet one weight matrix
        # would take 12.8 GB.  The child's address space is capped at 4 GiB
        # once the library is loaded, so the allocation fails at once.
        pytest.importorskip("resource")
        limit = 4 * 2**30
        code = ("import resource, sys\n"
                "from avfusion import cli\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(avfusion.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code, *train_args(pipeline, tmp_path, head=head,
                                                      extra=extra)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == cli.EXIT_CONFIG
        assert result.stderr.startswith("config error: Unable to allocate ")
        assert result.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_embeddings_is_io_error(self, tmp_path, capsys):
        code = run(train_args(tmp_path, tmp_path))
        assert code == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_bad_setting_is_config_error_before_any_file_is_read(self, tmp_path, capsys):
        code = run(train_args(tmp_path / "missing", tmp_path, extra=["--learning-rate", "-1"]))
        assert code == cli.EXIT_CONFIG
        assert "learning_rate must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--checkpoint-out", "--epoch-log-out"])
    @pytest.mark.parametrize("target", ["missing/out", "."])
    def test_unwritable_output_path_is_io_error_before_training(
            self, pipeline, tmp_path, capsys, monkeypatch, flag, target):
        def no_training(*args):
            raise AssertionError("train_run called")
        monkeypatch.setattr(cli, "train_run", no_training)
        path = tmp_path / target
        code = run(train_args(pipeline, tmp_path, extra=[flag, str(path)]))
        assert code == cli.EXIT_IO
        assert f"cannot write {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_epoch_log_write_removes_the_checkpoint(self, pipeline, tmp_path,
                                                          capsys, monkeypatch):
        def failing_write(path, records):
            raise OSError(28, "No space left on device", str(path))
        monkeypatch.setattr(cli.persistence, "write_epoch_log", failing_write)
        assert run(train_args(pipeline, tmp_path)) == cli.EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_write_failing_within_the_epoch_log_removes_it(self, pipeline, tmp_path,
                                                          capsys, monkeypatch):
        # The second record fails as a full disk would: neither the log nor
        # the checkpoint is left.
        json_bytes, records = persistence._json_bytes, []

        def failing_json_bytes(obj):
            if "epoch" in obj:
                records.append(obj)
                if len(records) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
            return json_bytes(obj)
        monkeypatch.setattr(persistence, "_json_bytes", failing_json_bytes)
        assert run(train_args(pipeline, tmp_path)) == cli.EXIT_IO
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert len(records) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, other", [
        ("--epoch-log-out", "--checkpoint-out"),
        ("--checkpoint-out", "--train-embeddings"),
        ("--epoch-log-out", "--val-embeddings"),
    ])
    def test_output_path_naming_another_path_is_config_error(self, pipeline, tmp_path,
                                                              capsys, flag, other):
        # The epoch log would overwrite the checkpoint, and a checkpoint the
        # training file; the clash is found whatever the spelling of the path.
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val"):
            shutil.copy(pipeline / f"{split}.emb", data)
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        argv = train_args(data, tmp_path)
        target = argv[argv.index(other) + 1]
        argv[argv.index(flag) + 1] = os.path.join(os.path.dirname(target), ".",
                                                  os.path.basename(target))
        assert run(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {other} and {flag} name the same file "
            f"{os.path.realpath(target)}\n")
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("head", ["mean", "mlp", "multiview"])
    @pytest.mark.parametrize("modality", ["audio", "video"])
    def test_zero_dim_embeddings_are_io_error(self, tmp_path, capsys, head, modality):
        rng = np.random.default_rng(0)
        for split, n in (("train", 12), ("val", 4)):
            dims = {"audio": 16, "video": 32, modality: 0}
            write_embeddings(tmp_path / f"{split}.emb", SampleSet(
                rng.normal(size=(n, dims["audio"])), rng.normal(size=(n, dims["video"])),
                [f"id{i % 4}" for i in range(n)], [f"{split}{i:02d}" for i in range(n)]))
        out = tmp_path / "out"
        out.mkdir()
        assert run(train_args(tmp_path, out, head=head)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert "i/o error" in captured.err and "must be >= 1" in captured.err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("head", ["mean", "mlp", "multiview"])
    def test_empty_zero_dim_embeddings_are_data_error(self, tmp_path, capsys, head):
        # A file without samples may have any dims; a head cannot take a
        # zero-dim input.
        header = json.dumps({"version": 1, "endianness": "little", "d_a": 0, "d_v": 32,
                             "count": 0, "records": []}).encode("utf-8")
        empty = tmp_path / "empty.emb"
        empty.write_bytes(b"AVFEMB01" + struct.pack("<I", len(header)) + header)
        argv = train_args(tmp_path, tmp_path, head=head, extra=[
            "--train-embeddings", str(empty), "--val-embeddings", str(empty)])
        code, runtime_warnings = run_recording_warnings(argv)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and " dim " in err
        assert not runtime_warnings
        assert list(tmp_path.iterdir()) == [empty]


class TestEvaluate:
    def evaluate_args(self, pipeline, out_dir, checkpoints):
        argv = ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                "--n-positive", "30", "--n-negative", "30",
                "--out-dir", str(out_dir)]
        for ckpt in checkpoints:
            argv += ["--checkpoint", str(ckpt)]
        return argv

    def test_report_has_all_modes(self, pipeline, tmp_path):
        assert run(
            self.evaluate_args(pipeline, tmp_path, [pipeline / "mean.ckpt"])
        ) == 0
        doc = read_report(tmp_path / "mean_report.json")
        assert sorted(doc["eer"]) == sorted(
            ["AVxAV", "AxA", "VxV", "AVxA", "AVxV", "AxV"]
        )

    def test_repeat_identical_bytes(self, pipeline, tmp_path):
        d1 = tmp_path / "e1"
        d2 = tmp_path / "e2"
        for d in (d1, d2):
            assert run(
                self.evaluate_args(pipeline, d, [pipeline / "mean.ckpt"])
            ) == 0
        for name in ("mean_report.json", "mean_report_eer.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_multi_checkpoint_comparison(self, pipeline, tmp_path):
        ckpt2 = tmp_path / "second.ckpt"
        assert run(
            train_args(pipeline, tmp_path, head="multiview",
                       extra=["--checkpoint-out", str(ckpt2)])
        ) == 0
        assert run(
            self.evaluate_args(
                pipeline, tmp_path, [pipeline / "mean.ckpt", ckpt2]
            )
        ) == 0
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert lines[0].startswith("model,AVxAV")
        assert len(lines) == 3

    def test_header_without_d_a_is_io_error(self, pipeline, tmp_path, capsys):
        damaged = rewrite_header(pipeline / "test.emb", tmp_path / "test.emb",
                                 lambda header: header.pop("d_a"))
        argv = self.evaluate_args(pipeline, tmp_path, [pipeline / "mean.ckpt"])
        argv[argv.index("--test-embeddings") + 1] = str(damaged)
        assert run(argv) == cli.EXIT_IO
        assert "d_a" in capsys.readouterr().err

    def test_huge_checkpoint_value_is_io_error(self, pipeline, tmp_path, capsys):
        head, arc, provenance = load_checkpoint(pipeline / "mean.ckpt")
        arc.prototypes[0, 0] = 1e300  # finite, but its squared norm overflows
        damaged = tmp_path / "huge.ckpt"
        save_checkpoint(damaged, head, arc, provenance)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(self.evaluate_args(pipeline, tmp_path, [damaged]))
        assert code == cli.EXIT_IO
        assert "out of range" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_huge_weight_is_data_error(self, pipeline, tmp_path, capsys):
        damaged = huge_weight_checkpoint(pipeline, tmp_path)
        out = tmp_path / "out"
        code, runtime_warnings = run_recording_warnings(
            self.evaluate_args(pipeline, out, [damaged]))
        assert code == cli.EXIT_DATA
        assert "non-finite values in evaluation" in capsys.readouterr().err
        assert not runtime_warnings
        assert not out.exists()

    def test_overflow_in_a_later_checkpoint_writes_nothing(self, pipeline, tmp_path,
                                                           capsys):
        # The intact checkpoint's report is computed first; it is not
        # written, and its EER line is not printed, when the next one fails.
        head, arc, provenance = load_checkpoint(pipeline / "mean.ckpt")
        head.proj_audio.weight *= 1e200
        scaled = tmp_path / "scaled.ckpt"
        save_checkpoint(scaled, head, arc, provenance)
        out = tmp_path / "out"
        code, runtime_warnings = run_recording_warnings(
            self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt", scaled]))
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite values in evaluation" in captured.err
        assert not runtime_warnings
        assert not out.exists()

    @pytest.mark.parametrize("identities, per_identity, n_negative", [
        (1, 5, 30),
        # 10 singletons hold 90 cross-identity pairs, so the 6 nontargets
        # could be drawn; no identity has the two samples of a target.
        (10, 1, 6),
    ])
    def test_test_set_without_trials_is_data_error(self, pipeline, tmp_path, capsys,
                                                   identities, per_identity, n_negative):
        test = write_test_set(tmp_path / "test.emb", identities, per_identity)
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt"])
        argv[argv.index("--test-embeddings") + 1] = str(test)
        argv[argv.index("--n-negative") + 1] = str(n_negative)
        assert run(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {test} holds {identities} identities of at most {per_identity} "
            "samples; trials need 2 identities, and targets 2 samples of one\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-positive", "--n-negative"])
    def test_zero_trial_count_is_config_error(self, pipeline, tmp_path, capsys, flag):
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt"])
        argv[argv.index(flag) + 1] = "0"
        assert run(argv) == cli.EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be in [1, 1000000], got 0" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-positive", "--n-negative"])
    def test_oversized_trial_count_is_config_error(self, pipeline, tmp_path, capsys,
                                                   flag):
        # 2**40 index entries cannot be allocated; the request is refused
        # before any file is read (a missing one is not reported) or any
        # directory made.
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt"])
        argv[argv.index(flag) + 1] = str(2**40)
        assert run(argv) == cli.EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be in [1, 1000000], got {2**40}" in \
            capsys.readouterr().err
        assert not out.exists()
        argv[argv.index("--test-embeddings") + 1] = str(tmp_path / "missing.emb")
        assert run(argv) == cli.EXIT_CONFIG

    def test_trials_the_test_set_cannot_hold_are_config_error(self, pipeline, tmp_path,
                                                             capsys):
        # The bound itself passes the flag check; the 12 test samples then
        # hold too few cross-identity pairs, which the draw refuses before
        # the output directory is made.
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt"])
        argv[argv.index("--n-negative") + 1] = "1000000"
        assert run(argv) == cli.EXIT_CONFIG
        assert "only 120 distinct cross-identity pairs exist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("same", ["file name", "path"])
    def test_checkpoints_sharing_a_report_name_are_config_error(
            self, pipeline, tmp_path, capsys, same):
        first = tmp_path / "s0" / "mean.ckpt"
        second = first if same == "path" else tmp_path / "s1" / "mean.ckpt"
        for path in (first, second):
            path.parent.mkdir(exist_ok=True)
            path.write_bytes((pipeline / "mean.ckpt").read_bytes())
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out, [first, second])
        assert run(argv) == cli.EXIT_CONFIG
        assert "would write the same report" in capsys.readouterr().err
        assert not out.exists()
        argv[argv.index("--test-embeddings") + 1] = str(tmp_path / "missing.emb")
        assert run(argv) == cli.EXIT_CONFIG

    def test_failed_write_leaves_nothing(self, pipeline, tmp_path, capsys):
        # The mean report is written before the mlp report's CSV path, a
        # directory, fails; the call removes what it wrote and prints no EER.
        mlp = tmp_path / "mlp.ckpt"
        shutil.copy(pipeline / "mean.ckpt", mlp)
        out = tmp_path / "r2"
        (out / "mlp_report_eer.csv").mkdir(parents=True)
        argv = self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt", mlp])
        assert run(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert os.listdir(out) == ["mlp_report_eer.csv"]

    def test_failed_write_removes_the_out_dir_it_made(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        fail_writes_after(monkeypatch, 4)
        out = tmp_path / "made" / "out"
        mlp = tmp_path / "mlp.ckpt"
        shutil.copy(pipeline / "mean.ckpt", mlp)
        assert run(self.evaluate_args(pipeline, out, [pipeline / "mean.ckpt", mlp])) == (
            cli.EXIT_IO)
        captured = capsys.readouterr()
        assert captured.out == "" and "No space left on device" in captured.err
        assert sorted(tmp_path.iterdir()) == [mlp]

    def test_checkpoint_of_other_dims_is_data_error(self, pipeline, other_dims, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        argv = self.evaluate_args(pipeline, out,
                                  [pipeline / "mean.ckpt", other_dims / "other.ckpt"])
        assert run(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {pipeline / 'test.emb'} holds audio/video dims (16, 32), "
            f"{other_dims / 'other.ckpt'} takes (5, 7)\n")
        assert not out.exists()

    def test_no_checkpoint_is_config_error(self, pipeline, tmp_path, capsys):
        code = run(["evaluate", "--test-embeddings",
                    str(pipeline / "test.emb"), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG


class TestDiagnose:
    def test_outputs(self, pipeline, tmp_path):
        assert run([
            "diagnose", "--checkpoint", str(pipeline / "mean.ckpt"),
            "--embeddings", str(pipeline / "test.emb"),
            "--out-dir", str(tmp_path),
        ]) == 0
        for name in ("audio_video.svg", "within_audio.svg", "within_video.svg"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "diagnostics_summary.json").read_text())
        assert set(summary["silhouette"]) == {"audio", "video"}
        assert set(summary["families"]) == {
            "audio_video", "within_audio", "within_video"
        }
        # one box per identity for the single diagnosed model
        svg = (tmp_path / "audio_video.svg").read_text()
        assert svg.count('class="box"') == 6

    def test_svg_text_is_escaped(self, pipeline, tmp_path):
        # Identity ids come from the .emb header: XML markup and a control
        # character in them must leave every SVG well-formed.
        ids = ["a<b", "c&d", 'e"f', "g\x01h"]
        rng = np.random.default_rng(0)
        n = 5 * len(ids)
        embeddings = tmp_path / "test.emb"
        write_embeddings(embeddings, SampleSet(
            rng.normal(size=(n, 16)), rng.normal(size=(n, 32)),
            [ids[i // 5] for i in range(n)], [f"s{i}" for i in range(n)]))
        out = tmp_path / "out"
        assert run(["diagnose", "--checkpoint", str(pipeline / "mean.ckpt"),
                    "--embeddings", str(embeddings), "--out-dir", str(out)]) == 0
        for name in ("audio_video", "within_audio", "within_video"):
            root = ElementTree.parse(out / f"{name}.svg").getroot()
            texts = root.findall("{http://www.w3.org/2000/svg}text")
            axis_labels = [t.text for t in texts
                           if t.get("transform", "").startswith("rotate(-45")]
            assert axis_labels == ["a<b", "c&d", 'e"f', "g\ufffdh"]
            assert texts[0].text == name.replace("_", " ")
            assert texts[-1].text == "mean"

    def diagnose_args(self, pipeline, out):
        return ["diagnose", "--checkpoint", str(pipeline / "mean.ckpt"),
                "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out)]

    def test_failed_write_leaves_nothing(self, pipeline, tmp_path, capsys):
        # The summary's path is a directory: the SVGs written before it go.
        out = tmp_path / "out"
        (out / "diagnostics_summary.json").mkdir(parents=True)
        assert run(self.diagnose_args(pipeline, out)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert os.listdir(out) == ["diagnostics_summary.json"]

    def test_failed_write_removes_the_out_dir_it_made(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        fail_writes_after(monkeypatch, 3)
        assert run(self.diagnose_args(pipeline, tmp_path / "made" / "out")) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "No space left on device" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_of_other_dims_is_data_error(self, pipeline, other_dims, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        assert run([
            "diagnose", "--checkpoint", str(other_dims / "other.ckpt"),
            "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out),
        ]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {pipeline / 'test.emb'} holds audio/video dims (16, 32), "
            f"{other_dims / 'other.ckpt'} takes (5, 7)\n")
        assert not out.exists()

    def test_huge_weight_is_data_error(self, pipeline, tmp_path, capsys):
        damaged = huge_weight_checkpoint(pipeline, tmp_path)
        out = tmp_path / "out"
        code, runtime_warnings = run_recording_warnings([
            "diagnose", "--checkpoint", str(damaged),
            "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out),
        ])
        assert code == cli.EXIT_DATA
        assert "non-finite values in diagnostics" in capsys.readouterr().err
        assert not runtime_warnings
        assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
def test_memory_exhaustion_is_data_error(pipeline, tmp_path, command):
    # 100,000 samples in 50,000 identities: the K x K centroid angle matrix
    # alone would take 18.6 GiB (it is allocated before its pairs, which are
    # taken in blocks), and no flag changes its size.
    pytest.importorskip("resource")
    test = write_test_set(tmp_path / "large.emb", identities=50000, per_identity=2)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--checkpoint", pipeline / "mean.ckpt",
                "--test-embeddings", test, "--n-positive", "30", "--n-negative", "30"]
    else:
        argv = ["diagnose", "--checkpoint", pipeline / "mean.ckpt", "--embeddings", test]
    result = run_capped([*argv, "--out-dir", out])
    assert result.returncode == cli.EXIT_DATA, result.stderr
    assert result.stderr.startswith(f"data error: {test}: 100000 samples exceed ")
    assert "Unable to allocate " in result.stderr
    assert result.stderr.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def zero_embeddings(tmp_path_factory):
    """The default data set, a mean head, and a multi-view head trained at
    learning rate 0.1 for two epochs, whose final ReLU makes some of its
    audio-only test embeddings exactly zero; then `evaluate` of both heads
    and `diagnose` of the multi-view one, with their exit codes."""
    root = tmp_path_factory.mktemp("zero")
    data = root / "data"
    assert run(["generate", "--out-dir", str(data)]) == 0
    for head in ("mean", "multiview"):
        assert run(["train", "--train-embeddings", str(data / "train.emb"),
                    "--val-embeddings", str(data / "val.emb"), "--head", head,
                    "--learning-rate", "0.1", "--max-epochs", "2",
                    "--checkpoint-out", str(root / f"{head}.ckpt"),
                    "--epoch-log-out", str(root / f"{head}.log")]) == 0
    head = load_checkpoint(root / "multiview.ckpt")[0]
    audio = head.embed(read_embeddings(data / "test.emb").audio, None)
    codes = {
        "n_zero": int((~audio.any(axis=1)).sum()),
        "evaluate": run(["evaluate", "--checkpoint", str(root / "mean.ckpt"),
                         "--checkpoint", str(root / "multiview.ckpt"),
                         "--test-embeddings", str(data / "test.emb"),
                         "--out-dir", str(root / "reports")]),
        "diagnose": run(["diagnose", "--checkpoint", str(root / "multiview.ckpt"),
                         "--embeddings", str(data / "test.emb"),
                         "--out-dir", str(root / "diagnose")]),
    }
    return root, codes


class TestZeroEmbeddings:
    def test_evaluate_and_diagnose_succeed(self, zero_embeddings):
        # A zero embedding scores 0 in every trial and is at cosine distance 1
        # from every embedding in the silhouette.
        root, codes = zero_embeddings
        assert codes == {"n_zero": 7, "evaluate": 0, "diagnose": 0}
        assert sorted(os.listdir(root / "reports")) == [
            "comparison.csv", "mean_report.json", "mean_report_diagnostics.csv",
            "mean_report_eer.csv", "multiview_report.json",
            "multiview_report_diagnostics.csv", "multiview_report_eer.csv"]
        # Each zero audio embedding skips its audio-video pair, at least.
        summary = json.loads((root / "diagnose" / "diagnostics_summary.json").read_text())
        assert summary["warnings"] >= 7
        assert read_report(root / "reports" / "multiview_report.json")["warnings"] >= 7

    def test_json_files_are_the_standard_layout(self, zero_embeddings):
        root, _ = zero_embeddings
        paths = [*(root / "reports").glob("*.json"),
                 root / "diagnose" / "diagnostics_summary.json"]
        assert len(paths) == 3
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def inconsistent_mlp_checkpoint(path, damage):
    """An MLP checkpoint for the pipeline's data whose tensors do not fit
    together: a short batch-norm tensor, a broken layer chain or prototypes
    of the wrong dimension."""
    rng = np.random.default_rng(0)
    head = MlpFusionHead.create(rng, 16, 32, 8, hidden=24)
    arc = ArcMarginHead.create(rng, 8, 6)
    if damage == "bn1.beta":
        head.norms[0].beta = head.norms[0].beta[:-1]
    elif damage == "bn1.running_var":
        head.norms[0].running_var = head.norms[0].running_var[:-1]
    elif damage == "layer2.weight":
        head.layers[1].weight = head.layers[1].weight[:, :23]
    elif damage == "bn3":
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(head.norms[2], name, getattr(head.norms[2], name)[:-1])
    else:
        arc = ArcMarginHead.create(rng, 7, 6)
    save_checkpoint(path, head, arc)
    return path


class TestInconsistentCheckpoints:
    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("damage", [
        "bn1.beta", "bn1.running_var", "layer2.weight", "bn3", "prototypes",
    ])
    def test_is_io_error(self, pipeline, tmp_path, capsys, command, damage):
        checkpoint = inconsistent_mlp_checkpoint(tmp_path / "bad.ckpt", damage)
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                    "--checkpoint", str(checkpoint), "--n-positive", "30",
                    "--n-negative", "30", "--out-dir", str(out)]
        else:
            argv = ["diagnose", "--checkpoint", str(checkpoint),
                    "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out)]
        assert run(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inconsistent tensors" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_negative_leaky_slope_is_io_error(self, pipeline, tmp_path, capsys,
                                              command):
        # The bad checkpoint fails at load, so evaluate writes no report of
        # the good one given before it, and neither command makes --out-dir.
        rng = np.random.default_rng(0)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, MlpFusionHead.create(rng, 16, 32, 8, hidden=24),
                        ArcMarginHead.create(rng, 8, 6))
        rewrite_header(bad, bad, lambda header: header["head"].update(leaky_slope=-0.5))
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                    "--checkpoint", str(pipeline / "mean.ckpt"), "--checkpoint", str(bad),
                    "--n-positive", "30", "--n-negative", "30", "--out-dir", str(out)]
        else:
            argv = ["diagnose", "--checkpoint", str(bad),
                    "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out)]
        assert run(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disagrees with its tensors" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_header_disagreeing_with_tensors_is_io_error(self, pipeline, tmp_path, capsys,
                                                         command):
        bad = rewrite_header(pipeline / "mean.ckpt", tmp_path / "bad.ckpt",
                             lambda header: header["head"].update(d_a=999, d_e=3))
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                    "--checkpoint", str(bad), "--n-positive", "30", "--n-negative", "30",
                    "--out-dir", str(out)]
        else:
            argv = ["diagnose", "--checkpoint", str(bad),
                    "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out)]
        assert run(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disagrees with its tensors" in captured.err
        assert not out.exists()


class TestNonUtf8Identifiers:
    """A JSON header can spell a lone surrogate, which no output can encode
    as UTF-8: the file is refused when read."""

    @pytest.mark.parametrize("command", ["evaluate", "diagnose", "train"])
    @pytest.mark.parametrize("column", [0, 1])  # the identity, the sample id
    def test_is_io_error(self, pipeline, tmp_path, capsys, command, column):
        data = tmp_path / "data"
        data.mkdir()
        for split in ("train", "val", "test"):
            shutil.copy(pipeline / f"{split}.emb", data)
        bad = data / ("train.emb" if command == "train" else "test.emb")

        def rename(header):
            header["records"][0][column] = "\ud800"
        rewrite_header(bad, bad, rename)
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--test-embeddings", str(bad),
                         "--checkpoint", str(pipeline / "mean.ckpt"),
                         "--n-positive", "30", "--n-negative", "30", "--out-dir", str(out)],
            "diagnose": ["diagnose", "--checkpoint", str(pipeline / "mean.ckpt"),
                         "--embeddings", str(bad), "--out-dir", str(out)],
            "train": train_args(data, out),
        }[command]
        if command == "train":
            out.mkdir()
        assert run(argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"i/o error: {bad}: an identifier holds '\\ud800', "
                                "which UTF-8 cannot encode\n")
        if command == "train":
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()


class TestConfigFile:
    def test_config_file_and_flag_precedence(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(
            {"n-identities": 3, "samples-per-identity": 10, "seed": 9}
        ))
        out = tmp_path / "out"
        assert run([
            "generate", "--config", str(config_path),
            "--out-dir", str(out), "--n-identities", "4",
        ]) == 0
        train = read_embeddings(out / "train.emb")
        assert len({s.identity_id for s in train}) == 4  # flag beats file

    def test_unknown_config_key(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"bogus-knob": 1}))
        code = run(["generate", "--config", str(config_path),
                    "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "bogus-knob" in capsys.readouterr().err


    @pytest.mark.parametrize("command, values", [
        ("evaluate", {"format": "xml"}),
        ("train", {"profile": "huge"}),
        ("generate", {"n-identities": "6"}),
        ("train", {"max-epochs": 1.5}),
        ("train", {"learning-rate": "0.1"}),
        ("generate", {"seed": True}),
        ("generate", {"seed": None}),
        ("evaluate", {"checkpoint": ["a.ckpt", 3]}),
        ("generate", [6]),
        ("generate", {"seed": -1}),
    ])
    def test_bad_file_value_is_config_error(self, pipeline, tmp_path, capsys,
                                            command, values):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(values))
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "generate": ["generate", "--out-dir", str(out)],
            "train": ["train", "--train-embeddings", str(pipeline / "train.emb"),
                      "--val-embeddings", str(pipeline / "val.emb"),
                      "--checkpoint-out", str(out / "model.ckpt"),
                      "--epoch-log-out", str(out / "epochs.log")],
            "evaluate": ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                         "--checkpoint", str(pipeline / "mean.ckpt"),
                         "--n-positive", "30", "--n-negative", "30",
                         "--out-dir", str(out)],
        }[command]
        assert run(argv + ["--config", str(config_path)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert list(out.iterdir()) == []

    def test_good_file_values(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        values = {"learning-rate": 1, "max-epochs": 3, "d-e": None, "head": "mlp"}
        config_path.write_text(json.dumps(values))
        args = cli.build_parser().parse_args(["train", "--config", str(config_path)])
        cfg = cli.resolve_config("train", args)
        assert (cfg["learning_rate"], cfg["max_epochs"], cfg["d_e"], cfg["head"]) == (
            1, 3, None, "mlp")
        for checkpoints in ("a.ckpt", ["a.ckpt", "b.ckpt"]):
            config_path.write_text(json.dumps({"checkpoint": checkpoints}))
            args = cli.build_parser().parse_args(["evaluate", "--config",
                                                  str(config_path)])
            assert cli.resolve_config("evaluate", args)["checkpoint"] == checkpoints


class TestSeed:
    """Every random stream is seeded from a SeedSequence, which takes no
    negative entropy; a negative --seed is refused before anything is read
    or written."""

    @pytest.mark.parametrize("command", ["generate", "train", "evaluate", "diagnose"])
    def test_negative_seed_is_config_error(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "generate": generate_args(out),
            "train": train_args(pipeline, out),
            "evaluate": ["evaluate", "--test-embeddings", str(pipeline / "test.emb"),
                         "--checkpoint", str(pipeline / "mean.ckpt"),
                         "--n-positive", "30", "--n-negative", "30", "--out-dir", str(out)],
            "diagnose": ["diagnose", "--checkpoint", str(pipeline / "mean.ckpt"),
                         "--embeddings", str(pipeline / "test.emb"), "--out-dir", str(out)],
        }[command]
        assert run(argv + ["--seed", "-1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be >= 0, got -1" in captured.err
        assert not out.exists()


class TestModuleEntryPoint:
    """`python -m avfusion`, as the README documents it."""

    def run_module(self, *args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(avfusion.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "avfusion", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_help(self):
        result = self.run_module("--help")
        assert result.returncode == 0
        assert "generate" in result.stdout

    def test_parse_error_then_valid_call_as_in_fresh_processes(self, tmp_path, capsys,
                                                               monkeypatch):
        """`main` builds its parser once per process; a call after a parse
        error behaves as the same call in a fresh process."""
        monkeypatch.setenv("COLUMNS", "80")  # the width of the usage text
        bad = ["generate", "--n-identities", "many"]
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        first = capsys.readouterr()
        assert cli.main(generate_args(tmp_path / "in-process", seed=3)) == 0
        second = capsys.readouterr()
        fresh_bad = self.run_module(*bad)
        fresh_good = self.run_module(*generate_args(tmp_path / "fresh", seed=3))
        assert exc.value.code == fresh_bad.returncode == cli.EXIT_CONFIG
        assert (first.out, first.err) == (fresh_bad.stdout, fresh_bad.stderr)
        assert "invalid int value: 'many'" in first.err
        assert fresh_good.returncode == 0
        assert (second.out, second.err) == (fresh_good.stdout, fresh_good.stderr)
        for name in ("train.emb", "val.emb", "test.emb"):
            assert ((tmp_path / "in-process" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
        assert cli.build_parser() is cli.build_parser()

    def test_bad_config_is_config_error(self, tmp_path):
        result = self.run_module("generate", "--config", str(tmp_path / "absent.json"))
        assert result.returncode == cli.EXIT_CONFIG
        assert "config error" in result.stderr
