import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import avfusion
from avfusion import cli
from avfusion.persistence import (
    load_checkpoint,
    read_embeddings,
    read_epoch_log,
    read_report,
    save_checkpoint,
)
from avfusion.arcmargin import ArcMarginHead
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


def huge_weight_checkpoint(pipeline, out_dir):
    """The mean checkpoint with one finite weight whose embeddings overflow."""
    head, arc, provenance = load_checkpoint(pipeline / "mean.ckpt")
    head.proj_audio.weight[0, 0] = 1e300
    path = out_dir / "huge-weight.ckpt"
    save_checkpoint(path, head, arc, provenance)
    return path


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

    def test_invalid_test_fraction(self, tmp_path, capsys):
        code = run(generate_args(tmp_path) + ["--test-fraction", "1.5"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "1.5" in err and "val_fraction" not in err


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
        records = read_epoch_log(tmp_path / "mean.log")
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

    def test_missing_embeddings_is_io_error(self, tmp_path, capsys):
        code = run(train_args(tmp_path, tmp_path))
        assert code == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err


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
        blob = (pipeline / "test.emb").read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + length])
        del header["d_a"]
        body = json.dumps(header).encode("utf-8")
        damaged = tmp_path / "test.emb"
        damaged.write_bytes(blob[:8] + struct.pack("<I", len(body)) + body
                            + blob[12 + length :])
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
        assert not list(out.iterdir())

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
        assert not list(out.glob("*.svg"))
        assert not (out / "diagnostics_summary.json").exists()


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
        assert not out.exists() or list(out.iterdir()) == []


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

    def test_bad_config_is_config_error(self, tmp_path):
        result = self.run_module("generate", "--config", str(tmp_path / "absent.json"))
        assert result.returncode == cli.EXIT_CONFIG
        assert "config error" in result.stderr
