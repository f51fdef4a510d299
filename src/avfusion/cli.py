"""Command-line surface: generate -> train -> evaluate -> diagnose.

One binary with subcommands, because the outputs chain.  All flags are
declared in FLAG_SPECS (the single source of truth used to build the parser
and the --help text); a JSON config file can supply any flag value, with
explicit flags taking precedence.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import data as data_mod
from . import evaluation as eval_mod
from . import persistence
from . import svgplot
from .arcmargin import ArcMarginHead
from .errors import (
    AvFusionError,
    ConfigurationError,
    DegenerateBatchError,
    DegenerateInputError,
    LabelError,
    PersistenceError,
    float_errors_as_degenerate,
)
from .heads import DESK_DIMS, FULL_DIMS, HEAD_KINDS
from .rng import substream
from .training import TrainingConfig, train_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


@dataclass(frozen=True)
class Flag:
    name: str  # e.g. "n-identities"
    type: type
    default: object
    help: str
    choices: tuple = None
    repeatable: bool = False

    @property
    def dest(self):
        return self.name.replace("-", "_")


_COMMON = [
    Flag("config", str, None, "JSON config file; explicit flags override it"),
    Flag("seed", int, 0, "base seed for all named random streams"),
]

FLAG_SPECS = {
    "generate": _COMMON + [
        Flag("out-dir", str, ".", "directory for train/val/test embedding files"),
        Flag("n-identities", int, 50, "number of synthetic identities"),
        Flag("samples-per-identity", int, 40, "samples drawn per identity"),
        Flag("d-a", int, 16, "audio backbone output dimension"),
        Flag("d-v", int, 32, "video backbone output dimension"),
        Flag("audio-noise-sigma", float, 0.45, "audio noise sigma per coordinate"),
        Flag("video-noise-sigma", float, 0.25, "video noise sigma per coordinate"),
        Flag("val-fraction", float, 0.1, "fraction of non-test samples held for validation"),
        Flag("test-fraction", float, 0.2, "fraction of samples held out for testing"),
    ],
    "train": _COMMON + [
        Flag("train-embeddings", str, "train.emb", "training embedding file"),
        Flag("val-embeddings", str, "val.emb", "validation embedding file"),
        Flag("head", str, "mean", "fusion head kind", choices=tuple(HEAD_KINDS)),
        Flag("profile", str, "desk", "dimension profile", choices=("desk", "full")),
        Flag("d-e", int, None, "fused embedding dimension (overrides profile)"),
        Flag("hidden", int, None, "MLP hidden dimension (overrides profile)"),
        Flag("dropout", float, 0.1, "dropout probability for the head"),
        Flag("scale", float, 16.0, "arc-margin feature scale"),
        Flag("margin", float, 0.125, "arc-margin additive angular margin (radians)"),
        Flag("learning-rate", float, 0.001, "AdamW learning rate"),
        Flag("weight-decay", float, 0.01, "AdamW decoupled weight decay"),
        Flag("batch-size", int, 128, "minibatch size"),
        Flag("max-epochs", int, 10, "number of training epochs"),
        Flag("clip-norm", float, 5.0, "global gradient-norm clip"),
        Flag("lr-decay-factor", float, 0.95, "LR decay on non-improving epochs"),
        Flag("lambda-audio", float, 0.5, "multi-view audio loss weight"),
        Flag("lambda-video", float, 0.5, "multi-view video loss weight"),
        Flag("checkpoint-out", str, "model.ckpt", "checkpoint output path"),
        Flag("epoch-log-out", str, "epochs.log", "epoch log output path"),
    ],
    "evaluate": _COMMON + [
        Flag("checkpoint", str, None, "checkpoint path (repeat to compare models)",
             repeatable=True),
        Flag("test-embeddings", str, "test.emb", "held-out embedding file"),
        Flag("n-positive", int, 500, "target trials per modality mode"),
        Flag("n-negative", int, 500, "nontarget trials per modality mode"),
        Flag("out-dir", str, ".", "directory for report files"),
        Flag("format", str, "both", "report output format",
             choices=("structured", "tabular", "both")),
    ],
    "diagnose": _COMMON + [
        Flag("checkpoint", str, "model.ckpt", "checkpoint path"),
        Flag("embeddings", str, "test.emb", "embedding file to diagnose on"),
        Flag("out-dir", str, ".", "directory for angle reports and SVG boxplots"),
    ],
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="avfusion",
        description="Audio-visual fusion heads: synthetic data, training, "
        "verification EER, and embedding diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in FLAG_SPECS.items():
        p = sub.add_parser(command, help=f"{command} step of the pipeline")
        for flag in flags:
            kwargs = {"help": flag.help, "dest": flag.dest, "default": None}
            if flag.choices:
                kwargs["choices"] = flag.choices
            if flag.repeatable:
                kwargs["action"] = "append"
            else:
                kwargs["type"] = flag.type
            p.add_argument(f"--{flag.name}", **kwargs)
    return parser


# The JSON types a config-file value of each flag type may have.
_FILE_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _check_file_value(flag, key, value):
    """The type and choice checks argparse makes on a flag, for a config-file
    value; null stands for a flag's None default only."""
    if value is None and flag.default is None:
        return
    for v in value if flag.repeatable and isinstance(value, list) else [value]:
        if isinstance(v, bool) or not isinstance(v, _FILE_TYPES[flag.type]):
            raise ConfigurationError(
                f"config key {key!r} must be of type {flag.type.__name__}, got {v!r}")
        if flag.choices and v not in flag.choices:
            raise ConfigurationError(
                f"config key {key!r} must be one of {flag.choices}, got {v!r}")


def resolve_config(command, args):
    """Merge defaults < config file < explicit flags; echo the result."""
    flags = FLAG_SPECS[command]
    resolved = {f.dest: f.default for f in flags}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigurationError(f"config {config_path} is not a JSON object")
        known = {f.dest: f for f in flags}
        for key, value in file_values.items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigurationError(f"unknown config key {key!r}")
            _check_file_value(known[dest], key, value)
            resolved[dest] = value
    for flag in flags:
        value = getattr(args, flag.dest, None)
        if value is not None:
            resolved[flag.dest] = value
    return resolved


def cmd_generate(cfg):
    import os

    dataset_config = data_mod.DatasetConfig(
        n_identities=cfg["n_identities"],
        samples_per_identity=cfg["samples_per_identity"],
        d_a=cfg["d_a"],
        d_v=cfg["d_v"],
        audio_noise_sigma=cfg["audio_noise_sigma"],
        video_noise_sigma=cfg["video_noise_sigma"],
        seed=cfg["seed"],
    ).validate()
    specs = data_mod.generate_identities(dataset_config)
    samples = data_mod.sample_dataset(specs, dataset_config)
    rest, test = data_mod.split_dataset(samples, cfg["test_fraction"], cfg["seed"])
    train, val = data_mod.split_dataset(rest, cfg["val_fraction"], cfg["seed"] + 1)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    for name, part in (("train", train), ("val", val), ("test", test)):
        persistence.write_embeddings(
            os.path.join(cfg["out_dir"], f"{name}.emb"), part
        )
    print(
        f"generated {len(samples)} samples "
        f"({len(train)} train / {len(val)} val / {len(test)} test)"
    )
    return EXIT_OK


def _make_head(cfg, d_a, d_v):
    dims = dict(DESK_DIMS if cfg["profile"] == "desk" else FULL_DIMS)
    d_e = cfg["d_e"] if cfg["d_e"] is not None else dims["d_e"]
    hidden = cfg["hidden"] if cfg["hidden"] is not None else dims["hidden"]
    for name, value in (("d-e", d_e), ("hidden", hidden)):
        if value < 1:
            raise ConfigurationError(f"--{name} must be >= 1, got {value}")
    return HEAD_KINDS[cfg["head"]].create(
        substream(cfg["seed"], "init"), d_a, d_v, d_e,
        hidden=hidden, dropout_p=cfg["dropout"],
    )


def cmd_train(cfg):
    train_samples = persistence.read_embeddings(cfg["train_embeddings"])
    val_samples = persistence.read_embeddings(cfg["val_embeddings"])
    if not train_samples or not val_samples:
        raise DegenerateInputError("train/val embedding files must be nonempty")
    d_a = train_samples[0].audio.shape[0]
    d_v = train_samples[0].video.shape[0]
    n_classes = len({s.identity_id for s in train_samples})
    head = _make_head(cfg, d_a, d_v)
    arc = ArcMarginHead.create(
        substream(cfg["seed"], "init-arc"), head.d_e, n_classes,
        scale=cfg["scale"], margin=cfg["margin"],
    )
    training_config = TrainingConfig(
        learning_rate=cfg["learning_rate"],
        weight_decay=cfg["weight_decay"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        clip_norm=cfg["clip_norm"],
        lr_decay_factor=cfg["lr_decay_factor"],
        lambda_audio=cfg["lambda_audio"],
        lambda_video=cfg["lambda_video"],
        seed=cfg["seed"],
    ).validate()
    result = train_run(head, arc, train_samples, val_samples, training_config)
    provenance = {
        "config": {k: v for k, v in sorted(cfg.items()) if k != "config"},
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.records[result.best_epoch].val_accuracy,
    }
    persistence.save_checkpoint(
        cfg["checkpoint_out"], result.best_head, result.best_arc, provenance
    )
    persistence.write_epoch_log(cfg["epoch_log_out"], result.records)
    best = result.records[result.best_epoch]
    print(
        f"trained {cfg['head']} head: best epoch {best.epoch} "
        f"val_accuracy {best.val_accuracy:.4f}"
    )
    return EXIT_OK


def cmd_evaluate(cfg):
    import os

    checkpoints = cfg["checkpoint"]
    if not checkpoints:
        raise ConfigurationError("at least one --checkpoint is required")
    if isinstance(checkpoints, str):
        checkpoints = [checkpoints]
    samples = persistence.read_embeddings(cfg["test_embeddings"])
    trial_config = eval_mod.TrialConfig(
        n_positive=cfg["n_positive"], n_negative=cfg["n_negative"], seed=cfg["seed"]
    )
    os.makedirs(cfg["out_dir"], exist_ok=True)
    trials = eval_mod.build_mode_trials(samples, trial_config)
    rows = []
    for path in checkpoints:
        head, arc, _ = persistence.load_checkpoint(path)
        with float_errors_as_degenerate("evaluation"):
            report = eval_mod.run_full_evaluation(head, samples, trial_config, trials)
        prefix = os.path.join(
            cfg["out_dir"], os.path.splitext(os.path.basename(path))[0] + "_report"
        )
        persistence.write_report(prefix, report, cfg["format"])
        rows.append((head.kind, {m: r.eer for m, r in report.eer.items()}))
        line = "  ".join(f"{m}={report.eer[m].eer:.4f}" for m in eval_mod.MODALITY_MODES)
        print(f"{head.kind}: {line}")
    if len(rows) > 1:
        comparison = os.path.join(cfg["out_dir"], "comparison.csv")
        with open(comparison, "w", encoding="utf-8") as fh:
            modes = list(eval_mod.MODALITY_MODES)
            fh.write("model," + ",".join(modes) + "\n")
            for kind, eers in rows:
                fh.write(kind + "," + ",".join(f"{eers[m]:.6g}" for m in modes) + "\n")
        print(f"wrote {comparison}")
    return EXIT_OK


def cmd_diagnose(cfg):
    import os

    head, arc, _ = persistence.load_checkpoint(cfg["checkpoint"])
    samples = persistence.read_embeddings(cfg["embeddings"])
    if not samples:
        raise DegenerateInputError("embedding file is empty")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    with float_errors_as_degenerate("diagnostics"):
        report = eval_mod.run_diagnostics(
            {exp: eval_mod.embed_samples(head, samples, exp) for exp in ("a", "v")},
            [s.identity_id for s in samples],
        )
    families = {
        "audio_video": report.audio_video,
        "within_audio": report.within_identity["audio"],
        "within_video": report.within_identity["video"],
    }
    warnings = 0
    for name, family in families.items():
        groups = [
            (identity, [eval_mod.boxplot_stats(angles) if angles else None])
            for identity, angles in sorted(family.per_identity.items())
        ]
        svgplot.render_boxplot_svg(
            os.path.join(cfg["out_dir"], f"{name}.svg"), groups, [head.kind],
            title=name.replace("_", " "),
        )
        warnings += family.warnings
    summary = {"silhouette": dict(report.silhouette), "warnings": warnings,
               "families": {}}
    for name, family in families.items():
        angles = family.all_angles()
        stats = eval_mod.boxplot_stats(angles) if angles else None
        summary["families"][name] = (
            None if stats is None else
            {"median": stats.median, "q1": stats.q1, "q3": stats.q3,
             "n": len(angles)}
        )
    summary_path = os.path.join(cfg["out_dir"], "diagnostics_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if warnings:
        print(f"warning: {warnings} degenerate embeddings skipped")
    print(
        "silhouette audio %.4f video %.4f"
        % (summary["silhouette"]["audio"], summary["silhouette"]["video"])
    )
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateInputError, DegenerateBatchError, LabelError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PersistenceError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AvFusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
