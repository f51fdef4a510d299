"""Command-line surface: generate -> train -> evaluate -> diagnose.

One binary with subcommands, because the outputs chain.  All flags are
declared in FLAG_SPECS (the single source of truth used to build the parser
and the --help text); a JSON config file can supply any flag value, with
explicit flags taking precedence.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

from . import data as data_mod
from . import evaluation as eval_mod
from . import persistence
from .arcmargin import ArcMarginHead
from .data import DatasetConfig
from .errors import (
    AvFusionError,
    ConfigurationError,
    DegenerateBatchError,
    DegenerateInputError,
    LabelError,
    PersistenceError,
    float_errors_as_degenerate,
)
from .evaluation import TrialConfig
from .heads import DESK_DIMS, FULL_DIMS, HEAD_KINDS
from .layers import DropoutSpec
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

    @classmethod
    def of_field(cls, settings, name, help):
        """The flag that fills a field of `settings`, of the field's type and default."""
        field = {f.name: f for f in fields(settings)}[name.replace("-", "_")]
        return cls(name, field.type, field.default, help)


_COMMON = [
    Flag("config", str, None, "JSON config file; explicit flags override it"),
    Flag("seed", int, 0, "base seed for all named random streams"),
]

FLAG_SPECS = {
    "generate": _COMMON + [
        Flag("out-dir", str, ".", "directory for train/val/test embedding files"),
        Flag.of_field(DatasetConfig, "n-identities", "number of synthetic identities"),
        Flag.of_field(DatasetConfig, "samples-per-identity", "samples drawn per identity"),
        Flag.of_field(DatasetConfig, "d-a", "audio backbone output dimension"),
        Flag.of_field(DatasetConfig, "d-v", "video backbone output dimension"),
        Flag.of_field(DatasetConfig, "audio-noise-sigma", "audio noise sigma per coordinate"),
        Flag.of_field(DatasetConfig, "video-noise-sigma", "video noise sigma per coordinate"),
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
        Flag("dropout", float, DropoutSpec.probability, "dropout probability for the head"),
        Flag.of_field(ArcMarginHead, "scale", "arc-margin feature scale"),
        Flag.of_field(ArcMarginHead, "margin", "arc-margin additive angular margin (radians)"),
        Flag.of_field(TrainingConfig, "learning-rate", "AdamW learning rate"),
        Flag.of_field(TrainingConfig, "weight-decay", "AdamW decoupled weight decay"),
        Flag.of_field(TrainingConfig, "batch-size", "minibatch size"),
        Flag.of_field(TrainingConfig, "max-epochs", "number of training epochs"),
        Flag.of_field(TrainingConfig, "clip-norm", "global gradient-norm clip"),
        Flag.of_field(TrainingConfig, "lr-decay-factor", "LR decay on non-improving epochs"),
        Flag.of_field(TrainingConfig, "lambda-audio", "multi-view audio loss weight"),
        Flag.of_field(TrainingConfig, "lambda-video", "multi-view video loss weight"),
        Flag("checkpoint-out", str, "model.ckpt", "checkpoint output path"),
        Flag("epoch-log-out", str, "epochs.log", "epoch log output path"),
    ],
    "evaluate": _COMMON + [
        Flag("checkpoint", str, None, "checkpoint path (repeat to compare models)",
             repeatable=True),
        Flag("test-embeddings", str, "test.emb", "held-out embedding file"),
        Flag.of_field(TrialConfig, "n-positive", "target trials per modality mode"),
        Flag.of_field(TrialConfig, "n-negative", "nontarget trials per modality mode"),
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


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process."""
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
    # Every random stream is seeded from a SeedSequence, which takes no
    # negative entropy.
    if resolved["seed"] < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {resolved['seed']}")
    return resolved


def _config_of(cls, cfg):
    """The config dataclass `cls`, each field set from the flag of its name."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def cmd_generate(cfg):
    dataset_config = _config_of(DatasetConfig, cfg)
    # A verification trial pairs two identities; with one, evaluate and
    # diagnose could only reject the split.
    if dataset_config.n_identities < 2:
        raise ConfigurationError(
            f"--n-identities must be >= 2, got {dataset_config.n_identities}")
    specs = data_mod.generate_identities(dataset_config)
    samples = data_mod.sample_dataset(specs, dataset_config)
    rest, test = data_mod.split_dataset(samples, cfg["test_fraction"], cfg["seed"])
    train, val = data_mod.split_dataset(rest, cfg["val_fraction"], cfg["seed"] + 1)
    # All or nothing: a failed write removes the files written before it.
    with persistence.all_or_nothing(cfg["out_dir"]) as written:
        for name, part in (("train", train), ("val", val), ("test", test)):
            path = os.path.join(cfg["out_dir"], f"{name}.emb")
            persistence.write_embeddings(path, part)
            written.append(path)
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


def _check_dims(path, samples, d_a, d_v, source):
    """A data error naming `path` unless its samples have the audio/video
    dims (d_a, d_v) of `source`, the file they are to be used with."""
    dims = (samples.audio.shape[1], samples.video.shape[1])
    if dims != (d_a, d_v):
        raise DegenerateInputError(
            f"{path} holds audio/video dims {dims}, {source} takes ({d_a}, {d_v})")


def cmd_train(cfg):
    # Every setting and output path is checked before a file is read.
    config = _config_of(TrainingConfig, cfg)
    # An output path that names another path of the call would overwrite it.
    named = {}
    for flag in ("train-embeddings", "val-embeddings", "checkpoint-out", "epoch-log-out"):
        real = os.path.realpath(cfg[flag.replace("-", "_")])
        if real in named and flag.endswith("-out"):
            raise ConfigurationError(
                f"--{named[real]} and --{flag} name the same file {real}")
        named.setdefault(real, flag)
    for path in (cfg["checkpoint_out"], cfg["epoch_log_out"]):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise PersistenceError(
                f"cannot write {path}: it is a directory, or its directory does not exist")
    train_samples = persistence.read_embeddings(cfg["train_embeddings"])
    val_samples = persistence.read_embeddings(cfg["val_embeddings"])
    d_a, d_v = train_samples.audio.shape[1], train_samples.video.shape[1]
    _check_dims(cfg["val_embeddings"], val_samples, d_a, d_v, cfg["train_embeddings"])
    n_classes = len(set(train_samples.identity_ids))
    head = _make_head(cfg, d_a, d_v)
    arc = ArcMarginHead.create(
        substream(cfg["seed"], "init-arc"), head.d_e, n_classes,
        scale=cfg["scale"], margin=cfg["margin"],
    )
    result = train_run(head, arc, train_samples, val_samples, config)
    provenance = {
        "config": {k: v for k, v in sorted(cfg.items()) if k != "config"},
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.records[result.best_epoch].val_accuracy,
    }
    with persistence.all_or_nothing() as written:  # a failed call leaves no checkpoint
        persistence.save_checkpoint(
            cfg["checkpoint_out"], result.best_head, result.best_arc, provenance
        )
        written.append(cfg["checkpoint_out"])
        persistence.write_epoch_log(cfg["epoch_log_out"], result.records)
    best = result.records[result.best_epoch]
    print(
        f"trained {cfg['head']} head: best epoch {best.epoch} "
        f"val_accuracy {best.val_accuracy:.4f}"
    )
    return EXIT_OK


def cmd_evaluate(cfg):
    checkpoints = cfg["checkpoint"]
    if not checkpoints:
        raise ConfigurationError("at least one --checkpoint is required")
    if isinstance(checkpoints, str):
        checkpoints = [checkpoints]
    trial_config = _config_of(TrialConfig, cfg)
    # Each report is named after its checkpoint's file name; two checkpoints
    # of one name would write one report.
    prefixes = {}
    for path in checkpoints:
        prefix = os.path.join(
            cfg["out_dir"], os.path.splitext(os.path.basename(path))[0] + "_report"
        )
        if prefix in prefixes:
            raise ConfigurationError(
                f"checkpoints {prefixes[prefix]} and {path} would write the same "
                f"report {prefix}; give them different file names")
        prefixes[prefix] = path
    test_path = cfg["test_embeddings"]
    samples = persistence.read_embeddings(test_path)
    heads = [persistence.load_checkpoint(path)[0] for path in checkpoints]
    for path, head in zip(checkpoints, heads):
        _check_dims(test_path, samples, head.d_a, head.d_v, path)
    # Trials pair two identities, and targets two samples of one; no flag
    # makes up for a test set without them.
    bounds = data_mod.group_rows(samples.identity_ids)[2]
    sizes = (bounds[1:] - bounds[:-1]).tolist()
    if len(sizes) < 2 or max(sizes) < 2:
        raise DegenerateInputError(
            f"{test_path} holds {len(sizes)} identities of at most {max(sizes, default=0)} "
            "samples; trials need 2 identities, and targets 2 samples of one")
    # Every report is computed before --out-dir is made, so that a failed
    # call leaves none.
    with float_errors_as_degenerate("evaluation", f"{test_path}: {len(samples)} samples"):
        trials = eval_mod.build_mode_trials(samples, trial_config)
        reports = [eval_mod.run_full_evaluation(head, samples, trial_config, trials)
                   for head in heads]
    # A failed write removes what the call wrote, and the EERs are printed
    # once the last write succeeded.
    with persistence.all_or_nothing(cfg["out_dir"]) as written:
        for prefix, report in zip(prefixes, reports):
            written += persistence.write_report(prefix, report, cfg["format"])
        if len(reports) > 1:
            rows = [(head.kind, report.eer) for head, report in zip(heads, reports)]
            comparison = persistence.write_comparison(cfg["out_dir"], rows)
            written.append(comparison)
    for head, report in zip(heads, reports):
        line = "  ".join(f"{m}={report.eer[m].eer:.4f}" for m in eval_mod.MODALITY_MODES)
        print(f"{head.kind}: {line}")
    if len(reports) > 1:
        print(f"wrote {comparison}")
    return EXIT_OK


def cmd_diagnose(cfg):
    head, arc, _ = persistence.load_checkpoint(cfg["checkpoint"])
    samples = persistence.read_embeddings(cfg["embeddings"])
    if not samples:
        raise DegenerateInputError("embedding file is empty")
    _check_dims(cfg["embeddings"], samples, head.d_a, head.d_v, cfg["checkpoint"])
    with float_errors_as_degenerate(
            "diagnostics", f"{cfg['embeddings']}: {len(samples)} samples"):
        report = eval_mod.run_diagnostics(
            {exp: eval_mod.embed_samples(head, samples, exp) for exp in ("a", "v")},
            samples.identity_ids,
        )
    summary = persistence.write_diagnostics(cfg["out_dir"], report, head.kind)
    if summary["warnings"]:
        print(f"warning: {summary['warnings']} degenerate embeddings skipped")
    print("silhouette audio {audio:.4f} video {video:.4f}".format(**summary["silhouette"]))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except (ConfigurationError, MemoryError) as exc:
        # A MemoryError comes from a size setting under the array-size bound
        # that still exceeds this machine's memory.
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
