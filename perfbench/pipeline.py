"""The workloads and the CLI calls that make up one pass of each.

A pass is what a user runs: generate -> train each head -> evaluate the
three checkpoints in one call -> diagnose each head.  Every input is made
from the run's seed: the dataset seed is the seed itself, head k of the
desk workload's repeated trainings uses seed + k, and trials are drawn with
the seed.
"""

import os
from dataclasses import dataclass

HEADS = ("mean", "mlp", "multiview")
# Embedding dim and MLP hidden dim that each --profile must give.
PROFILE_DIMS = {"desk": (8, 24), "full": (256, 1330)}


@dataclass(frozen=True)
class Workload:
    name: str
    n_identities: int
    samples_per_identity: int
    d_a: int
    d_v: int
    profile: str
    max_epochs: int
    learning_rate: float
    train_seeds: int  # trainings per head; train_<head>_s sums them
    n_trials: int  # target trials, and again nontarget trials, per mode


# desk: the calibrated desk experiment of acceptance criterion 04 (learning
#   rate 0.1, 10 epochs, batch 128, default dims and data); per-call Python
#   overhead dominates.  Six trainings per head (seeds seed..seed+5) make
#   each train_<head>_s the sum of six calls, near a second.
# full: the full dims (356/2048 -> 256, MLP hidden 1330) on the default 50
#   identities with the default AdamW learning rate, 2 epochs; the optimizer
#   and BLAS dominate.  20 samples per identity instead of 40 halves the
#   evaluation loops, which desk already covers, and keeps a pass near 11 s.
# trials: desk dims and training on 100 identities, evaluated with 1000
#   target and 1000 nontarget trials per mode (twice the default); the
#   quadratic loops in trial sampling, EER and silhouette dominate.  Eight
#   trainings per head keep train_<head>_s above a second.  Not in
#   BENCHMARK.json: its figures spread too much between runs (README).
WORKLOADS = {
    "desk": Workload("desk", 50, 40, 16, 32, "desk", 10, 0.1, 6, 500),
    "full": Workload("full", 50, 20, 356, 2048, "full", 2, 0.001, 1, 500),
    "trials": Workload("trials", 100, 20, 16, 32, "desk", 10, 0.1, 8, 1000),
}


def checkpoint_path(out, head, k):
    return os.path.join(out, f"{head}-s{k}.ckpt")


def epoch_log_path(out, head, k):
    return os.path.join(out, f"{head}-s{k}.log")


def data_path(out, split):
    return os.path.join(out, "data", f"{split}.emb")


def diagnose_dir(out, head):
    return os.path.join(out, f"diagnose-{head}")


def report_dir(out):
    return os.path.join(out, "reports")


def train_argv(w, seed, out, head, k):
    return [
        "train",
        "--train-embeddings", data_path(out, "train"),
        "--val-embeddings", data_path(out, "val"),
        "--head", head, "--profile", w.profile, "--seed", str(seed + k),
        "--learning-rate", repr(w.learning_rate),
        "--max-epochs", str(w.max_epochs),
        "--checkpoint-out", checkpoint_path(out, head, k),
        "--epoch-log-out", epoch_log_path(out, head, k),
    ]


def pass_steps(w, seed, out):
    """[(metric the call's time adds to, argv)] for one pass, in order."""
    steps = [(None, [
        "generate", "--out-dir", os.path.join(out, "data"), "--seed", str(seed),
        "--n-identities", str(w.n_identities),
        "--samples-per-identity", str(w.samples_per_identity),
        "--d-a", str(w.d_a), "--d-v", str(w.d_v),
    ])]
    for head in HEADS:
        for k in range(w.train_seeds):
            steps.append((f"train_{head}_s", train_argv(w, seed, out, head, k)))
    evaluate = ["evaluate", "--test-embeddings", data_path(out, "test")]
    for head in HEADS:
        evaluate += ["--checkpoint", checkpoint_path(out, head, 0)]
    evaluate += ["--n-positive", str(w.n_trials), "--n-negative", str(w.n_trials),
                 "--seed", str(seed), "--out-dir", report_dir(out)]
    steps.append(("evaluate_s", evaluate))
    for head in HEADS:
        steps.append(("diagnose_s", [
            "diagnose", "--checkpoint", checkpoint_path(out, head, 0),
            "--embeddings", data_path(out, "test"), "--seed", str(seed),
            "--out-dir", diagnose_dir(out, head),
        ]))
    return steps
