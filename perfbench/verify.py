"""Checks of one pass's outputs, each recomputed independently (refcheck.py)."""

import csv
import json
import os

import numpy as np

import refcheck as rc
from pipeline import (
    HEADS,
    PROFILE_DIMS,
    checkpoint_path,
    data_path,
    diagnose_dir,
    epoch_log_path,
    report_dir,
)

FAMILY_TOLERANCE = 1e-9  # full-precision JSON figures, summed in another order


def _close(reference, reported):
    return reported is not None and abs(reference - reported) <= FAMILY_TOLERANCE * max(
        1.0, abs(reference))


def verify_outputs(checks, w, seed, out, check_dir, modules):
    evaluation = modules["evaluation"]
    persistence = modules["persistence"]
    embed = evaluation.embed_samples
    test = persistence.read_embeddings(data_path(out, "test"))
    val = persistence.read_embeddings(data_path(out, "val"))
    identities = [s.identity_id for s in test]
    os.makedirs(check_dir, exist_ok=True)

    trials = {}
    for mode, exposures in evaluation.MODALITY_MODES.items():
        trials[mode] = evaluation.build_trials(test, mode, w.n_trials, w.n_trials, seed)
        rc.check_trials(checks, f"trials.{mode}", trials[mode], identities, exposures,
                        w.n_trials, w.n_trials)

    for head in HEADS:
        for k in range(w.train_seeds):
            name = f"{head}-s{k}"
            records = rc.check_epoch_log(checks, name, epoch_log_path(out, head, k),
                                         w.max_epochs)
            d_e, hidden = PROFILE_DIMS[w.profile]
            expected = {
                "kind": head, "d_a": w.d_a, "d_v": w.d_v, "d_e": d_e, "hidden": hidden,
                "config": {"head": head, "seed": seed + k, "profile": w.profile,
                           "max_epochs": w.max_epochs, "learning_rate": w.learning_rate},
            }
            rc.check_checkpoint(checks, name, checkpoint_path(out, head, k),
                                os.path.join(check_dir, f"{name}.ckpt"), records,
                                expected, val, persistence, embed)

    eers = {}
    for head in HEADS:
        model, _, _ = persistence.load_checkpoint(checkpoint_path(out, head, 0))
        emb = {exp: embed(model, test, exp) for exp in ("av", "a", "v")}
        reference = {}
        for mode, (left_exp, right_exp) in evaluation.MODALITY_MODES.items():
            left = [t.left for t in trials[mode]]
            right = [t.right for t in trials[mode]]
            scores = rc.cosine_rows(emb[left_exp][left], emb[right_exp][right])
            labels = [t.label for t in trials[mode]]
            reference[mode] = rc.reference_eer(scores, labels)
        eers[head] = {mode: eer for mode, (eer, _) in reference.items()}
        stem = os.path.join(report_dir(out), f"{head}-s0_report")
        with open(stem + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        rc.check_report_eers(checks, head, doc, reference, w.n_trials, w.n_trials)
        with open(stem + "_eer.csv", newline="", encoding="utf-8") as fh:
            rows = {row["mode"]: row for row in csv.DictReader(fh)}
        checks.record(f"{head}.eer_csv", all(
            mode in rows and rc.sig6_agrees(eer, float(rows[mode]["eer"]))
            for mode, (eer, _) in reference.items()))

        silhouette = {m: rc.reference_silhouette(emb[m[0]], identities)
                      for m in ("audio", "video")}
        checks.record(f"{head}.report_silhouette", all(
            rc.sig6_agrees(v, doc["silhouette"][m]) for m, v in silhouette.items()),
            f"reference {silhouette}, report {doc['silhouette']}")
        if w.name == "desk":
            checks.record(f"{head}.AVxAV_below_chance",
                          eers[head]["AVxAV"] < rc.CHANCE_EER, f"AVxAV {eers[head]['AVxAV']}")
        if w.name == "desk" and seed == 0:
            ceilings = rc.SEED0_CEILINGS[head]
            checks.record(f"{head}.seed0_ceilings", all(
                eers[head][m] < c for m, c in ceilings.items()),
                f"{ {m: eers[head][m] for m in ceilings} } vs {ceilings}")

        verify_diagnose(checks, head, diagnose_dir(out, head), test, emb, silhouette)

    with open(os.path.join(report_dir(out), "comparison.csv"), newline="",
              encoding="utf-8") as fh:
        rows = {row["model"]: row for row in csv.DictReader(fh)}
    checks.record("comparison_csv", sorted(rows) == sorted(HEADS) and all(
        rc.sig6_agrees(eer, float(rows[head][mode]))
        for head in HEADS for mode, eer in eers[head].items()))


def _family(angles):
    return {"n": int(angles.size), "median": float(np.percentile(angles, 50)),
            "q1": float(np.percentile(angles, 25)), "q3": float(np.percentile(angles, 75))}


def verify_diagnose(checks, head, directory, samples, emb, silhouette):
    """Summary silhouettes and angle-family quartiles against numpy; SVGs parse."""
    with open(os.path.join(directory, "diagnostics_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    checks.record(f"{head}.diagnose_silhouette", all(
        _close(v, summary["silhouette"].get(m)) for m, v in silhouette.items()),
        f"reference {silhouette}, summary {summary['silhouette']}")
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.identity_id, []).append(i)
    pairs = np.array([(a, b) for idx in groups.values()
                      for j, a in enumerate(idx) for b in idx[j + 1:]])
    family_pairs = {
        "audio_video": (emb["a"], emb["v"]),
        "within_audio": (emb["a"][pairs[:, 0]], emb["a"][pairs[:, 1]]),
        "within_video": (emb["v"][pairs[:, 0]], emb["v"][pairs[:, 1]]),
    }
    expected = {}
    skipped = 0
    for family, (left, right) in family_pairs.items():
        # The program skips, and counts as a warning, any pair with an
        # exactly zero embedding.
        keep = left.any(axis=1) & right.any(axis=1)
        skipped += int((~keep).sum())
        expected[family] = _family(rc.angles_deg(left[keep], right[keep]))
    checks.record(f"{head}.warnings", summary.get("warnings") == skipped,
                  f"{skipped} zero-embedding pairs, summary {summary.get('warnings')}")
    for family, ref in expected.items():
        got = summary["families"].get(family) or {}
        checks.record(f"{head}.{family}", got.get("n") == ref["n"] and all(
            _close(ref[k], got.get(k)) for k in ("median", "q1", "q3")),
            f"reference {ref}, summary {got}")
        rc.check_svg(checks, f"{head}.{family}", os.path.join(directory, f"{family}.svg"))
