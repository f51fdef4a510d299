"""Tests of the benchmark's reference routines and of its output checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_refcheck.py
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import refcheck as rc  # noqa: E402
from avfusion import evaluation, linalg, persistence  # noqa: E402
from avfusion.arcmargin import ArcMarginHead  # noqa: E402
from avfusion.data import Sample  # noqa: E402
from avfusion.heads import MeanFusionHead  # noqa: E402


def test_eer_exact_crossing():
    # FAR - FRR is 1, 1, 2/3, 1/3, 0 at thresholds -0.9, 0.1, 0.2, 0.3, 0.7:
    # the EER is 1/3, read at the nontarget score 0.7.
    scores = [0.9, 0.8, 0.3, 0.7, 0.2, 0.1]
    labels = [True, True, True, False, False, False]
    eer, threshold = rc.reference_eer(scores, labels)
    assert eer == pytest.approx(1 / 3, abs=1e-15)
    assert threshold == 0.7


def test_eer_interpolated_crossing():
    # FAR - FRR is +1/6 at 0.35 and -1/6 at 0.5: halfway between, the EER is
    # FRR(0.35) + (FRR(0.5) - FRR(0.35)) / 2 = 1/3 + 1/6, at threshold 0.425.
    scores = [0.9, 0.35, 0.34, 0.5, 0.2]
    labels = [True, True, True, False, False]
    eer, threshold = rc.reference_eer(scores, labels)
    assert eer == pytest.approx(0.5, abs=1e-15)
    assert threshold == pytest.approx(0.425, abs=1e-15)


def test_eer_separable_and_inverted():
    assert rc.reference_eer([0.9, 0.8, 0.1, 0.2], [True, True, False, False])[0] == 0.0
    assert rc.reference_eer([0.1, 0.2, 0.9, 0.8], [True, True, False, False])[0] == 1.0


def test_eer_agrees_with_program_on_random_scores():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.normal(size=n), int(rng.integers(1, 4)))
        labels = rng.random(n) < 0.5
        labels[:2] = [True, False]
        program = evaluation.compute_eer(scores, labels)
        assert rc.reference_eer(scores, labels) == (program.eer, program.threshold)


def test_cosines_match_the_program_bit_for_bit():
    # Parallel rows clamp to exactly 1 in both, so ties across labels survive.
    rng = np.random.default_rng(11)
    left = np.abs(rng.normal(size=(200, 8))) * (rng.random((200, 8)) < 0.2)
    left[:, 0] += 1e-3
    right = left[rng.permutation(200)] * rng.uniform(0.5, 2.0, size=(200, 1))
    program = [linalg.cosine_similarity(a, b) for a, b in zip(left, right)]
    assert np.array_equal(rc.cosine_rows(left, right), program)


def test_silhouette_hand_cases():
    # a1: a = 1, b = 2 -> 1/2; a2: a = 1, b = 1 -> 0; singleton b1 -> 0.
    points = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    assert rc.reference_silhouette(points, ["a", "a", "b"]) == pytest.approx(1 / 6)
    # Coincident points within clusters, orthogonal clusters: a = 0, b = 1.
    tight = [[2.0, 0.0], [1.0, 0.0], [0.0, 3.0], [0.0, 1.0]]
    assert rc.reference_silhouette(tight, [0, 0, 1, 1]) == pytest.approx(1.0)


def test_silhouette_agrees_with_program():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(60, 5))
    labels = rng.integers(0, 6, size=60)
    assert rc.reference_silhouette(emb, labels) == pytest.approx(
        evaluation.silhouette_score(emb, labels, "cosine"), abs=1e-12)


def test_sig6_agreement():
    assert rc.sig6_agrees(0.2540000000001, 0.254)
    assert rc.sig6_agrees(0.12345649, 0.123456)
    assert not rc.sig6_agrees(0.254, 0.254001)
    assert not rc.sig6_agrees(0.254, 0.2541)


def _samples(n_ids=4, per_id=5, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(f"id{i:04d}", f"id{i:04d}-s{j:04d}", rng.normal(size=3),
                   rng.normal(size=4)) for i in range(n_ids) for j in range(per_id)]


def test_report_with_one_altered_eer_fails():
    samples = _samples()
    head = MeanFusionHead.create(np.random.default_rng(1), 3, 4, 2)
    doc = persistence.report_document(
        evaluation.run_full_evaluation(head, samples, evaluation.TrialConfig(5, 5, 0)))
    reference = {}
    for mode, (left_exp, right_exp) in evaluation.MODALITY_MODES.items():
        trials = evaluation.build_trials(samples, mode, 5, 5, 0)
        left = evaluation.embed_samples(head, samples, left_exp)[[t.left for t in trials]]
        right = evaluation.embed_samples(head, samples, right_exp)[[t.right for t in trials]]
        reference[mode] = rc.reference_eer(rc.cosine_rows(left, right),
                                           [t.label for t in trials])
    checks = rc.Checks()
    rc.check_report_eers(checks, "intact", doc, reference, 5, 5)
    assert checks.attempted == 6 and not checks.failed
    altered = json.loads(json.dumps(doc))
    eer = altered["eer"]["AxV"]["eer"]
    altered["eer"]["AxV"]["eer"] = float(f"{eer + 10 ** (np.floor(np.log10(eer)) - 5):.6g}")
    checks = rc.Checks()
    rc.check_report_eers(checks, "altered", altered, reference, 5, 5)
    assert [name for name, _, _ in checks.failed] == ["altered.eer.AxV"]


def _checkpoint(tmp_path):
    """A checkpoint whose provenance matches its epoch log and validation set."""
    val = _samples(per_id=2, seed=3)
    head = MeanFusionHead.create(np.random.default_rng(2), 3, 4, 2)
    arc = ArcMarginHead.create(np.random.default_rng(3), 2, 4)
    accuracy = rc.validation_accuracy(head, arc, val, evaluation.embed_samples)
    config = {"head": "mean", "seed": 0}
    persistence.save_checkpoint(tmp_path / "m.ckpt", head, arc, {
        "config": config, "best_epoch": 0, "best_val_accuracy": accuracy})
    records = [{"epoch": 0, "is_best": True, "val_accuracy": accuracy}]
    expected = {"kind": "mean", "d_a": 3, "d_v": 4, "d_e": 2, "config": config}
    return tmp_path / "m.ckpt", records, expected, val


def _check(tmp_path, path, records, expected, val):
    checks = rc.Checks()
    rc.check_checkpoint(checks, "ckpt", path, tmp_path / "resaved.ckpt", records,
                        expected, val, persistence, evaluation.embed_samples)
    return checks


def test_intact_checkpoint_passes(tmp_path):
    checks = _check(tmp_path, *_checkpoint(tmp_path))
    assert checks.attempted == 4 and not checks.failed


@pytest.mark.parametrize("target, replacement", [
    (b'"best_epoch":0', b'"best_epoch":1'),  # provenance disagrees with the log
    (b'"seed":0', b'"seed":1'),  # config disagrees with the train call
    (b'"best_val_accuracy":', b'"best_val_accuracy" '),  # header no longer parses
    (b'"kind":"mean"', b'"kind":"meaN"'),  # head kind unreadable
])
def test_checkpoint_with_one_altered_byte_fails(tmp_path, target, replacement):
    path, records, expected, val = _checkpoint(tmp_path)
    blob = path.read_bytes()
    assert blob.count(target) == 1 and len(target) == len(replacement)
    path.write_bytes(blob.replace(target, replacement))
    assert _check(tmp_path, path, records, expected, val).failed


def test_epoch_log_rejects_nan(tmp_path):
    log = tmp_path / "epochs.log"
    log.write_text('{"epoch":0,"is_best":true,"lr":0.1,"mean_loss":NaN,"val_accuracy":0.5}\n')
    checks = rc.Checks()
    rc.check_epoch_log(checks, "log", log, 1)
    assert checks.failed
    log.write_text('{"epoch":0,"is_best":true,"lr":0.1,"mean_loss":1.5,"val_accuracy":0.5}\n')
    checks = rc.Checks()
    rc.check_epoch_log(checks, "log", log, 1)
    assert not checks.failed


def test_trial_properties():
    samples = _samples()
    identities = [s.identity_id for s in samples]
    trials = evaluation.build_trials(samples, "AxV", 6, 7, 0)
    checks = rc.Checks()
    rc.check_trials(checks, "t", trials, identities, ("a", "v"), 6, 7)
    assert not checks.failed
    duplicated = trials + [t for t in trials if not t.label][:1]
    checks = rc.Checks()
    rc.check_trials(checks, "t", duplicated, identities, ("a", "v"), 6, 8)
    assert [name for name, _, _ in checks.failed] == ["t.distinct_nontargets"]
