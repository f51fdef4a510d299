"""Reference computations and output checks, independent of the program.

The program's own loaders and `build_trials` produce the inputs; every figure
that is checked (trial scores, EERs, silhouettes, angle medians, validation
accuracy) is recomputed here with plain numpy, and every file is checked for
the properties it must have.  Nothing is compared with a stored copy of an
earlier output.
"""

import json
import math
import xml.etree.ElementTree as ElementTree

import numpy as np

# Frozen EER ceilings of acceptance criterion 04 (tests/test_acceptance.py),
# which hold for the desk profile trained and evaluated at seed 0.
SEED0_CEILINGS = {
    "mean": {"AVxAV": 0.30, "AxA": 0.44, "VxV": 0.33},
    "mlp": {"AVxAV": 0.37, "AxA": 0.44, "VxV": 0.41},
    "multiview": {"AVxAV": 0.44, "AxA": 0.495, "VxV": 0.44},
}
CHANCE_EER = 0.5


class Checks:
    """Outcome of every check: each one is an attempted operation."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def record(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def sig6_agrees(reference, reported):
    """True when `reported` is `reference` written to 6 significant digits.

    Allows half a unit in the sixth digit, so a reference that differs from
    the program's float by rounding alone still agrees.
    """
    if reference == 0.0:
        return reported == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 5)
    return abs(reference - reported) <= 0.5 * unit * (1 + 1e-9)


def cosine_rows(left, right):
    """Cosine of each row pair, clamped to [-1, 1].

    Each pair is a 1-d `np.dot` over 1-d norms, so the result is the one
    numpy gives for a single pair.  The multiview head's ReLU makes many
    embeddings exactly parallel; their cosines clamp to exactly 1 and tie
    across targets and nontargets, and a vectorised sum that rounded them
    differently would break those ties and move the EER.
    """
    out = np.empty(len(left))
    for i, (a, b) in enumerate(zip(left, right)):
        out[i] = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return np.clip(out, -1.0, 1.0)


def reference_eer(scores, labels):
    """(EER, threshold) from sorted target and nontarget scores.

    FAR(t) is the share of nontargets scoring >= t and FRR(t) the share of
    targets scoring < t, over every distinct score plus one threshold below
    and one above all of them.  The EER is read where FAR - FRR first reaches
    zero, interpolating linearly when it jumps from above to below zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    targets = np.sort(scores[labels])
    nontargets = np.sort(scores[~labels])
    distinct = np.unique(scores)
    thresholds = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    far = (nontargets.size - np.searchsorted(nontargets, thresholds, "left")) / nontargets.size
    frr = np.searchsorted(targets, thresholds, "left") / targets.size
    diff = far - frr
    hit = diff == 0.0
    hit[:-1] |= (diff[:-1] > 0.0) & (diff[1:] < 0.0)
    i = int(np.flatnonzero(hit)[0])
    if diff[i] == 0.0:
        return float(far[i]), float(thresholds[i])
    alpha = diff[i] / (diff[i] - diff[i + 1])
    eer = frr[i] + alpha * (frr[i + 1] - frr[i])
    return float(eer), float(thresholds[i] + alpha * (thresholds[i + 1] - thresholds[i]))


def reference_silhouette(embeddings, labels):
    """Mean cosine-distance silhouette from per-cluster distance sums.

    The sum of cosine distances from point i to cluster c is
    n_c - u_i . (sum of the unit vectors in c), so no n x n matrix is built.
    Points of singleton clusters score 0, as do points with a == b == 0.
    """
    unit = np.asarray(embeddings, dtype=np.float64)
    unit = unit / np.linalg.norm(unit, axis=1, keepdims=True)
    clusters, index = np.unique(np.asarray(labels), return_inverse=True)
    onehot = np.zeros((len(index), len(clusters)))
    onehot[np.arange(len(index)), index] = 1.0
    sizes = onehot.sum(axis=0)
    sums = sizes[None, :] - unit @ (onehot.T @ unit).T
    rows = np.arange(len(index))
    own_size = sizes[index]
    self_distance = 1.0 - np.einsum("ij,ij->i", unit, unit)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (sums[rows, index] - self_distance) / (own_size - 1)
        other = sums / sizes[None, :]
    other[rows, index] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.zeros(len(index))
    ok = (own_size > 1) & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def angles_deg(left, right):
    return np.degrees(np.arccos(cosine_rows(left, right)))


def check_trials(checks, name, trials, identities, mode_exposures, n_pos, n_neg):
    """Counts as requested, labels equal identity equality, distinct
    nontarget pairs, and the mode's exposures on every trial."""
    labels = [t.label for t in trials]
    checks.record(f"{name}.counts", labels.count(True) == n_pos
                  and labels.count(False) == n_neg,
                  f"{labels.count(True)} targets, {labels.count(False)} nontargets")
    checks.record(f"{name}.labels", all(
        t.label == (identities[t.left] == identities[t.right]) for t in trials))
    negatives = [(t.left, t.right) for t in trials if not t.label]
    checks.record(f"{name}.distinct_nontargets", len(set(negatives)) == len(negatives))
    checks.record(f"{name}.exposures", all(
        (t.left_exposure, t.right_exposure) == mode_exposures for t in trials))


def check_report_eers(checks, name, doc, reference, n_pos, n_neg):
    """`reference` maps mode -> (eer, threshold) computed here.

    Only the EER is compared: where FAR = FRR over a run of scores, the
    threshold is just the first score of that run.
    """
    for mode, (eer, _) in reference.items():
        entry = doc["eer"].get(mode)
        ok = (entry is not None and sig6_agrees(eer, entry["eer"])
              and entry["n_target"] == n_pos and entry["n_nontarget"] == n_neg)
        checks.record(f"{name}.eer.{mode}", ok, f"reference {eer:.6g}, report {entry}")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_epoch_log(checks, name, path, max_epochs):
    """Strict JSON per line, a finite loss, epochs 0..max-1, one best epoch."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line, parse_constant=_reject_constant)
                       for line in fh if line.strip()]
        ok = (
            [r["epoch"] for r in records] == list(range(max_epochs))
            and all(math.isfinite(r["mean_loss"]) for r in records)
            and all(0.0 <= r["val_accuracy"] <= 1.0 for r in records)
            and sum(r["is_best"] for r in records) == 1
        )
        detail = f"{len(records)} records"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        records, ok, detail = [], False, repr(exc)
    checks.record(f"{name}.epoch_log", ok, detail)
    return records


def validation_accuracy(head, arc, val_samples, embed):
    """Argmax accuracy of plain cosine logits, identities indexed in sorted
    order as training does; zero embeddings score 0 against every class."""
    identities = sorted({s.identity_id for s in val_samples})
    labels = np.array([identities.index(s.identity_id) for s in val_samples])
    emb = embed(head, val_samples, "av")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / np.where(norms == 0.0, 1.0, norms)
    protos = arc.prototypes / np.linalg.norm(arc.prototypes, axis=0)
    return float(np.mean((unit @ protos).argmax(axis=1) == labels))


def check_checkpoint(checks, name, path, resave_path, records, expected, val_samples,
                     persistence, embed):
    """Reload and re-save byte for byte; header and provenance agree with the
    request and the epoch log; the best validation accuracy is reproduced.

    `expected` holds the head's "kind", "d_a", "d_v", "d_e" and "hidden", and
    under "config" the provenance config values the train call passed.
    """
    try:
        head, arc, provenance = persistence.load_checkpoint(path)
        persistence.save_checkpoint(resave_path, head, arc, provenance)
    except Exception as exc:  # any failure to read back is a failed check
        checks.record(f"{name}.reload", False, repr(exc))
        return
    with open(path, "rb") as fh:
        original = fh.read()
    with open(resave_path, "rb") as fh:
        resaved = fh.read()
    checks.record(f"{name}.resave_bytes", original == resaved,
                  f"{len(original)} vs {len(resaved)} bytes")
    config = provenance.get("config", {})
    head_ok = all(getattr(head, k) == expected[k] for k in ("kind", "d_a", "d_v", "d_e"))
    if head.kind == "mlp":
        head_ok = head_ok and head.layers[0].out_dim == expected["hidden"]
    config_ok = all(config.get(k) == v for k, v in expected["config"].items())
    checks.record(f"{name}.header", head_ok and config_ok, f"config {config}")
    best = [r for r in records if r.get("is_best")]
    log_ok = (len(best) == 1 and provenance.get("best_epoch") == best[0]["epoch"]
              and provenance.get("best_val_accuracy") == best[0]["val_accuracy"])
    checks.record(f"{name}.provenance", log_ok, f"provenance {provenance.get('best_epoch')}")
    accuracy = validation_accuracy(head, arc, val_samples, embed)
    checks.record(f"{name}.val_accuracy",
                  accuracy == provenance.get("best_val_accuracy"),
                  f"recomputed {accuracy}, stored {provenance.get('best_val_accuracy')}")


def check_svg(checks, name, path):
    try:
        root = ElementTree.parse(path).getroot()
        ok = root.tag.endswith("svg")
    except (OSError, ElementTree.ParseError):
        ok = False
    checks.record(f"{name}.svg", ok)
