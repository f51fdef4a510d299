"""Shared test helpers: finite-difference oracles and small data builders."""

import numpy as np
import pytest

from avfusion.arcmargin import ArcMarginHead, arc_margin_loss_grad_batch
from avfusion.data import DatasetConfig, generate_identities, sample_dataset
from avfusion.heads import HEAD_KINDS
from avfusion.training import TrainingConfig, batch_loss

# Default loss weights (lambda_audio = lambda_video = 0.5); built once, as
# the gradient check evaluates the loss over a hundred thousand times.
LOSS_CONFIG = TrainingConfig()


def make_head(kind, rng, d_a=16, d_v=32, d_e=8, hidden=24, dropout_p=0.1):
    return HEAD_KINDS[kind].create(rng, d_a, d_v, d_e, hidden=hidden,
                                   dropout_p=dropout_p)


def draw_fixed_masks(head, rng, n):
    """Pre-drawn dropout masks so forward passes replay deterministically."""
    masks = {
        "audio": head.dropout.draw_mask(rng, (n, head.d_a)),
        "video": head.dropout.draw_mask(rng, (n, head.d_v)),
    }
    if head.kind == "mlp":
        hidden = head.layers[0].out_dim
        masks["h1"] = head.dropout.draw_mask(rng, (n, hidden))
        masks["h2"] = head.dropout.draw_mask(rng, (n, hidden))
    if head.kind == "multiview":
        masks["audio"] = head.dropout.draw_mask(rng, (n, head.d_e))
        masks["video"] = head.dropout.draw_mask(rng, (n, head.d_e))
    return masks


def composed_loss(head, arc, audio, video, labels, masks):
    """Train-mode head + arc-margin loss with replayed dropout masks.

    The loss-only reference: the weighted arc-margin losses of the head's
    loss terms, with no backward pass.
    """
    terms, _ = head.loss_terms(audio, video, LOSS_CONFIG, masks=masks)
    return sum(
        weight * arc_margin_loss_grad_batch(arc, emb, labels)[0] for weight, emb in terms
    )


def composed_grads(head, arc, audio, video, labels, masks):
    """Analytic gradients of composed_loss for every parameter, as training
    computes them."""
    return batch_loss(head, arc, audio, video, labels, LOSS_CONFIG, masks=masks)[1]


def gradient_check(head, arc, audio, video, labels, masks, step=1e-5):
    """Max norm-relative error between analytic and central finite differences."""
    analytic = composed_grads(head, arc, audio, video, labels, masks)
    params = {f"head.{k}": v for k, v in head.param_dict().items()}
    params["arc.prototypes"] = arc.prototypes
    worst = 0.0
    for name, p in params.items():
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = composed_loss(head, arc, audio, video, labels, masks)
            flat[i] = orig - step
            down = composed_loss(head, arc, audio, video, labels, masks)
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        a = np.asarray(analytic[name], dtype=np.float64)
        denom = max(np.linalg.norm(a), np.linalg.norm(numeric), 1e-12)
        err = np.linalg.norm(a - numeric) / denom
        worst = max(worst, err)
    return worst


def eer_oracle(scores, labels):
    """Brute-force EER: FAR/FRR at every midpoint between sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    targets = scores[labels]
    nontargets = scores[~labels]
    uniq = np.sort(np.unique(scores))
    candidates = [uniq[0] - 1.0]
    candidates.extend((uniq[:-1] + uniq[1:]) / 2)
    candidates.append(uniq[-1] + 1.0)
    far = np.array([(nontargets >= t).mean() for t in candidates])
    frr = np.array([(targets < t).mean() for t in candidates])
    diff = far - frr
    for i in range(len(candidates)):
        if diff[i] == 0.0:
            return float(far[i])
        if diff[i] > 0.0 and i + 1 < len(candidates) and diff[i + 1] < 0.0:
            alpha = diff[i] / (diff[i] - diff[i + 1])
            return float(frr[i] + alpha * (frr[i + 1] - frr[i]))
    raise AssertionError("oracle found no FAR/FRR crossing")


def small_dataset(n_identities=8, samples_per_identity=6, seed=0,
                  audio_sigma=0.2, video_sigma=0.1):
    config = DatasetConfig(
        n_identities=n_identities,
        samples_per_identity=samples_per_identity,
        audio_noise_sigma=audio_sigma,
        video_noise_sigma=video_sigma,
        seed=seed,
    )
    return sample_dataset(generate_identities(config), config)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
