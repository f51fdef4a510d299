"""Synthetic identity-clustered embeddings standing in for backbone outputs.

Each identity gets an independent unit-norm prototype per modality; samples
are the prototype plus isotropic Gaussian noise in ambient space (not
re-normalized).  Separate audio/video sigmas let the audio side be made
deliberately harder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import substream


@dataclass(frozen=True)
class DatasetConfig:
    n_identities: int = 50
    samples_per_identity: int = 40
    d_a: int = 16
    d_v: int = 32
    audio_noise_sigma: float = 0.45
    video_noise_sigma: float = 0.25
    seed: int = 0

    def validate(self):
        if self.n_identities < 1 or self.samples_per_identity < 1:
            raise ConfigurationError("identity and sample counts must be >= 1")
        if self.d_a < 1 or self.d_v < 1:
            raise ConfigurationError("embedding dimensions must be >= 1")
        if self.audio_noise_sigma < 0:
            raise ConfigurationError("audio_noise_sigma must be >= 0")
        if self.video_noise_sigma < 0:
            raise ConfigurationError("video_noise_sigma must be >= 0")
        return self


@dataclass(frozen=True)
class IdentitySpec:
    identity_id: str
    audio_prototype: np.ndarray
    video_prototype: np.ndarray


@dataclass(frozen=True)
class Sample:
    identity_id: str
    sample_id: str
    audio: np.ndarray
    video: np.ndarray


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def generate_identities(config: DatasetConfig):
    """Per-identity unit prototypes, uniform on the sphere, seeded."""
    config.validate()
    rng = substream(config.seed, "data")
    audio = _unit_rows(rng, config.n_identities, config.d_a)
    video = _unit_rows(rng, config.n_identities, config.d_v)
    return [
        IdentitySpec(f"id{i:04d}", audio[i], video[i])
        for i in range(config.n_identities)
    ]


def sample_dataset(specs, config: DatasetConfig):
    """Prototype + Gaussian noise per sample; deterministic per seed."""
    config.validate()
    if not specs:
        raise ConfigurationError("no identity specs given")
    samples = []
    for spec in specs:
        # Per-identity derived stream keeps generation order-independent.
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 100, _id_index(spec.identity_id)])
        )
        noise_a = rng.normal(size=(config.samples_per_identity, config.d_a))
        noise_v = rng.normal(size=(config.samples_per_identity, config.d_v))
        for j in range(config.samples_per_identity):
            samples.append(
                Sample(
                    identity_id=spec.identity_id,
                    sample_id=f"{spec.identity_id}-s{j:04d}",
                    audio=spec.audio_prototype + config.audio_noise_sigma * noise_a[j],
                    video=spec.video_prototype + config.video_noise_sigma * noise_v[j],
                )
            )
    return samples


def _id_index(identity_id: str) -> int:
    digits = "".join(ch for ch in identity_id if ch.isdigit())
    return int(digits) if digits else 0


def split_dataset(samples, fraction, seed):
    """Identity-stratified (kept, `fraction` held out) split, disjoint by sample id."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"split fraction {fraction} must be in (0, 1)")
    by_identity = {}
    for s in samples:
        by_identity.setdefault(s.identity_id, []).append(s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 200]))
    train, val = [], []
    for identity_id in sorted(by_identity):
        group = by_identity[identity_id]
        n_val = int(round(len(group) * fraction))
        if n_val < 1 or n_val >= len(group):
            raise ConfigurationError(
                f"identity {identity_id} has too few samples "
                f"({len(group)}) to stratify at split fraction {fraction}"
            )
        perm = rng.permutation(len(group))
        val.extend(group[i] for i in sorted(perm[:n_val]))
        train.extend(group[i] for i in sorted(perm[n_val:]))
    return train, val


def stack_samples(samples):
    """(audio matrix, video matrix, labels, identity order) for a sample list."""
    identities = sorted({s.identity_id for s in samples})
    index = {identity: i for i, identity in enumerate(identities)}
    audio = np.stack([s.audio for s in samples])
    video = np.stack([s.video for s in samples])
    labels = np.array([index[s.identity_id] for s in samples])
    return audio, video, labels, identities
