"""Synthetic identity-clustered embeddings standing in for backbone outputs.

Each identity gets an independent unit-norm prototype per modality; samples
are the prototype plus isotropic Gaussian noise in ambient space (not
re-normalized).  Separate audio/video sigmas let the audio side be made
deliberately harder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, check_array_size
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

    def __post_init__(self):
        # Every check is written to fail on NaN.
        for name in ("n_identities", "samples_per_identity", "d_a", "d_v"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("audio_noise_sigma", "video_noise_sigma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        check_array_size(
            "the samples",
            self.n_identities * self.samples_per_identity * (self.d_a + self.d_v))


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


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n samples as matrices: row i of `audio` (n, d_a) and `video` (n, d_v)
    is sample `sample_ids[i]` of identity `identity_ids[i]`.  An integer
    index, and iteration, yield `Sample` rows of views; a slice or an
    integer array yields the set of those rows."""

    audio: np.ndarray
    video: np.ndarray
    identity_ids: list
    sample_ids: list

    def __post_init__(self):
        n = len(self.sample_ids)
        if not (self.audio.ndim == self.video.ndim == 2
                and len(self.audio) == len(self.video) == len(self.identity_ids) == n):
            raise ShapeError(f"{n} sample ids, {len(self.identity_ids)} identity ids, "
                             f"audio {self.audio.shape} and video {self.video.shape}")

    @classmethod
    def of(cls, samples):
        """A set as it is; a sequence of `Sample` rows, vectors of one shape
        per modality, stacked."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        if not samples:
            return cls(np.empty((0, 0)), np.empty((0, 0)), [], [])
        try:
            return cls(np.stack([s.audio for s in samples]),
                       np.stack([s.video for s in samples]),
                       [s.identity_id for s in samples], [s.sample_id for s in samples])
        except ValueError as exc:
            raise ShapeError(
                f"samples do not share one vector shape per modality: {exc}") from exc

    def __len__(self):
        return len(self.sample_ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Sample(self.identity_ids[index], self.sample_ids[index],
                          self.audio[index], self.video[index])
        rows = np.arange(len(self))[index].tolist()
        return SampleSet(self.audio[index], self.video[index],
                         [self.identity_ids[i] for i in rows],
                         [self.sample_ids[i] for i in rows])

    def __iter__(self):
        return map(Sample, self.identity_ids, self.sample_ids, self.audio, self.video)


def identity_codes(ids, identities=None):
    """(codes, identities): `codes[i]` indexes `identities`, by default the
    sorted distinct ids, at ids[i].  Ids are told apart by exact equality,
    so `a` and `a\\x00` are two identities."""
    if identities is None:
        identities = sorted(set(ids))
    index = dict(zip(identities, range(len(identities))))
    return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids)), identities


def group_rows(ids):
    """(identities, order, bounds): the sorted distinct ids of
    `identity_codes`, and `order` listing the rows grouped by id, each group
    in row order; group k is order[bounds[k]:bounds[k + 1]]."""
    codes, identities = identity_codes(ids)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(identities))
    return identities, order, np.concatenate(([0], np.cumsum(counts)))


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def generate_identities(config: DatasetConfig):
    """Per-identity unit prototypes, uniform on the sphere, seeded."""
    rng = substream(config.seed, "data")
    audio = _unit_rows(rng, config.n_identities, config.d_a)
    video = _unit_rows(rng, config.n_identities, config.d_v)
    return [
        IdentitySpec(f"id{i:04d}", audio[i], video[i])
        for i in range(config.n_identities)
    ]


def sample_dataset(specs, config: DatasetConfig):
    """Prototype + Gaussian noise per sample; deterministic per seed."""
    if not specs:
        raise ConfigurationError("no identity specs given")
    per = config.samples_per_identity
    audio = np.empty((len(specs) * per, config.d_a))
    video = np.empty((len(specs) * per, config.d_v))
    identity_ids, sample_ids = [], []
    try:
        with np.errstate(over="raise"):
            for index, spec in enumerate(specs):
                # Each identity's noise stream derives from its position in
                # `specs`, so no two identities share one, whatever their names.
                rng = substream(config.seed, "noise", index)
                rows = slice(index * per, (index + 1) * per)
                for name, prototype, out in (
                        ("audio_noise_sigma", spec.audio_prototype, audio),
                        ("video_noise_sigma", spec.video_prototype, video)):
                    noise = rng.normal(size=(per, out.shape[1]))
                    np.add(prototype, getattr(config, name) * noise, out=out[rows])
                identity_ids += [spec.identity_id] * per
                sample_ids += [f"{spec.identity_id}-s{j:04d}" for j in range(per)]
    except FloatingPointError as exc:
        raise ConfigurationError(
            f"{name} {getattr(config, name)} overflows the samples") from exc
    return SampleSet(audio, video, identity_ids, sample_ids)


def split_dataset(samples, fraction, seed):
    """Identity-stratified (kept, `fraction` held out) split, disjoint by sample id.

    Each identity, in sorted order, holds out the rows of the first `n_val`
    entries of one `permutation` of its rows; both parts keep each
    identity's rows in their order."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"split fraction {fraction} must be in (0, 1)")
    samples = SampleSet.of(samples)
    identities, order, bounds = group_rows(samples.identity_ids)
    bounds = bounds.tolist()
    rng = substream(seed, "split")
    held = np.zeros(len(samples), dtype=bool)  # by position in `order`
    for identity_id, start, stop in zip(identities, bounds, bounds[1:]):
        size = stop - start
        n_val = int(round(size * fraction))
        if n_val < 1 or n_val >= size:
            raise ConfigurationError(
                f"identity {identity_id} has too few samples "
                f"({size}) to stratify at split fraction {fraction}"
            )
        held[start + rng.permutation(size)[:n_val]] = True
    return samples[order[~held]], samples[order[held]]
