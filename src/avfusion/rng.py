"""Named, seed-derived random streams.

Every source of randomness in a run is derived from one base seed plus a
stream name, so individual components (data, init, dropout, masking, shuffle)
can be varied independently while keeping runs reproducible.  This module
is the only one that seeds a generator.
"""

import numpy as np

# Fixed tags so stream identity does not depend on Python's string hashing.
# `init-arc` keeps the crc32 of its name, the tag it was first drawn with.
STREAM_TAGS = {
    "data": 0,
    "init": 1,
    "dropout": 2,
    "masking": 3,
    "shuffle": 5,
    "noise": 100,
    "split": 200,
    "trials": 300,
    "init-arc": 2153363134,
}


def substream(seed: int, name: str, *words: int) -> np.random.Generator:
    """Generator for the named stream derived from the base seed, seeded by
    `SeedSequence([seed, STREAM_TAGS[name], *words])`; `words` tell apart
    the streams of one name (an identity, a modality mode)."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), STREAM_TAGS[name], *words]))
