"""Named, seed-derived random streams.

Every source of randomness in a run is derived from one base seed plus a
stream name, so individual components (data, init, dropout, masking, shuffle)
can be varied independently while keeping runs reproducible.
"""

import zlib

import numpy as np

# Fixed tags so stream identity does not depend on Python's string hashing.
_STREAM_TAGS = {
    "data": 0,
    "init": 1,
    "dropout": 2,
    "masking": 3,
    "shuffle": 5,
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream derived from the base seed."""
    tag = _STREAM_TAGS.get(name)
    if tag is None:
        # Stable tag for ad-hoc stream names.
        tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
