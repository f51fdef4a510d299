import ast
import pathlib
import zlib

import numpy as np
import pytest

import avfusion
from avfusion.evaluation import _MODE_TAGS
from avfusion.rng import STREAM_TAGS, substream

# (name, words, the SeedSequence entropy after the seed) of every stream a
# run draws from, as each was first derived.
STREAMS = [
    ("data", (), [0]),
    ("init", (), [1]),
    ("dropout", (), [2]),
    ("masking", (), [3]),
    ("shuffle", (), [5]),
    *(("noise", (index,), [100, index]) for index in (0, 1, 49, 2**20)),
    ("split", (), [200]),
    *(("trials", (tag,), [300, tag]) for tag in _MODE_TAGS.values()),
    ("init-arc", (), [zlib.crc32(b"init-arc")]),
]


def test_every_table_entry_is_checked():
    assert {name for name, _, _ in STREAMS} == set(STREAM_TAGS)


@pytest.mark.parametrize("name, words, entropy", STREAMS)
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**63])
def test_stream_state_matches_its_literal_derivation(name, words, entropy, seed):
    literal = np.random.default_rng(np.random.SeedSequence([seed, *entropy]))
    assert substream(seed, name, *words).bit_generator.state == literal.bit_generator.state


def test_unlisted_name_is_refused():
    with pytest.raises(KeyError):
        substream(0, "unlisted")


SEEDERS = {"SeedSequence", "default_rng"}


def seeder_uses(path):
    """(line, name) of each call or import of a seeder in the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in SEEDERS:
                yield node.lineno, name
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in SEEDERS)


def test_only_rng_module_seeds_generators():
    # Every stream comes from the one table in `avfusion.rng`.
    package = pathlib.Path(avfusion.__file__).parent
    found = {path.name: list(seeder_uses(path))
             for path in sorted(package.glob("*.py")) if path.name != "rng.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert list(seeder_uses(package / "rng.py"))
