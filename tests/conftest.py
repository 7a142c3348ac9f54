import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cell24 import census, cover, cusps


@pytest.fixture
def reset_tables():
    """Forget every census family record and table entry, as a new process
    has none; the fixture is the reset, to call again."""
    def reset():
        census._records.cache_clear()
        census._local_tables.cache_clear()

    reset()
    return reset


@pytest.fixture(scope="session")
def pairings():
    return census.build_pairings(census.parse_code("146928"))


@pytest.fixture(scope="session")
def eps(pairings):
    return census.orientation_character(pairings)


@pytest.fixture(scope="session")
def cycles(pairings):
    return census.ridge_cycles(pairings)


@pytest.fixture(scope="session")
def base_presentation(pairings, cycles):
    return census.presentation(pairings, cycles)


@pytest.fixture(scope="session")
def double_cover(pairings, eps):
    return cover.build_double_cover(pairings, eps, "g")


@pytest.fixture(scope="session")
def cover_cycles(double_cover):
    return cover.cover_ridge_cycles(double_cover)


@pytest.fixture(scope="session")
def cusp_classes(pairings):
    return cusps.vertex_classes(pairings)


@pytest.fixture(scope="session")
def stabilizers(pairings, cusp_classes):
    return [cusps.stabilizer_generators(c, pairings) for c in cusp_classes]


@pytest.fixture(scope="session")
def sample_codes():
    """300 distinct codes drawn with a fixed seed from the region where
    every digit's lowest set bit lies in its family's support, so its first
    flipped coordinate is a support coordinate."""
    rng = random.Random(20240)
    codes = {}
    while len(codes) < 300:
        codes["".join(rng.choice(ds) for ds in _LOW_BIT_DIGITS)] = None
    return list(codes)


@pytest.fixture(scope="session")
def wide_codes():
    """200 distinct parseable codes drawn with a fixed seed from outside the
    ``sample_codes`` region: some digit flips a coordinate outside its
    family's support before the first support coordinate it flips."""
    parseable = [
        [f"{d:x}" for d in range(1, 16) if any(d >> j & 1 for j in support)]
        for _letters, support in census.FAMILIES
    ]
    rng = random.Random(20241)
    codes = {}
    while len(codes) < 200:
        code = "".join(rng.choice(ds) for ds in parseable)
        if any(ch not in ds for ch, ds in zip(code, _LOW_BIT_DIGITS)):
            codes[code] = None
    return list(codes)


def side_vertices(poly, label):
    """The ideal vertices on side ``label``, read off its vertex indices."""
    return tuple(poly.vertices[i] for i in poly.side_vertex_indices[label])


_LOW_BIT_DIGITS = [
    [f"{d:x}" for d in range(1, 16) if (d & -d).bit_length() - 1 in support]
    for _letters, support in census.FAMILIES
]
