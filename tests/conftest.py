import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cell24 import census, cover, cusps


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
    """300 distinct pairing-valid codes drawn with a fixed seed.

    A digit gives its family two pairing sources exactly when its lowest set
    bit lies in the family's support.
    """
    digit_sets = [
        [f"{d:x}" for d in range(1, 16) if (d & -d).bit_length() - 1 in support]
        for _letters, support in census.FAMILIES
    ]
    rng = random.Random(20240)
    codes = {}
    while len(codes) < 300:
        codes["".join(rng.choice(ds) for ds in digit_sets)] = None
    return list(codes)
