"""Seeded draws from the pairing-valid part of the cell24 code space.

A code is six hex digits, one per family of parallel sides (ab, cd, ef, gh,
ij, kl).  Digit d is the family's sign-diagonal: coordinate j is flipped when
bit j of d is set.  ``census.build_pairings`` takes as pairing sources the
family sides carrying +1 in the first flipped coordinate, so a digit gives
exactly two sources (and a valid family) when its lowest set bit lies in the
family's support, the two coordinates where the family's centres are
nonzero.  The digit sets below are that rule written out; the benchmark keeps
them as data and re-derives them at set-up.
"""

from __future__ import annotations

import array
import math
import random

FAMILY_SUPPORTS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
DIGIT_SETS = ("1235679abdef", "134579bcdf", "246ace", "135789bdf", "268ae", "48c")
SPACE_SIZE = 97_200  # 12 * 10 * 6 * 9 * 5 * 3


def check_digit_sets() -> None:
    """Fail unless the digit sets follow the decoding rule and span 97,200 codes."""
    for support, digits in zip(FAMILY_SUPPORTS, DIGIT_SETS):
        derived = "".join(
            f"{d:x}" for d in range(1, 16) if (d & -d).bit_length() - 1 in support
        )
        if derived != digits:
            raise AssertionError(f"digit set {digits} != {derived} for support {support}")
    size = math.prod(len(digits) for digits in DIGIT_SETS)
    if size != SPACE_SIZE:
        raise AssertionError(f"code space has {size} codes, expected {SPACE_SIZE}")


def code_at(index: int) -> str:
    """The index-th pairing-valid code in mixed-radix order (last family fastest)."""
    digits = []
    for digit_set in reversed(DIGIT_SETS):
        index, r = divmod(index, len(digit_set))
        digits.append(digit_set[r])
    return "".join(reversed(digits))


def draw_codes(seed: int):
    """Stream of all codes, each once, in an order drawn with the seed.

    The order is a compact array (0.8 MB), not a list of int objects (4 MB),
    so that it adds little to the run's peak RSS.
    """
    order = array.array("l", range(SPACE_SIZE))
    random.Random(seed).shuffle(order)
    for index in order:
        yield code_at(index)
