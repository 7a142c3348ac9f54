"""Shipped R^3 layout coordinates (over Q(sqrt 2)) for the 24 side labels.

These are the published positions of the 1-handle balls in the handle
pictures; the exact Moebius normalisation producing them from ball-model
data is not pinned down here, so the table is data, checked by tests.

A coordinate a + b*sqrt(2) is stored as the pair (a, b) of rationals.  The
pair is unique since sqrt(2) is irrational, so tuple equality is exact.
"""

from __future__ import annotations

from fractions import Fraction

H = Fraction(1, 2)
Z = (0, 0)
R, NR = (0, H), (0, -H)          # +-1/sqrt(2)
P1, NP1 = (1, 1), (-1, -1)       # +-(1 + sqrt(2))
M1, NM1 = (-1, 1), (1, -1)       # +-(-1 + sqrt(2))

LAYOUT = {
    "A": (R, R, Z),
    "A'": (NR, R, Z),
    "B": (R, NR, Z),
    "B'": (NR, NR, Z),
    "C": (R, Z, R),
    "C'": (R, Z, NR),
    "D": (NR, Z, R),
    "D'": (NR, Z, NR),
    "E": (Z, R, R),
    "E'": (Z, NR, NR),
    "F": (Z, R, NR),
    "F'": (Z, NR, R),
    "G": (P1, Z, Z),
    "G'": (NM1, Z, Z),
    "H": (M1, Z, Z),
    "H'": (NP1, Z, Z),
    "I": (Z, P1, Z),
    "I'": (Z, NP1, Z),
    "J": (Z, M1, Z),
    "J'": (Z, NM1, Z),
    "K": (Z, Z, P1),
    "K'": (Z, Z, M1),
    "L": (Z, Z, NP1),
    "L'": (Z, Z, NM1),
}

# The doubled-domain copy is laid out by reflecting across the plane x = 3,
# which lies to the right of every base position; the copy's y-z plane is
# the mirror plane x = 6.
MIRROR_X = (6, 0)


def reflect_x(pos):
    (a, b), y, z = pos
    return ((6 - a, -b), y, z)
