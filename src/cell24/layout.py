"""Published reference data, kept apart from the algorithms: the filling
words of the reference code's cusps, R^3 layout coordinates (over
Q(sqrt 2)) for the 24 side labels of the handle pictures, the stage and
panel names, and the shipped cancellation script.

The coordinates are the published positions of the 1-handle balls in the
handle pictures; the exact Moebius normalisation producing them from
ball-model data is not pinned down here, so the table is data, checked by
tests.  The module imports nothing from the engine, so the CLI parser can
read the vocabularies without running it.

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

# Filling words by code and cusp representative, as strings (upper case =
# inverse) that ``cusps`` validates at use: the filling word, then published
# alternates.  The cover diagram fills along the alternate j, which keeps
# its attaching circles in coordinate planes.
FILLINGS = {
    "146928": {
        (1, 0, 0, 0): ("c",),
        (0, 1, 0, 0): ("a",),
        (0, 0, 1, 0): ("k",),
        (0, 0, 0, 1): ("i", "j"),
        (H, H, H, H): ("EheH",),
    },
}

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


# Stages of the construction, in order (see kirby.invariant_report).
STAGES = ("base", "cover", "filled", "filled_cover", "degree2_of_filled_cover")
# Panels of a diagram: the three coordinate planes, and an oblique view of
# the 2-handles on none of them.
PANELS = ("xy", "xz", "yz", "off")


def _ridge_sel(sheet, a, b):
    return {"sheet": sheet, "sides": [a, b]}


# The published cancellation order for the filled double cover of the
# reference code: ridge handles are addressed by a ridge they attach along.
SHIPPED_SCRIPTS = {
    "m35-cover-fill": [
        {"op": "cancel", "one": "g⁻¹g", "two": "killing"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "a", "two": "fill-a"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "c", "two": "fill-c"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "b", "two": _ridge_sel(0, "A", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹bg", "two": _ridge_sel(0, "A", "F")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹ag", "two": _ridge_sel(1, "A", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "d", "two": _ridge_sel(0, "A", "C")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹dg", "two": _ridge_sel(0, "C", "H")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹cg", "two": _ridge_sel(1, "C", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "j", "two": "fill-j"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "k", "two": "fill-k"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "l", "two": _ridge_sel(0, "D", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹kg", "two": _ridge_sel(1, "E", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹lg", "two": _ridge_sel(0, "E", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹ig", "two": _ridge_sel(0, "H", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "i", "two": _ridge_sel(0, "I", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹jg", "two": _ridge_sel(1, "H", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹h", "two": _ridge_sel(0, "G", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "hg", "two": _ridge_sel(0, "B", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "gg", "two": _ridge_sel(1, "A", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "fg", "two": _ridge_sel(0, "E", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹f", "two": _ridge_sel(1, "E", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "eg", "two": _ridge_sel(0, "D", "E")},
        {"op": "delete_trivial"},
    ]
}
