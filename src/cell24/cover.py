"""Geometric orientable double cover: two polytope copies glued along the
side of an orientation-reversing pairing letter.

Bookkeeping follows the doubled fundamental domain literally: the copies
are sheets 0 (the base copy) and 1 (the transformed copy), every base side
exists on both sheets (48 formal sides, 192 ridges), and the gluing wall is
the degenerate pairing of the chosen letter whose word is the identity.
This module only builds the two-sheet domain from the 24 cover pairings,
and lays out its sides for the handle pictures; its ridge cycles and
edge-face orbits come from census's sheeted-domain engine, which moves
base labels exactly as in the single polytope while the sheet flips at
every orientation-reversing letter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from . import census, groups
from .census import LETTERS, GluingLetterError, eps_of_word, word_isometry
from .groups import double_cover_generator_names, word_inverse, word_mul
from .moebius import MoebiusWord
from .polytope import SIDE_CENTERS, SIDE_ORDER, build_polytope

CoverSide = tuple  # (sheet, base side label)


class CoverPairing(NamedTuple):
    name: str
    source: CoverSide
    target: CoverSide
    word: MoebiusWord
    base_word: tuple  # the lift as a word in the base pairings
    rule: str  # preserving-base / preserving-copy / reversing-out /
               # reversing-back / wall / wall-back


# The printed rule of a lift by the kind of its base letter, indexed by the
# sheet the lift leaves.
RULES = {
    "preserving": ("preserving-base", "preserving-copy"),
    "reversing": ("reversing-out", "reversing-back"),
    "wall": ("wall", "wall-back"),
}


class DoubleCover(NamedTuple):
    alpha: str
    pairings: tuple            # 24 CoverPairing, one trivial (the wall)
    sides: tuple               # all 48 formal sides
    boundary_sides: tuple      # the 46 true boundary sides
    eps: dict                  # base orientation character
    base_pairings: tuple
    names: dict                # Reidemeister-Schreier name per (sheet, letter)
    domain: census.Domain      # the two-sheet step table


def gluing_letter(eps, alpha: str | None = None) -> str:
    """``alpha``, checked to reverse orientation.  None means the default:
    g when it reverses orientation, else the first reversing letter in
    a..l."""
    if alpha is None:
        alpha = next((x for x in ("g",) + LETTERS if eps.get(x) == -1), None)
        if alpha is None:
            raise GluingLetterError("the code has no orientation-reversing letter to "
                                    "glue the double cover along")
    elif eps.get(alpha) != -1:
        raise GluingLetterError(f"the gluing letter must be orientation reversing, got {alpha!r}")
    return alpha


def build_double_cover(pairings, eps, alpha: str | None = None) -> DoubleCover:
    """The doubled domain glued along ``gluing_letter(eps, alpha)``.

    Sheet s is the copy T(s)^-1 P with transversal T = (1, alpha).  The lift
    of a base letter x leaving sheet s lands on sheet s' = s xor [x reverses
    orientation]; it is the base word T(s')^-1 x T(s), so every lift
    preserves orientation, and it is named by the Reidemeister-Schreier
    generator names.  The lift of alpha leaving sheet 0 is the degenerate
    wall alpha^-1 alpha.
    """
    alpha = gluing_letter(eps, alpha)
    names = double_cover_generator_names(tuple(p.letter for p in pairings), eps, alpha)
    wall = f"{alpha}⁻¹{alpha}"
    transversal = ((), ((alpha, 1),))
    cover_pairings = []
    for p in pairings:
        x = p.letter
        kind = "wall" if x == alpha else "preserving" if eps[x] == 1 else "reversing"
        for sheet in (0, 1):
            image = sheet ^ (eps[x] == -1)
            base_word = word_mul(word_inverse(transversal[image]), ((x, 1),), transversal[sheet])
            cover_pairings.append(CoverPairing(
                names[(image, x)] or wall, (sheet, p.source.label), (image, p.target.label),
                word_isometry(base_word, pairings), base_word, RULES[kind][sheet],
            ))
    sides = tuple((sheet, label) for sheet in (0, 1) for label in SIDE_ORDER)
    glued = next((p.source, p.target) for p in cover_pairings if p.name == wall)
    return DoubleCover(
        alpha=alpha,
        pairings=tuple(cover_pairings),
        sides=sides,
        boundary_sides=tuple(s for s in sides if s not in glued),
        eps=dict(eps),
        base_pairings=tuple(pairings),
        names=names,
        domain=census.sheeted_domain(
            [(p.name, p.source, p.target) for p in cover_pairings],
            census.moves_by_side(pairings, build_polytope()),
            wall=wall,
        ),
    )


def cover_ridge_cycles(cover: DoubleCover):
    """All ridge cycles of the doubled domain, canonicalised and sorted."""
    return census.domain_cycles(cover.domain)


def cover_presentation(cover: DoubleCover, cycles) -> "groups.Presentation":
    """Presentation read off the doubled domain and its ridge cycles: one
    generator per nontrivial pairing, one relator per cover ridge cycle."""
    return groups.Presentation(
        generators=groups.double_cover_generators(cover.names),
        relators=tuple(c.relator for c in cycles),
    )


def lift_filling_words(base_words, cover: DoubleCover):
    """Rewrite base filling words over the cover generators.

    Orientation-preserving single letters lift verbatim; mixed words pick up
    the transversal letter, e.g. the length-four cusp word becomes the
    four-factor product over the reversing generators.
    """
    out = []
    for w in base_words:
        if eps_of_word(w, cover.eps) != 1:
            raise groups.GroupError(
                f"filling word {groups.word_str(w)} is not orientation preserving"
            )
        out.append(groups.rs_rewrite(w, cover.eps, cover.alpha, cover.names))
    return out


# The doubled-domain copy is laid out by reflecting across the plane x = 3,
# which lies to the right of every base position; the copy's y-z plane is
# the mirror plane x = 6.
MIRROR_X = (6, 0)


def reflect_x(pos):
    (a, b), y, z = pos
    return ((6 - a, -b), y, z)


def position(center):
    """The 1-handle position of the side with centre c: the stereographic
    projection c1..3 / (sqrt 2 - c4) of its unit normal c / sqrt 2 from e4.
    A coordinate a + b sqrt 2 is the exact rational pair (a, b), unique as
    sqrt 2 is irrational.  Since c4 is 0 or +-1, and 1 / sqrt 2 = sqrt 2 / 2,
    1 / (sqrt 2 -+ 1) = +-1 + sqrt 2, a coordinate x of c1..3 gives (0, x/2)
    or (c4 x, x)."""
    *xyz, c4 = center
    return tuple((0, Fraction(x, 2)) if c4 == 0 else (c4 * x, x) for x in xyz)


@lru_cache(maxsize=None)
def _toward_g(center):
    """sigma, the first signed coordinate permutation that sends ``center``
    to side G's, as (perm, signs) acting by c -> (signs[i] * c[perm[i]]):
    permutations in ``itertools.permutations`` order, then sign vectors in
    ``itertools.product((1, -1), repeat=4)`` order.  It fixes G's centre."""
    g = SIDE_CENTERS["G"]
    return next((perm, signs) for perm in permutations(range(4))
                for signs in product((1, -1), repeat=4)
                if all(s * center[i] == gi for s, i, gi in zip(signs, perm, g)))


def cover_layout(side: CoverSide, cover: DoubleCover):
    """Layout position of the cover side (sheet, label) with centre c, for
    a cover glued along x with sign diagonal k: ``position(sigma c)`` on
    sheet 0, and the mirror image ``reflect_x(position(sigma k c))`` on
    sheet 1, where sigma (``_toward_g``) sends x's source side to G.  For
    x = g, sigma is the identity."""
    sheet, label = side
    x = next(p for p in cover.base_pairings if p.letter == cover.alpha)
    perm, signs = _toward_g(x.source.center)
    c = SIDE_CENTERS[label]
    if sheet:
        c = tuple(k * ci for k, ci in zip(x.kpart, c))
    pos = position(tuple(s * c[i] for s, i in zip(signs, perm)))
    return reflect_x(pos) if sheet else pos
