"""Geometric covers: n polytope copies (sheets) glued by the lifts of the
base pairings under a transitive action of the base letters on the sheets,
and the orientable double cover, glued along the side of an
orientation-reversing letter, as its two-sheet case.

Bookkeeping follows the sheeted fundamental domain literally: every base
side exists on every sheet (24n formal sides), and each wall is the
degenerate lift whose word is the identity.  This module only builds the
domain from the 12n lifts, and lays out a double cover's sides for the
handle pictures; ridge cycles and edge-face orbits come from census's
sheeted-domain engine, which moves base labels exactly as in the single
polytope while each pairing moves the sheet by the action.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from . import census, groups
from .census import LETTERS, GluingLetterError, word_isometry
from .moebius import MoebiusWord
from .polytope import SIDE_CENTERS, SIDE_ORDER, build_polytope

CoverSide = tuple  # (sheet, base side label)


class CoverPairing(NamedTuple):
    name: str
    source: CoverSide
    target: CoverSide
    word: MoebiusWord
    base_word: tuple  # the lift as a freely reduced word in the base pairings
    letter: str       # the base letter it lifts


class Cover(NamedTuple):
    pairings: tuple        # CoverPairing per base letter and sheet, walls included
    sides: tuple           # every formal side (sheet, label)
    boundary_sides: tuple  # the formal sides no wall glues
    base_pairings: tuple
    action: dict           # base letter -> the sheet its lift from each sheet lands on
    transversal: tuple     # T(s) per sheet s
    lifts: dict            # groups.schreier_lifts of the base letters
    domain: census.Domain  # the n-sheet step table

    @property
    def alpha(self) -> str:
        """The letter of transversal word 1: a double cover's gluing letter."""
        return self.transversal[1][0][0]


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


def build_cover(pairings, action, transversal) -> Cover:
    """The n-sheet domain of ``groups.schreier_lifts``: sheet s is the copy
    T(s)^-1 P, the lift of base letter x leaving sheet s glues side
    (s, source) to (action[x][s], target) by the isometry of its base word,
    and each wall glues two sheets by the identity."""
    lifts = groups.schreier_lifts([p.letter for p in pairings], action, transversal)
    cover_pairings = []
    for p in pairings:
        for s in range(len(transversal)):
            name, word = lifts[p.letter, s]
            cover_pairings.append(CoverPairing(
                name, (s, p.source.label), (action[p.letter][s], p.target.label),
                word_isometry(word, pairings), word, p.letter,
            ))
    walls = [p for p in cover_pairings if not p.base_word]
    glued = {side for p in walls for side in (p.source, p.target)}
    sides = tuple((s, label) for s in range(len(transversal)) for label in SIDE_ORDER)
    return Cover(
        pairings=tuple(cover_pairings),
        sides=sides,
        boundary_sides=tuple(s for s in sides if s not in glued),
        base_pairings=tuple(pairings),
        action=dict(action),
        transversal=tuple(transversal),
        lifts=lifts,
        domain=census.sheeted_domain(
            [(p.name, p.source, p.target) for p in cover_pairings],
            census.moves_by_side(pairings, build_polytope()),
            tuple(p.name for p in walls),
        ),
    )


def build_double_cover(pairings, eps, alpha: str | None = None) -> Cover:
    """The two-sheet cover glued along ``gluing_letter(eps, alpha)``: the
    action of eps (``groups.eps_action``) with transversal (1, alpha), so
    every lift preserves orientation and the wall is alpha^-1 alpha."""
    alpha = gluing_letter(eps, alpha)
    return build_cover(pairings, groups.eps_action(eps), ((), ((alpha, 1),)))


RULES = {
    "preserving": ("preserving-base", "preserving-copy"),
    "reversing": ("reversing-out", "reversing-back"),
    "wall": ("wall", "wall-back"),
}


def rule(p: CoverPairing, cover: Cover) -> str:
    """A double cover lift's printed rule (``RULES``): the kind of its base
    letter, by the sheet the lift leaves."""
    kind = ("wall" if p.letter == cover.alpha
            else "preserving" if p.source[0] == p.target[0] else "reversing")
    return RULES[kind][p.source[0]]


def cover_ridge_cycles(cover: Cover):
    """All ridge cycles of the cover's domain, canonicalised and sorted."""
    return census.domain_cycles(cover.domain)


def cover_presentation(cover: Cover, cycles) -> "groups.Presentation":
    """Presentation read off the cover's domain and its ridge cycles: one
    generator per lift that is no wall, in ``schreier_lifts`` order, one
    relator per cover ridge cycle."""
    return groups.Presentation(
        generators=tuple(name for name, word in cover.lifts.values() if word),
        relators=tuple(c.relator for c in cycles),
    )


def lift_filling_words(base_words, cover: Cover):
    """Rewrite base filling words over the cover generators
    (``groups.schreier_rewrite``; GroupError for a word not fixing sheet 0).
    On a double cover, e.g., the length-four cusp word becomes the
    four-factor product over the reversing generators."""
    return [groups.schreier_rewrite(w, cover.action, cover.lifts) for w in base_words]


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


def cover_layout(side: CoverSide, cover: Cover):
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
