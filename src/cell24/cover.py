"""Geometric orientable double cover: two polytope copies glued along the
side of an orientation-reversing pairing letter.

Bookkeeping follows the doubled fundamental domain literally: the copies
are sheets 0 (the base copy) and 1 (the transformed copy), every base side
exists on both sheets (48 formal sides, 192 ridges), and the gluing wall is
the degenerate pairing of the chosen letter whose word is the identity.
This module only builds the two-sheet domain from the 24 cover pairings;
its ridge cycles and edge-face orbits come from census's sheeted-domain
engine, which moves base labels exactly as in the single polytope while
the sheet flips at every orientation-reversing letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import census, groups
from .census import LETTERS, GeometryError, eps_of_word
from .groups import double_cover_generator_names
from .layout import LAYOUT, reflect_x
from .moebius import MoebiusWord
from .polytope import SIDE_ORDER, build_polytope

CoverSide = tuple  # (sheet, base side label)


@dataclass(frozen=True)
class CoverPairing:
    name: str
    source: CoverSide
    target: CoverSide
    word: MoebiusWord
    base_letter: str
    rule: str  # preserving-base / preserving-copy / reversing-out /
               # reversing-back / wall / wall-back


@dataclass(frozen=True)
class DoubleCover:
    alpha: str
    pairings: tuple            # 24 CoverPairing, one trivial (the wall)
    sides: tuple               # all 48 formal sides
    boundary_sides: tuple      # the 46 true boundary sides
    eps: dict                  # base orientation character
    base_pairings: tuple
    domain: census.Domain = field(repr=False)  # the two-sheet step table

    def wall_pairing(self) -> CoverPairing:
        return next(p for p in self.pairings if p.rule == "wall")

    def generator_names(self):
        """The 23 nontrivial pairing names, in kernel-presentation order."""
        return groups.double_cover_generators(
            tuple(p.letter for p in self.base_pairings), self.eps, self.alpha
        )


class GluingLetterError(ValueError):
    """The requested gluing letter is not an orientation-reversing pairing
    letter of the code."""


def default_alpha(eps) -> str:
    """The default gluing letter: g when it reverses orientation (the
    letter the layout recipe is defined for), else the first reversing
    letter in a..l."""
    for letter in ("g",) + LETTERS:
        if eps.get(letter) == -1:
            return letter
    raise GluingLetterError(
        "the code has no orientation-reversing letter to glue the double "
        "cover along"
    )


def build_double_cover(pairings, eps, alpha: str = "g") -> DoubleCover:
    """The doubled domain glued along ``alpha``; None means
    ``default_alpha(eps)``."""
    if alpha is None:
        alpha = default_alpha(eps)
    if eps.get(alpha) != -1:
        raise GluingLetterError(
            f"the gluing letter must be orientation reversing, got {alpha!r}"
        )
    inv = f"{alpha}⁻¹"
    by_letter = {p.letter: p for p in pairings}
    alpha_word = by_letter[alpha].word
    cover_pairings = []
    for p in pairings:
        x, w = p.letter, p.word
        if x == alpha:
            lifts = ((f"{inv}{x}", 0, 1, MoebiusWord(()), "wall"),
                     (f"{x}{x}", 1, 0, w * w, "wall-back"))
        elif eps[x] == 1:
            lifts = ((x, 0, 0, w, "preserving-base"),
                     (f"{inv}{x}{alpha}", 1, 1, alpha_word.inverse() * w * alpha_word,
                      "preserving-copy"))
        else:
            lifts = ((f"{inv}{x}", 0, 1, alpha_word.inverse() * w, "reversing-out"),
                     (f"{x}{alpha}", 1, 0, w * alpha_word, "reversing-back"))
        cover_pairings += [
            CoverPairing(name, (a, p.source.label), (b, p.target.label), word, x, rule)
            for name, a, b, word, rule in lifts
        ]
    sides = tuple((sheet, label) for sheet in (0, 1) for label in SIDE_ORDER)
    wall = {(0, by_letter[alpha].source.label), (1, by_letter[alpha].target.label)}
    boundary = tuple(s for s in sides if s not in wall)
    cover = DoubleCover(
        alpha=alpha,
        pairings=tuple(cover_pairings),
        sides=sides,
        boundary_sides=boundary,
        eps=dict(eps),
        base_pairings=tuple(pairings),
        domain=census.sheeted_domain(
            [(p.name, p.source, p.target) for p in cover_pairings],
            census.moves_by_side(pairings, build_polytope()),
            wall=f"{inv}{alpha}",
        ),
    )
    for p in cover.pairings:
        if p.rule == "wall":
            continue
        if eps_of_word(_name_as_base_word(p, alpha), eps) != 1:
            raise GeometryError(f"cover pairing {p.name} is not orientation preserving")
    return cover


def _name_as_base_word(p: CoverPairing, alpha: str):
    words = {
        "preserving-base": ((p.base_letter, 1),),
        "preserving-copy": ((alpha, -1), (p.base_letter, 1), (alpha, 1)),
        "reversing-out": ((alpha, -1), (p.base_letter, 1)),
        "reversing-back": ((p.base_letter, 1), (alpha, 1)),
        "wall-back": ((alpha, 1), (alpha, 1)),
        "wall": (),
    }
    return words[p.rule]


def cover_ridge_cycles(cover: DoubleCover):
    """All ridge cycles of the doubled domain, canonicalised and sorted."""
    return census.domain_cycles(cover.domain)


def cover_presentation(cover: DoubleCover, cycles=None) -> "groups.Presentation":
    """Presentation read off the doubled domain: one generator per
    nontrivial pairing, one relator per cover ridge cycle."""
    if cycles is None:
        cycles = cover_ridge_cycles(cover)
    return groups.Presentation(
        generators=cover.generator_names(),
        relators=tuple(c.relator for c in cycles),
    )


def cover_edge_classes(cover: DoubleCover):
    """Orbits of the 192 formal codimension-3 faces (the cover 3-handles)."""
    return census.domain_orbits(cover.domain)


def lift_filling_words(base_words, cover: DoubleCover):
    """Rewrite base filling words over the cover generators.

    Orientation-preserving single letters lift verbatim; mixed words pick up
    the transversal letter, e.g. the length-four cusp word becomes the
    four-factor product over the reversing generators.
    """
    names = double_cover_generator_names(
        tuple(p.letter for p in cover.base_pairings), cover.eps, cover.alpha
    )
    out = []
    for w in base_words:
        if eps_of_word(w, cover.eps) != 1:
            raise groups.GroupError(
                f"filling word {groups.word_str(w)} is not orientation preserving"
            )
        out.append(groups.rs_rewrite(w, cover.eps, cover.alpha, names))
    return out


def cover_layout(side: CoverSide, cover: DoubleCover):
    """Layout position of a cover side: base table on sheet 0; on sheet 1
    apply the gluing letter's sign-diagonal to the base label, then reflect
    across the fixed plane right of the wall."""
    if cover.alpha != "g":
        raise ValueError("layout recipe is defined for the letter g")
    sheet, label = side
    if sheet == 0:
        return LAYOUT[label]
    kpart = next(p.kpart for p in cover.base_pairings if p.letter == cover.alpha)
    poly = build_polytope()
    center = poly.sides[label].center
    flipped = tuple(s * c for s, c in zip(kpart, center))
    twin = next(lab for lab, s in poly.sides.items() if s.center == flipped)
    return reflect_x(LAYOUT[twin])
