"""Cusps: ideal-vertex orbits, cusp stabilizers, translation detection,
filling-word selection, and flat cross-section invariants.

The pairing moves act on the 24 ideal vertices; orbit classes are the cusps.
A spanning tree of each class gives loop words generating the stabilizer of
the class representative (the lexicographically greatest vertex).  Each
stabilizer is a concrete rank-3 Bieberbach group acting by integer affine
maps (``moebius.affine_parts``) on the horosphere lattice at its
representative.  Those affine parts are computed once per stabilizer; the
translation search composes them, and ``flat3.bieberbach_h1`` reads the
holonomy, lattice and H1 of the cross-section off them.  The published
filling words are data in ``layout.FILLINGS``; each is validated here, at
use, as a translation fixing a vertex of its class.
"""

from __future__ import annotations

from typing import NamedTuple

from . import flat3
from .census import (
    CensusError,
    GeometryError,
    PoincareViolation,
    eps_of_word,
    moves_by_side,
    print_code,
    word_isometry,
)
from .groups import (
    free_reduce,
    word_from_str,
    word_inverse,
    word_mul,
    word_sort_key,
    word_str,
)
from .layout import FILLINGS
from .moebius import TRANSLATION, affine_parts, classify_parabolic
from .polytope import SIDE_INDEX, build_polytope


class CuspClass:
    __slots__ = ("vertices", "representative", "tree")

    def __init__(self, vertices, representative, tree):
        self.vertices = vertices              # class members, descending
        self.representative = representative  # lexicographically greatest member
        self.tree = tree  # vertex index -> Word carrying it to the representative

    def __len__(self):
        return len(self.vertices)


class CuspStabilizer(NamedTuple):
    cusp: CuspClass
    generators: tuple        # of (Word, MoebiusWord), each fixing the representative
    affines: tuple           # affine parts (Q, t) at the representative:
                             # each generator's, then its inverse's


class CuspInvariants(NamedTuple):
    representative: tuple
    orientable: bool
    holonomy_order: int
    h1_torsion: tuple
    h1_rank: int
    label: str               # Wolf-style tag or "ambiguous"


class FillingChoice(NamedTuple):
    cusp: CuspClass
    chosen: tuple | None     # shortest translation word found, or None
    alternates: tuple        # other minimal-length translations (mod inverses)
    searched: int            # stabilizer elements inspected


def _vertex_moves(i, moves, poly):
    """Deterministically ordered pairing moves applicable at the vertex of
    index i, as (letter, sign, image vertex index)."""
    out = []
    for side_label in sorted(poly.sides_at[i], key=SIDE_INDEX.get):
        mv = moves[side_label]
        image = mv.vertices[i]
        if image is None:
            raise PoincareViolation(
                f"pairing {mv.letter} maps vertex {poly.vertices[i]} off the vertex set"
            )
        out.append((mv.letter, mv.sign, image))
    return out


def vertex_classes(pairings):
    """Orbit classes of the 24 ideal vertices under the pairing moves.

    Vertices are walked by index (``poly.vertices`` descends), so no
    vertex is hashed."""
    poly = build_polytope()
    moves = moves_by_side(pairings, poly)
    classes = []
    seen = set()
    for start in range(len(poly.vertices)):  # descending, so reps are lex-greatest
        if start in seen:
            continue
        tree = {start: ()}
        queue = [start]
        for u in queue:
            for letter, sign, w in _vertex_moves(u, moves, poly):
                if w not in tree:
                    tree[w] = free_reduce(tree[u] + ((letter, -sign),))
                    queue.append(w)
        seen.update(tree)
        classes.append(
            CuspClass(
                vertices=tuple(poly.vertices[i] for i in sorted(tree)),
                representative=poly.vertices[start],
                tree=tree,
            )
        )
    for c in classes:
        rep = min(c.tree)
        for i, w in c.tree.items():
            if poly.vertex_index_image(word_isometry(w, pairings).matrix, i) != rep:
                raise GeometryError("tree word fails to reach the representative")
    return classes


def stabilizer_generators(cusp: CuspClass, pairings) -> CuspStabilizer:
    """Loop generators of the stabilizer of the class representative.

    For each move v -> w the loop runs representative -> v (down the tree),
    across the move, then w -> representative (up the tree).  A tree move's
    loop, and its reverse's, freely reduce to the empty word and are skipped.
    """
    poly = build_polytope()
    moves = moves_by_side(pairings, poly)
    tree = cusp.tree
    rep = min(tree)  # the representative's index
    generators = []
    seen_words = set()
    for v in sorted(tree):
        for letter, sign, w in _vertex_moves(v, moves, poly):
            loop = word_mul(tree[w], ((letter, sign),), word_inverse(tree[v]))
            if not loop or loop in seen_words or word_inverse(loop) in seen_words:
                continue
            moebius = word_isometry(loop, pairings)
            if poly.vertex_index_image(moebius.matrix, rep) != rep:
                raise GeometryError(
                    f"stabilizer loop {word_str(loop)} moves the representative"
                )
            seen_words.add(loop)
            generators.append((loop, moebius))
    if not generators:
        raise GeometryError("every cusp class must have stabilizer generators")
    affines = tuple(
        affine_parts(m, cusp.representative) for _, moebius in generators
        for m in (moebius, moebius.inverse())
    )
    return CuspStabilizer(cusp=cusp, generators=tuple(generators), affines=affines)


# Translations are searched among products of at most this many signed
# stabilizer generators.
MAX_FACTORS = 2


def _affine_ball(stab: CuspStabilizer):
    """Products of up to MAX_FACTORS signed stabilizer generators,
    deduplicated by their exact affine action: affine pair -> best word.
    Only pairs that improve are extended, so the result depends on the
    generator order (each generator, then its inverse)."""
    words = [w for word, _ in stab.generators for w in (word, word_inverse(word))]
    gen_affine = list(zip(words, stab.affines))
    best = {flat3.AFFINE_ID: ()}
    frontier = [((), flat3.AFFINE_ID)]
    for _ in range(MAX_FACTORS):
        nxt = []
        for word, aff in frontier:
            for gword, gaff in gen_affine:
                nw = word_mul(word, gword)
                na = flat3.affine_mul(aff, gaff)
                known = best.get(na)
                if known is None or (len(nw), word_sort_key(nw)) < (
                    len(known),
                    word_sort_key(known),
                ):
                    best[na] = nw
                    nxt.append((nw, na))
        frontier = nxt
    return best


def find_filling_translations(stabilizers):
    """Shortest stabilizer-derived translation per cusp (ties lexicographic),
    with same-length alternates reported modulo inverses."""
    choices = []
    for stab in stabilizers:
        ball = _affine_ball(stab)
        translations = []
        for (q, t), word in ball.items():
            if not word:
                continue
            if q == flat3.I3 and any(x != 0 for x in t):
                translations.append(word)
        if not translations:
            choices.append(
                FillingChoice(stab.cusp, None, (), searched=len(ball))
            )
            continue
        canon = {min(w, word_inverse(w), key=word_sort_key) for w in translations}
        ranked = sorted(canon, key=lambda w: (len(w), word_sort_key(w)))
        shortest = [w for w in ranked if len(w) == len(ranked[0])]
        choices.append(
            FillingChoice(
                stab.cusp,
                chosen=shortest[0],
                alternates=tuple(shortest[1:]),
                searched=len(ball),
            )
        )
    return choices


def cusp_invariants(stab: CuspStabilizer, eps) -> CuspInvariants:
    """Exact flat-manifold invariants of a cusp cross-section."""
    linear = tuple(q for q, _ in stab.affines[::2])
    # Q is in GL(3, Z), so det Q is the orientation sign of the generator.
    chars = [eps_of_word(word, eps) for word, _ in stab.generators]
    if chars != [flat3.det3(q) for q in linear]:
        raise GeometryError("orientation character disagrees with det Q")
    orientable = -1 not in chars
    try:
        order, torsion, rank = flat3.bieberbach_h1(stab.affines)
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc
    return CuspInvariants(
        representative=stab.cusp.representative,
        orientable=orientable,
        holonomy_order=order,
        h1_torsion=torsion,
        h1_rank=rank,
        label=flat3.classify_flat(orientable, order, torsion, rank),
    )


class NoPublishedData(CensusError):
    """Published filling data was asked for on a code it does not cover."""


class ValidatedFilling(NamedTuple):
    cusp: CuspClass
    word: tuple
    fixed_vertex: tuple
    classification: str


def _validated_filling(cls: CuspClass, word, pairings, what) -> ValidatedFilling:
    """A published word checked as a translation fixing a vertex of cls."""
    poly = build_polytope()
    moebius = word_isometry(word, pairings)
    fixed = next(
        (i for i in sorted(cls.tree) if poly.vertex_index_image(moebius.matrix, i) == i), None
    )
    if fixed is None:
        raise PoincareViolation(f"{what} {word_str(word)} fixes no vertex of its cusp")
    fixed = poly.vertices[fixed]
    kind = classify_parabolic(moebius, fixed)
    if kind != TRANSLATION:
        raise PoincareViolation(f"{what} {word_str(word)} is {kind}, not a translation")
    return ValidatedFilling(cusp=cls, word=word, fixed_vertex=fixed, classification=kind)


def point_text(v) -> str:
    """An ideal vertex as printed and as ``layout.FILLINGS`` keys it, e.g.
    ``(1/2,1/2,1/2,1/2)``."""
    return "(" + ",".join(str(x) for x in v) + ")"


def _code_of(pairings) -> str:
    # Two pairings per family, in family order, sharing the family's k.
    return print_code([p.kpart for p in pairings[::2]])


def canonical_fillings(pairings, classes):
    """The published filling words (the first word of each cusp's entry in
    ``layout.FILLINGS``), validated against this code's classes.

    Only the reference code has published fillings; any other code raises
    NoPublishedData."""
    code = _code_of(pairings)
    if code not in FILLINGS:
        raise NoPublishedData(f"no published filling words for code {code}")
    table = FILLINGS[code]
    out = []
    for cls in classes:
        point = point_text(cls.representative)
        if point not in table:
            raise PoincareViolation(f"no published filling word for cusp at {point}")
        word = word_from_str(table[point][0])
        out.append(_validated_filling(cls, word, pairings, "filling word"))
    return out


def published_alternate_fillings(pairings, classes):
    """Validated published alternates (the remaining words of each cusp's
    entry in ``layout.FILLINGS``, e.g. j for the cusp filled along i); none
    for a code without published words."""
    table = FILLINGS.get(_code_of(pairings), {})
    return [
        _validated_filling(cls, word_from_str(word), pairings, "published alternate")
        for cls in classes
        for word in table.get(point_text(cls.representative), ())[1:]
    ]
