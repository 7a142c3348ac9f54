"""Cusps: ideal-vertex orbits, cusp stabilizers, translation detection,
filling-word selection, and flat cross-section invariants.

The pairing moves act on the 24 ideal vertices; orbit classes are the cusps.
A spanning tree of each class gives loop words generating the stabilizer of
the class representative (the lexicographically greatest vertex).  Each
stabilizer is a concrete rank-3 Bieberbach group acting by integer affine
maps (``moebius.affine_parts``) on the horosphere lattice at its
representative, which is where the exact invariants come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .moebius import TRANSLATION, affine_parts, classify_parabolic
from .polytope import SIDE_INDEX, build_polytope


@dataclass(frozen=True)
class CuspClass:
    vertices: tuple          # class members, descending
    representative: tuple    # lexicographically greatest member
    tree_words: dict         # vertex -> Word carrying it to the representative
    tree_edges: frozenset    # (vertex, letter, sign) moves used by the tree

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class CuspStabilizer:
    cusp: CuspClass
    generators: tuple        # of (Word, MoebiusWord), each fixing the representative


@dataclass(frozen=True)
class CuspInvariants:
    representative: tuple
    orientable: bool
    holonomy_order: int
    linear_parts: tuple      # exact 3x3 linear part per stabilizer generator
    h1_torsion: tuple
    h1_rank: int
    label: str               # Wolf-style tag or "ambiguous"


@dataclass(frozen=True)
class FillingChoice:
    cusp: CuspClass
    chosen: tuple | None     # shortest translation word found, or None
    alternates: tuple        # other minimal-length translations (mod inverses)
    searched: int            # stabilizer elements inspected


def _vertex_moves(v, moves, poly):
    """Deterministically ordered pairing moves applicable at vertex v."""
    out = []
    for side_label in sorted(poly.vertex_sides[v], key=SIDE_INDEX.get):
        mv = moves[side_label]
        image = mv.vertices[poly.vertex_index[v]]
        if image is None:
            raise PoincareViolation(
                f"pairing {mv.letter} maps vertex {v} off the vertex set"
            )
        out.append((mv.letter, mv.sign, poly.vertices[image]))
    return out


def vertex_classes(pairings):
    """Orbit classes of the 24 ideal vertices under the pairing moves."""
    poly = build_polytope()
    moves = moves_by_side(pairings, poly)
    classes = []
    seen = set()
    for start in poly.vertices:  # descending, so reps are lex-greatest
        if start in seen:
            continue
        tree_words = {start: ()}
        tree_edges = set()
        order = [start]
        queue = [start]
        while queue:
            u = queue.pop(0)
            for letter, sign, w in _vertex_moves(u, moves, poly):
                if w not in tree_words:
                    tree_words[w] = free_reduce(tree_words[u] + ((letter, -sign),))
                    tree_edges.add((u, letter, sign))
                    tree_edges.add((w, letter, -sign))
                    order.append(w)
                    queue.append(w)
        seen.update(order)
        classes.append(
            CuspClass(
                vertices=tuple(sorted(order, reverse=True)),
                representative=start,
                tree_words=tree_words,
                tree_edges=frozenset(tree_edges),
            )
        )
    classes.sort(key=lambda c: c.representative, reverse=True)
    for c in classes:
        for v, w in c.tree_words.items():
            image = poly.vertex_image(word_isometry(w, pairings).lorentz(), v)
            if image != c.representative:
                raise GeometryError("tree word fails to reach the representative")
    return classes


def stabilizer_generators(cusp: CuspClass, pairings) -> CuspStabilizer:
    """Loop generators of the stabilizer of the class representative.

    For each non-tree move v -> w the loop runs representative -> v (down the
    tree), across the move, then w -> representative (up the tree).
    """
    poly = build_polytope()
    moves = moves_by_side(pairings, poly)
    generators = []
    seen_words = set()
    for v in sorted(cusp.vertices, reverse=True):
        for letter, sign, w in _vertex_moves(v, moves, poly):
            if (v, letter, sign) in cusp.tree_edges:
                continue
            loop = word_mul(
                cusp.tree_words[w], ((letter, sign),), word_inverse(cusp.tree_words[v])
            )
            if not loop or loop in seen_words or word_inverse(loop) in seen_words:
                continue
            moebius = word_isometry(loop, pairings)
            rep = cusp.representative
            if poly.vertex_image(moebius.lorentz(), rep) != rep:
                raise GeometryError(
                    f"stabilizer loop {word_str(loop)} moves the representative"
                )
            seen_words.add(loop)
            generators.append((loop, moebius))
    if not generators:
        raise GeometryError("every cusp class must have stabilizer generators")
    return CuspStabilizer(cusp=cusp, generators=tuple(generators))


def _affine_ball(stab: CuspStabilizer, pairings, max_factors: int):
    """Products of up to max_factors stabilizer generators, deduplicated by
    their exact affine action: affine pair -> best word."""
    rep = stab.cusp.representative
    gen_affine = []
    for word, moebius in stab.generators:
        gen_affine.append((word, affine_parts(moebius, rep)))
        gen_affine.append((word_inverse(word), affine_parts(moebius.inverse(), rep)))
    best = {flat3.AFFINE_ID: ()}
    frontier = [((), flat3.AFFINE_ID)]
    for _ in range(max_factors):
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


def find_filling_translations(pairings, stabilizers=None, max_factors=2):
    """Shortest stabilizer-derived translation per cusp (ties lexicographic),
    with same-length alternates reported modulo inverses."""
    if stabilizers is None:
        classes = vertex_classes(pairings)
        stabilizers = [stabilizer_generators(c, pairings) for c in classes]
    choices = []
    for stab in stabilizers:
        ball = _affine_ball(stab, pairings, max_factors)
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


def cusp_invariants(stab: CuspStabilizer, pairings, eps) -> CuspInvariants:
    """Exact flat-manifold invariants of a cusp cross-section."""
    rep = stab.cusp.representative
    affines = [affine_parts(moebius, rep) for _, moebius in stab.generators]
    orientable = True
    for (word, _), (q, _) in zip(stab.generators, affines):
        char = eps_of_word(word, eps)
        if char != _det3_sign(q):
            raise GeometryError("orientation character disagrees with det Q")
        if char == -1:
            orientable = False

    # Transversal of the holonomy quotient keyed by linear part: its keys
    # are the holonomy group.  r g and its representative share their linear
    # part, so the Schreier translation r g back^-1 is the difference of
    # their translations.
    reps = {flat3.I3: flat3.AFFINE_ID}
    frontier = [flat3.AFFINE_ID]
    signed = affines + [affine_parts(m.inverse(), rep) for _, m in stab.generators]
    while frontier:
        nxt = []
        for aff in frontier:
            for g in signed:
                na = flat3.affine_mul(aff, g)
                if na[0] not in reps:
                    reps[na[0]] = na
                    nxt.append(na)
        frontier = nxt
    order = len(reps)
    vectors = []
    for raff in reps.values():
        for g in signed:
            q, t = flat3.affine_mul(raff, g)
            vectors.append(tuple(a - b for a, b in zip(t, reps[q][1])))
    basis = flat3.integer_row_basis(vectors)
    if len(basis) != 3:
        raise GeometryError("cusp translation lattice must have rank 3")
    # Lattice coordinates B^-1 x = adj(B) x / det(B), B the basis as columns.
    bmat = tuple(tuple(b[i] for b in basis) for i in range(3))
    adj, det = flat3.adjugate(bmat), flat3.det3(bmat)

    def conjugated(m):
        out = flat3.mat_mul(adj, flat3.mat_mul(m, bmat))
        if any(x % det for row in out for x in row):
            raise GeometryError("holonomy does not preserve the lattice")
        return tuple(tuple(x // det for x in row) for row in out)

    if order == 1:
        torsion, rank = (), 3
    else:
        hol_gens, lifts = _minimal_point_group_data(reps)
        torsion, rank, _ = flat3.extension_h1(
            [conjugated(g) for g in hol_gens],
            [flat3.mat_vec(adj, t) for _, t in lifts],
            det,
        )

    label = flat3.classify_flat(orientable, order, torsion, rank)
    return CuspInvariants(
        representative=rep,
        orientable=orientable,
        holonomy_order=order,
        linear_parts=tuple(q for q, _ in affines),
        h1_torsion=torsion,
        h1_rank=rank,
        label=label,
    )


def _minimal_point_group_data(reps):
    """A minimal generating set of the point group (the keys of ``reps``)
    with their lifts in ``reps``: one maximal-order element if cyclic, else
    two involutions."""
    order = len(reps)
    elems = sorted(reps)
    max_order, best = 1, None
    for m in elems:
        if m == flat3.I3:
            continue
        n = flat3.mat_order(m)
        if n > max_order:
            max_order, best = n, m
    if max_order == order:
        return [best], [reps[best]]
    if order == 4 and max_order == 2:
        nontrivial = [m for m in elems if m != flat3.I3]
        a, b = nontrivial[0], nontrivial[1]
        return [a, b], [reps[a], reps[b]]
    raise GeometryError("unexpected cusp point group structure")


def _det3_sign(q):
    d = flat3.det3(q)
    if d > 0:
        return 1
    if d < 0:
        return -1
    raise GeometryError("singular linear part")


class NoPublishedData(CensusError):
    """Published filling data was asked for on a code it does not cover."""


# Published filling words, keyed by code and then by class representative.
# Each word is validated at use: it must fix a vertex of its class and act
# there as a pure translation.
REFERENCE_FILLING_WORDS = {
    "146928": {
        (1, 0, 0, 0): word_from_str("c"),
        (0, 1, 0, 0): word_from_str("a"),
        (0, 0, 1, 0): word_from_str("k"),
        (0, 0, 0, 1): word_from_str("i"),
        (Fraction(1, 2),) * 4: word_from_str("EheH"),
    },
}

# The diagram-level moves replace i by the other translation j of the same
# cusp, which keeps the attaching circles in coordinate planes.
REFERENCE_FILLING_WORDS_DIAGRAM = {
    "146928": {**REFERENCE_FILLING_WORDS["146928"], (0, 0, 0, 1): word_from_str("j")},
}

# Published alternates: equally valid filling translations of the same cusp.
ALTERNATE_FILLING_WORDS = {
    "146928": {(0, 0, 0, 1): (word_from_str("j"),)},
}


@dataclass(frozen=True)
class ValidatedFilling:
    cusp: CuspClass
    word: tuple
    fixed_vertex: tuple
    classification: str


def _validated_filling(cls: CuspClass, word, pairings, what) -> ValidatedFilling:
    """A published word checked as a translation fixing a vertex of cls."""
    poly = build_polytope()
    moebius = word_isometry(word, pairings)
    fixed = next(
        (v for v in cls.vertices if poly.vertex_image(moebius.lorentz(), v) == v), None
    )
    if fixed is None:
        raise PoincareViolation(f"{what} {word_str(word)} fixes no vertex of its cusp")
    kind = classify_parabolic(moebius, fixed)
    if kind != TRANSLATION:
        raise PoincareViolation(f"{what} {word_str(word)} is {kind}, not a translation")
    return ValidatedFilling(cusp=cls, word=word, fixed_vertex=fixed, classification=kind)


def _code_of(pairings) -> str:
    # Two pairings per family, in family order, sharing the family's k.
    return print_code([p.kpart for p in pairings[::2]])


def canonical_fillings(pairings, classes=None, for_diagram=False):
    """The published filling words, validated against this code's classes.

    Only the reference code has published fillings; any other code raises
    NoPublishedData."""
    code = _code_of(pairings)
    tables = REFERENCE_FILLING_WORDS_DIAGRAM if for_diagram else REFERENCE_FILLING_WORDS
    if code not in tables:
        raise NoPublishedData(f"no published filling words for code {code}")
    table = tables[code]
    if classes is None:
        classes = vertex_classes(pairings)
    out = []
    for cls in classes:
        if cls.representative not in table:
            raise PoincareViolation(
                f"no published filling word for cusp at {cls.representative}"
            )
        out.append(
            _validated_filling(cls, table[cls.representative], pairings, "filling word")
        )
    return out


def published_alternate_fillings(pairings, classes=None):
    """Validated published alternates (e.g. j for the cusp filled along i);
    none for a code without published alternates."""
    table = ALTERNATE_FILLING_WORDS.get(_code_of(pairings), {})
    if classes is None:
        classes = vertex_classes(pairings)
    return [
        _validated_filling(cls, word, pairings, "published alternate")
        for cls in classes
        for word in table.get(cls.representative, ())
    ]
