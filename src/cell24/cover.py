"""Geometric orientable double cover: two polytope copies glued along the
side of an orientation-reversing pairing letter.

Bookkeeping follows the doubled fundamental domain literally: the copies
are sheets 0 (the base copy) and 1 (the transformed copy), every base side
exists on both sheets (48 formal sides, 192 ridges), and the gluing wall is
the degenerate pairing of the chosen letter whose word is the identity.
Tracing a ridge cycle moves base labels exactly as in the single polytope
while the sheet flips at every orientation-reversing letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .census import GeometryError, PoincareViolation, eps_of_word, moves_by_side
from .groups import double_cover_generator_names, free_reduce
from .layout import LAYOUT, reflect_x
from .moebius import MoebiusWord
from .polytope import SIDE_INDEX, SIDE_ORDER, build_polytope

CoverSide = tuple  # (sheet, base side label)


def side_name(side: CoverSide) -> str:
    sheet, label = side
    return label if sheet == 0 else label + "-"


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

    def wall_pairing(self) -> CoverPairing:
        return next(p for p in self.pairings if p.rule == "wall")

    def generator_names(self):
        """The 23 nontrivial pairing names, in kernel-presentation order."""
        names = double_cover_generator_names(
            tuple(p.letter for p in self.base_pairings), self.eps, self.alpha
        )
        out = []
        for letter in (p.letter for p in self.base_pairings):
            for sheet in (0, 1):
                name = names[(sheet, letter)]
                if name is not None:
                    out.append(name)
        return tuple(out)


class GluingLetterError(ValueError):
    """The requested gluing letter is not an orientation-reversing pairing
    letter of the code."""


def build_double_cover(pairings, eps, alpha: str = "g") -> DoubleCover:
    if eps.get(alpha) != -1:
        raise GluingLetterError(
            f"the gluing letter must be orientation reversing, got {alpha!r}"
        )
    inv = f"{alpha}⁻¹"
    by_letter = {p.letter: p for p in pairings}
    alpha_word = by_letter[alpha].word
    cover_pairings = []
    for p in pairings:
        s, t = p.source.label, p.target.label
        if p.letter == alpha:
            cover_pairings.append(
                CoverPairing(
                    f"{inv}{alpha}", (0, s), (1, t), MoebiusWord(()), alpha, "wall"
                )
            )
            cover_pairings.append(
                CoverPairing(
                    f"{alpha}{alpha}", (1, s), (0, t),
                    p.word * p.word, alpha, "wall-back",
                )
            )
        elif eps[p.letter] == 1:
            cover_pairings.append(
                CoverPairing(p.letter, (0, s), (0, t), p.word, p.letter,
                             "preserving-base")
            )
            cover_pairings.append(
                CoverPairing(
                    f"{inv}{p.letter}{alpha}", (1, s), (1, t),
                    alpha_word.inverse() * p.word * alpha_word,
                    p.letter, "preserving-copy",
                )
            )
        else:
            cover_pairings.append(
                CoverPairing(
                    f"{inv}{p.letter}", (0, s), (1, t),
                    alpha_word.inverse() * p.word, p.letter, "reversing-out",
                )
            )
            cover_pairings.append(
                CoverPairing(
                    f"{p.letter}{alpha}", (1, s), (0, t),
                    p.word * alpha_word, p.letter, "reversing-back",
                )
            )
    sides = tuple(
        (sheet, label) for sheet in (0, 1) for label in SIDE_ORDER
    )
    wall = {(0, by_letter[alpha].source.label), (1, by_letter[alpha].target.label)}
    boundary = tuple(s for s in sides if s not in wall)
    cover = DoubleCover(
        alpha=alpha,
        pairings=tuple(cover_pairings),
        sides=sides,
        boundary_sides=boundary,
        eps=dict(eps),
        base_pairings=tuple(pairings),
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


@dataclass(frozen=True)
class CoverRidgeCycle:
    nodes: tuple     # ordered cover-side pairs per step
    arrows: tuple    # (pairing name, sign) per step
    relator: tuple   # Word over nontrivial pairing names (wall letter dropped)
    ridges: frozenset

    def __len__(self):
        return len(self.arrows)


def _cover_state_key(state):
    (s1, l1), (s2, l2) = state
    return (s1, SIDE_INDEX[l1], s2, SIDE_INDEX[l2])


def _cover_moves(cover: DoubleCover):
    moves = {}
    for p in cover.pairings:
        moves[p.source] = (p.name, 1, p.target)
        moves[p.target] = (p.name, -1, p.source)
    return moves


def _trace_cover(start, cover, base_moves, cover_moves, poly):
    states = []
    nodes = []
    arrows = []
    state = start
    slots = start
    while True:
        states.append(state)
        nodes.append(slots)
        active, passive = state
        sheet, base_label = active
        name, sign, image_active = cover_moves[active]
        mv = base_moves[base_label]
        partner = mv.sides[passive[1]]
        if partner is None:
            raise PoincareViolation(
                f"cover pairing {name} maps side {side_name(passive)} off "
                "the side lattice"
            )
        if not poly.adjacent(mv.image, partner):
            raise PoincareViolation(
                f"cover pairing {name} maps ridge {side_name(active)}"
                f"∩{side_name(passive)} off the ridge lattice"
            )
        image_passive = (image_active[0], partner)
        arrows.append((name, sign))
        state = (image_passive, image_active)
        slots = (
            image_active if slots[0] == active else image_passive,
            image_passive if slots[1] == passive else image_active,
        )
        if state == start:
            break
        if len(states) > 768:
            raise PoincareViolation("cover ridge traversal failed to close")
    return tuple(states), tuple(nodes), tuple(arrows)


def trace_cycle_from(start, cover: DoubleCover):
    """Trace one cover ridge cycle from an explicit (active, passive) pair of
    cover sides; returns (nodes, arrows) in printing order."""
    poly = build_polytope()
    if not poly.adjacent(start[0][1], start[1][1]):
        raise ValueError(f"start pair {start} is not a ridge")
    base_moves = moves_by_side(cover.base_pairings, poly)
    _states, nodes, arrows = _trace_cover(
        start, cover, base_moves, _cover_moves(cover), poly
    )
    return nodes, arrows


def cover_ridge_cycles(cover: DoubleCover):
    """All ridge cycles of the doubled domain, canonicalised and sorted.

    Same traversal and canonicalisation as the base polytope, with the
    sheet carried along; both sides of every formal ridge lie in one sheet.
    """
    poly = build_polytope()
    base_moves = moves_by_side(cover.base_pairings, poly)
    cover_moves = _cover_moves(cover)
    wall_name = cover.wall_pairing().name
    seen = set()
    cycles_by_ridges = {}
    all_states = []
    for sheet in (0, 1):
        for ridge in poly.ridges:
            a, b = sorted(ridge.sides, key=SIDE_INDEX.get)
            all_states.append(((sheet, a), (sheet, b)))
            all_states.append(((sheet, b), (sheet, a)))
    for start in sorted(all_states, key=_cover_state_key):
        if start in seen:
            continue
        states, _nodes, _arrows = _trace_cover(
            start, cover, base_moves, cover_moves, poly
        )
        seen.update(states)
        ridge_set = frozenset(frozenset(s) for s in states)
        cycles_by_ridges.setdefault(ridge_set, []).extend(states)
    cycles = []
    for ridge_set, states in cycles_by_ridges.items():
        start = min(states, key=_cover_state_key)
        states, nodes, arrows = _trace_cover(
            start, cover, base_moves, cover_moves, poly
        )
        relator = free_reduce(
            tuple((n, s) for n, s in reversed(arrows) if n != wall_name)
        )
        cycles.append(CoverRidgeCycle(nodes, arrows, relator, ridge_set))
    cycles.sort(key=lambda c: _cover_state_key(c.nodes[0]))
    return cycles


def cover_presentation(cover: DoubleCover, cycles=None) -> "groups.Presentation":
    """Presentation read off the doubled domain: one generator per
    nontrivial pairing, one relator per cover ridge cycle."""
    if cycles is None:
        cycles = cover_ridge_cycles(cover)
    return groups.Presentation(
        generators=cover.generator_names(),
        relators=tuple(c.relator for c in cycles),
    )


def cover_moebius_word(word, cover: DoubleCover) -> MoebiusWord:
    by_name = {p.name: p.word for p in cover.pairings}
    out = MoebiusWord(())
    for sym, sign in word:
        w = by_name[sym]
        out = out * (w if sign == 1 else w.inverse())
    return out


def cover_edge_classes(cover: DoubleCover):
    """Orbits of the 192 formal codimension-3 faces (the cover 3-handles)."""
    poly = build_polytope()
    base_moves = moves_by_side(cover.base_pairings, poly)
    keys = sorted(
        ((sheet, f.vertices) for sheet in (0, 1) for f in poly.edge_faces),
        key=lambda k: (k[0], sorted(k[1])),
    )
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for sheet, verts in keys:
        face = poly.edge_face_by_vertices[verts]
        for side_label in sorted(face.sides, key=SIDE_INDEX.get):
            mv = base_moves[side_label]
            ends = frozenset(mv.vertices[v] for v in face.ends)
            image_face = poly.edge_face_at.get(ends)
            if image_face is None:
                raise PoincareViolation(
                    "cover pairing maps an edge face off the face lattice"
                )
            flips = cover.eps[mv.letter] == -1
            image_verts = poly.edge_faces[image_face].vertices
            image = (sheet ^ 1 if flips else sheet, image_verts)
            union(index[(sheet, verts)], index[image])

    orbits = {}
    for k, i in index.items():
        orbits.setdefault(find(i), []).append(k)
    result = [
        tuple(sorted(v, key=lambda k: (k[0], sorted(k[1])))) for v in orbits.values()
    ]
    result.sort(key=lambda orbit: (orbit[0][0], sorted(orbit[0][1])))
    return result


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
