"""Side-pairing codes for the ideal 24-cell: decoding, pairings, ridge
cycles, edge-face orbits, and the resulting fundamental-group presentation.

A code is six hex digits, one per family of parallel side spheres.  Digit d
encodes the sign-diagonal part k of that family's pairings: coordinate j of
k is -1 exactly when bit (j-1) of d is set (coordinate 1 is the least
significant bit).  This bit order is pinned by requiring the decoded vectors
of the reference code 146928 to reproduce the published pairing display; a
regression test enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .moebius import Inversion, MoebiusWord, SignFlip
from .polytope import SIDE_INDEX, Polytope24, Side, build_polytope


class CensusError(Exception):
    pass


class ParseError(CensusError):
    """Malformed code text (not six hex digits)."""


class InvalidCode(CensusError):
    """Well-formed code that violates a side-pairing condition."""


class PoincareViolation(CensusError):
    """Cycle or orbit tracing left the face lattice: the code does not give
    a manifold gluing."""


class GeometryError(CensusError):
    """An exact consistency check on derived geometry (cusp stabilizers,
    cover pairings) failed for this code."""


# Families in fixed order, with their generator letters and the indices of
# the two nonzero coordinates of the family's centres.
FAMILIES = (
    (("a", "b"), (0, 1)),
    (("c", "d"), (0, 2)),
    (("e", "f"), (1, 2)),
    (("g", "h"), (0, 3)),
    (("i", "j"), (1, 3)),
    (("k", "l"), (2, 3)),
)

LETTERS = tuple(letter for letters, _ in FAMILIES for letter in letters)


def parse_code(text: str):
    """Decode six hex digits into six sign vectors, one per family."""
    if not isinstance(text, str) or len(text) != 6:
        raise ParseError(f"code must be exactly six hex digits, got {text!r}")
    try:
        digits = [int(ch, 16) for ch in text]
    except ValueError:
        raise ParseError(f"code must be hex digits, got {text!r}") from None
    kvecs = []
    for digit, (letters, support) in zip(digits, FAMILIES):
        if digit == 0:
            raise InvalidCode(
                f"digit 0 for family {letters} is the identity and fixes "
                "every centre of the family"
            )
        k = tuple(-1 if digit >> j & 1 else 1 for j in range(4))
        if all(k[j] == 1 for j in support):
            raise InvalidCode(
                f"digit {digit:x} fixes the centres of family {letters}"
            )
        kvecs.append(k)
    return kvecs


def print_code(kvecs) -> str:
    digits = []
    for k in kvecs:
        digits.append(sum(1 << j for j in range(4) if k[j] == -1))
    return "".join(f"{d:x}" for d in digits)


@dataclass(frozen=True)
class SidePairing:
    letter: str
    source: Side
    target: Side
    kpart: tuple
    word: MoebiusWord


def pairing_word(target: Side, kpart) -> MoebiusWord:
    # Reflection in the image side composed with the diagonal map, diagonal
    # applied first.
    return MoebiusWord((Inversion(target.sphere), SignFlip(kpart)))


def build_pairings(kvecs, polytope: Polytope24 | None = None):
    """The twelve side pairings of a decoded code.

    Within a family the four sides pair as c -> k (.) c; the pairing sources
    are the two sides carrying +1 in the first k-flipped coordinate, ordered
    lexicographically (this reproduces the published source/target display
    for 146928).
    """
    poly = polytope or build_polytope()
    pairings = []
    for k, (letters, support) in zip(kvecs, FAMILIES):
        family_sides = [
            s for s in poly.sides.values()
            if all((s.center[j] != 0) == (j in support) for j in range(4))
        ]
        first_flip = next(j for j in range(4) if k[j] == -1)
        sources = sorted(
            (s for s in family_sides if s.center[first_flip] == 1),
            key=lambda s: s.center,
            reverse=True,
        )
        if len(sources) != 2:
            raise InvalidCode(f"family {letters}: pairing is not fixed-point-free")
        for letter, src in zip(letters, sources):
            tgt_center = tuple(sign * c for sign, c in zip(k, src.center))
            tgt = next(s for s in family_sides if s.center == tgt_center)
            word = pairing_word(tgt, k)
            if poly.side_image(word.lorentz(), src.label) != tgt.label:
                raise InvalidCode(
                    f"pairing {letter} does not carry its source sphere to "
                    "its target sphere"
                )
            pairings.append(SidePairing(letter, src, tgt, k, word))
    return pairings


def orientation_character(pairings) -> dict:
    """letter -> +1/-1.  The reflection part of a pairing reverses
    orientation, so the pairing preserves it iff its k-part has an odd
    number of -1 entries."""
    eps = {}
    for p in pairings:
        minus = sum(1 for s in p.kpart if s == -1)
        eps[p.letter] = 1 if minus % 2 == 1 else -1
    return eps


def eps_of_word(word, eps) -> int:
    value = 1
    for sym, _sign in word:
        value *= eps[sym]
    return value


@dataclass(frozen=True)
class Move:
    """The unique pairing move leaving a given side: the pairing whose source
    it is, or the inverse of the pairing whose target it is.

    ``sides`` and ``vertices`` are the move's exact action on the faces at
    its side, read off its own word's Lorentz matrix (``Polytope24.action``):
    side label -> image side label for the sides meeting it in a ridge, and
    vertex index -> image vertex index for the ideal vertices on it, with
    None for an image outside the side or vertex lattice.
    """

    letter: str
    sign: int
    word: MoebiusWord
    image: str  # label of the image side
    sides: dict
    vertices: dict


def moves_by_side(pairings, polytope: Polytope24 | None = None):
    poly = polytope or build_polytope()
    moves = {}
    for p in pairings:
        for label, sign, word, image in (
            (p.source.label, 1, p.word, p.target.label),
            (p.target.label, -1, p.word.inverse(), p.source.label),
        ):
            sides, vertices = poly.action(label, word.lorentz())
            moves[label] = Move(p.letter, sign, word, image, sides, vertices)
    if len(moves) != 24:
        raise InvalidCode("pairings do not cover the 24 sides as source/target")
    return moves


@dataclass(frozen=True)
class RidgeCycle:
    """One ridge cycle in canonical traversal form.

    nodes[i] is the printable ordered side pair at step i (positional slots
    carried along from the start), arrows[i] the signed generator applied
    there; the relator is the arrows composed under the left-action
    convention (last arrow leftmost).
    """

    nodes: tuple      # ((a, p), ...) side-label pairs, length = cycle length
    arrows: tuple     # ((letter, sign), ...)
    relator: tuple    # Word: ((letter, sign), ...)
    ridges: frozenset # the unordered ridges visited

    def __len__(self):
        return len(self.arrows)


def _state_key(state):
    return (SIDE_INDEX[state[0]], SIDE_INDEX[state[1]])


def _trace(start, moves, poly):
    """Follow the traversal from (active, passive) until it closes.

    Returns (states, nodes, arrows).  states[i] is the (active, passive)
    state before arrow i; nodes track the positional printing slots.
    """
    states = []
    nodes = []
    arrows = []
    state = start
    slots = start
    while True:
        states.append(state)
        nodes.append(slots)
        active, passive = state
        mv = moves[active]
        partner = mv.sides[passive]
        if partner is None:
            raise PoincareViolation(
                f"pairing {mv.letter} maps side {passive} off the side lattice"
            )
        if not poly.adjacent(mv.image, partner):
            raise PoincareViolation(
                f"image pair {mv.image},{partner} is not a ridge"
            )
        arrows.append((mv.letter, mv.sign))
        state = (partner, mv.image)
        slots = (
            mv.image if slots[0] == active else partner,
            partner if slots[1] == passive else mv.image,
        )
        if state == start:
            break
        if len(states) > 192:
            raise PoincareViolation("ridge traversal failed to close")
    return tuple(states), tuple(nodes), tuple(arrows)


def trace_cycle_from(start, pairings, polytope: Polytope24 | None = None):
    """Trace one ridge cycle from an explicit (active, passive) side pair;
    returns (nodes, arrows) in printing order."""
    poly = polytope or build_polytope()
    if not poly.adjacent(*start):
        raise ValueError(f"start pair {start} is not a ridge")
    _states, nodes, arrows = _trace(start, moves_by_side(pairings, poly), poly)
    return nodes, arrows


def ridge_cycles(pairings, polytope: Polytope24 | None = None):
    """All ridge cycles of the code, deduplicated and canonicalised.

    Canonical form: among every traversal state of the cycle and of its
    reverse, start from the lexicographically least (active, passive) pair.
    Cycles are returned sorted by that start state, which reproduces the
    published row order for 146928.
    """
    poly = polytope or build_polytope()
    moves = moves_by_side(pairings, poly)
    seen_states = set()
    cycles_by_ridges = {}
    all_states = []
    for ridge in poly.ridges:
        a, b = sorted(ridge.sides, key=SIDE_INDEX.get)
        all_states.extend([(a, b), (b, a)])
    for start in sorted(all_states, key=_state_key):
        if start in seen_states:
            continue
        states, _nodes, _arrows = _trace(start, moves, poly)
        seen_states.update(states)
        ridge_set = frozenset(frozenset(s) for s in states)
        cycles_by_ridges.setdefault(ridge_set, []).extend(states)
    cycles = []
    for ridge_set, states in cycles_by_ridges.items():
        start = min(states, key=_state_key)
        states, nodes, arrows = _trace(start, moves, poly)
        relator = groups.free_reduce(tuple(reversed(arrows)))
        cycles.append(RidgeCycle(nodes, arrows, relator, ridge_set))
    cycles.sort(key=lambda c: _state_key(c.nodes[0]))
    return cycles


def cycle_moebius_word(cycle: RidgeCycle, pairings) -> MoebiusWord:
    by_letter = {p.letter: p.word for p in pairings}
    word = MoebiusWord(())
    for letter, sign in cycle.relator:
        w = by_letter[letter]
        word = word * (w if sign == 1 else w.inverse())
    return word


def edge_classes(pairings, polytope: Polytope24 | None = None):
    """Orbits of the 96 codimension-3 faces under the pairing groupoid.

    Each orbit contributes one 3-handle.  Orbits are returned as tuples of
    EdgeFace keys (vertex pairs), each in ascending order of its sorted
    vertex pair, and ordered by their least member.
    """
    poly = polytope or build_polytope()
    moves = moves_by_side(pairings, poly)
    faces = poly.edge_faces
    parent = list(range(len(faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i, face in enumerate(faces):
        for side_label in sorted(face.sides, key=SIDE_INDEX.get):
            mv = moves[side_label]
            ends = frozenset(mv.vertices[v] for v in face.ends)
            image = poly.edge_face_at.get(ends)
            if image is None:
                raise PoincareViolation(
                    f"pairing {mv.letter} maps an edge face off the face lattice"
                )
            union(i, image)

    # Vertices are indexed in descending order, so sorting faces by their
    # ascending vertex pairs sorts their reversed index pairs descending.
    orbits = {}
    for i in sorted(range(len(faces)), key=lambda i: faces[i].ends[::-1], reverse=True):
        orbits.setdefault(find(i), []).append(faces[i].vertices)
    return [tuple(orbit) for orbit in orbits.values()]


def presentation(pairings, cycles) -> "groups.Presentation":
    """Generators a..l, one relator per ridge cycle."""
    return groups.Presentation(
        generators=tuple(p.letter for p in pairings),
        relators=tuple(c.relator for c in cycles),
    )


@dataclass
class ValidationReport:
    code: str
    ok: bool = False
    checks: list = field(default_factory=list)
    cycle_lengths: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, passed, detail))

    def render(self) -> str:
        lines = [f"code {self.code}: {'PASS' if self.ok else 'FAIL'}"]
        for name, passed, detail in self.checks:
            mark = "ok " if passed else "FAIL"
            lines.append(f"  [{mark}] {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)


def validate(code_text: str) -> ValidationReport:
    """Run the full side-pairing validity battery for a code.

    Malformed code text raises ParseError (a usage error); semantic failures
    are reported in the returned ValidationReport.
    """
    report = ValidationReport(code=code_text)
    poly = build_polytope()
    try:
        kvecs = parse_code(code_text)
        report.add("parse", True, f"k-vectors {kvecs}")
        pairings = build_pairings(kvecs, poly)
        pair_ok = all(
            p.target.center == tuple(s * c for s, c in zip(p.kpart, p.source.center))
            and poly.side_image(p.word.lorentz(), p.source.label) == p.target.label
            for p in pairings
        )
        report.add("pairings", pair_ok, "12 side pairings, spheres map exactly")
        if not pair_ok:
            raise InvalidCode("pairing consistency failed")

        eps = orientation_character(pairings)
        cycles = ridge_cycles(pairings, poly)
        lengths = {}
        for c in cycles:
            lengths[len(c)] = lengths.get(len(c), 0) + 1
        report.cycle_lengths = lengths
        covered = frozenset().union(*(c.ridges for c in cycles)) if cycles else frozenset()
        # A right-angled ridge closes up after exactly four dihedral angles.
        cycles_ok = (
            sum(len(c.ridges) for c in cycles) == len(poly.ridges)
            and len(covered) == len(poly.ridges)
            and set(lengths) == {4}
        )
        report.add(
            "ridge cycles",
            cycles_ok,
            f"{len(cycles)} cycles, lengths {lengths}, ridges partitioned",
        )
        identity_ok = all(
            cycle_moebius_word(c, pairings).is_identity() for c in cycles
        )
        report.add("cycle relators are identity isometries", identity_ok)
        eps_ok = all(eps_of_word(c.relator, eps) == 1 for c in cycles)
        report.add("orientation character kills every relator", eps_ok)

        orbits = edge_classes(pairings, poly)
        sizes = sorted(len(o) for o in orbits)
        # The link of a right-angled edge is the 8 octants of a 3-ball.
        orbit_ok = sum(sizes) == len(poly.edge_faces) and set(sizes) == {8}
        report.add(
            "edge-face orbits",
            orbit_ok,
            f"{len(orbits)} orbits (3-handles), sizes {sizes}",
        )
        report.ok = cycles_ok and identity_ok and eps_ok and orbit_ok
    except ParseError:
        raise
    except CensusError as exc:
        report.add(type(exc).__name__, False, str(exc))
        report.ok = False
    return report
