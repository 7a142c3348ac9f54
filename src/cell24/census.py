"""Side-pairing codes for the ideal 24-cell: decoding, pairings, ridge
cycles, edge-face orbits, and the resulting fundamental-group presentation.

A code is six hex digits, one per family of parallel side spheres.  Digit d
encodes the sign-diagonal part k of that family's pairings: coordinate j of
k is -1 exactly when bit (j-1) of d is set (coordinate 1 is the least
significant bit).  This bit order is pinned by requiring the decoded vectors
of the reference code 146928 to reproduce the published pairing display; a
regression test enforces it.

Ridge cycles (2-handles) and edge-face orbits (3-handles) come from one
engine over a sheeted domain (``Domain``): the code's polytope is its
one-sheet case, and cover builds the two-sheet orientable double cover.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from math import prod
from typing import NamedTuple

from . import groups
from .moebius import LORENTZ_IDENTITY, MoebiusWord, diagonal, lorentz_mul, reflection
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
LETTER_INDEX = {letter: i for i, letter in enumerate(LETTERS)}


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
    return "".join(f"{sum(1 << j for j in range(4) if k[j] == -1):x}" for k in kvecs)


class SidePairing(NamedTuple):
    letter: str
    source: Side
    target: Side
    kpart: tuple
    word: MoebiusWord

    @property
    def name(self) -> str:
        return self.letter


@lru_cache(maxsize=None)
def pairing_word(target_vector, kpart) -> MoebiusWord:
    # Reflection in the image side composed with the diagonal map, diagonal
    # applied first.
    return MoebiusWord(lorentz_mul(reflection(target_vector), diagonal(kpart)))


@lru_cache(maxsize=None)
def letter_inverse(word: MoebiusWord) -> MoebiusWord:
    """The inverse of a pairing letter's isometry, computed once per matrix."""
    return word.inverse()


def build_pairings(kvecs, polytope: Polytope24 | None = None):
    """The twelve side pairings of a decoded code.

    Within a family the four sides pair as c -> k (.) c; the pairing sources
    are the two sides carrying +1 in the first k-flipped coordinate of the
    family's support, ordered lexicographically (this reproduces the
    published source/target display for 146928).  ``parse_code`` makes k
    flip some support coordinate, so every family has two sources.
    """
    poly = polytope or build_polytope()
    return [
        p for index, k in zip(range(len(FAMILIES)), kvecs)
        for p in _family_pairings(poly, index, tuple(k))
    ]


@lru_cache(maxsize=None)
def _family_pairings(poly: Polytope24, index: int, k: tuple):
    """A family's two pairings depend on nothing but its k: they are built
    once per (polytope, family, k), at most 6 x 12, and every code with that
    digit shares them.  A raised InvalidCode is not cached."""
    letters, support = FAMILIES[index]
    family_sides = [
        s for s in poly.sides.values()
        if all((s.center[j] != 0) == (j in support) for j in range(4))
    ]
    first_flip = next(j for j in support if k[j] == -1)
    sources = sorted(
        (s for s in family_sides if s.center[first_flip] == 1),
        key=lambda s: s.center,
        reverse=True,
    )
    pairings = []
    for letter, src in zip(letters, sources):
        tgt_center = tuple(sign * c for sign, c in zip(k, src.center))
        tgt = next(s for s in family_sides if s.center == tgt_center)
        word = pairing_word(poly.side_vectors[tgt.label], k)
        if poly.side_image(word.lorentz(), src.label) != tgt.label:
            raise InvalidCode(
                f"pairing {letter} does not carry its source sphere to "
                "its target sphere"
            )
        pairings.append(SidePairing(letter, src, tgt, k, word))
    return tuple(pairings)


def orientation_character(pairings) -> dict:
    """letter -> +1/-1.  The reflection part of a pairing reverses
    orientation, so the pairing preserves it iff its k-part has an odd
    number of -1 entries."""
    return {p.letter: 1 if p.kpart.count(-1) % 2 == 1 else -1 for p in pairings}


def eps_of_word(word, eps) -> int:
    return prod(eps[sym] for sym, _sign in word)


class Move(NamedTuple):
    """The unique pairing move leaving a given side: the pairing whose source
    it is, or the inverse of the pairing whose target it is.

    ``sides``, ``vertices`` and ``faces`` are the move's exact action on
    the faces at its side, read off its own word's Lorentz matrix
    (``Polytope24.action``, shared by every move with that side and
    matrix): side label -> image side label for the sides meeting it in a
    ridge, vertex index -> image vertex index for the ideal vertices on it,
    and edge-face index -> image edge-face index for the edge faces on it,
    with None for an image outside the side, vertex or edge-face lattice.
    """

    letter: str
    sign: int
    word: MoebiusWord
    image: str  # label of the image side
    sides: dict
    vertices: dict
    faces: dict


def moves_by_side(pairings, polytope: Polytope24 | None = None):
    poly = polytope or build_polytope()
    moves = {}
    for p in pairings:
        for label, sign, word, image in (
            (p.source.label, 1, p.word, p.target.label),
            (p.target.label, -1, letter_inverse(p.word), p.source.label),
        ):
            tables = poly.action(label, word.lorentz())
            moves[label] = Move(p.letter, sign, word, image, *tables)
    if len(moves) != 24:
        raise InvalidCode("pairings do not cover the 24 sides as source/target")
    return moves


def side_name(side) -> str:
    """Printed name of a formal side (sheet, label): sheet 1 adds a '-'."""
    sheet, label = side
    return label if sheet == 0 else label + "-"


class Domain(NamedTuple):
    """A fundamental domain made of sheets (copies) of the 24-cell.

    Formal sides are (sheet, label).  ``pairs`` lists the side pairings as
    (name, source, target).  ``steps`` maps every formal side to the move
    leaving it, (name, sign, image side, Move), where Move is the base move
    at the side's label: a pairing acts on the faces at its side the same
    way on every sheet, and flips the sheet exactly when it reverses
    orientation.  ``wall`` names the trivial pairing that glues two sheets
    together; relators drop it.  The code's own polytope is the one-sheet
    case (``base_domain``).
    """

    pairs: tuple
    steps: dict
    wall: str | None = None

    @property
    def sheets(self) -> int:
        return len(self.steps) // len(SIDE_INDEX)


def sheeted_domain(pairs, moves, wall=None) -> Domain:
    """Domain of the pairings (name, source, target), given the base moves
    by side label."""
    steps = {}
    for name, source, target in pairs:
        steps[source] = (name, 1, target, moves[source[1]])
        steps[target] = (name, -1, source, moves[target[1]])
    return Domain(tuple(pairs), steps, wall)


def base_domain(pairings, polytope: Polytope24 | None = None) -> Domain:
    poly = polytope or build_polytope()
    pairs = [(p.letter, (0, p.source.label), (0, p.target.label)) for p in pairings]
    return sheeted_domain(pairs, moves_by_side(pairings, poly))


class RidgeCycle:
    """One ridge cycle in canonical traversal form.

    nodes[i] is the printable ordered side pair at step i (positional slots
    carried along from the start), arrows[i] the signed pairing applied
    there; the relator is the arrows composed under the left-action
    convention (last arrow leftmost), without the wall pairing.  Sides are
    labels on the code's polytope and (sheet, label) on a sheeted domain.
    """

    __slots__ = ("nodes", "arrows", "relator", "ridges")

    def __init__(self, nodes, arrows, relator, ridges):
        self.nodes = nodes        # ((a, p), ...) side pairs, length = cycle length
        self.arrows = arrows      # ((name, sign), ...)
        self.relator = relator    # Word: ((name, sign), ...)
        self.ridges = ridges      # frozenset of the unordered ridges visited

    def __len__(self):
        return len(self.arrows)


@lru_cache(maxsize=None)
def _ridge_states(poly: Polytope24, sheets: int):
    """Every (active, passive) state of every formal ridge, sorted by
    (sheet, SIDE_INDEX) of the active side, then of the passive side."""
    return tuple(
        ((sheet, a), (sheet, b))
        for sheet in range(sheets)
        for a in SIDE_INDEX
        for b in sorted(poly.neighbours[a], key=SIDE_INDEX.get)
    )


def _trace(start, steps, poly):
    """Follow the traversal from (active, passive) until it closes.

    Returns (states, nodes, arrows).  states[i] is the (active, passive)
    state before arrow i; nodes track the positional printing slots.
    """
    states, nodes, arrows = [], [], []
    state = slots = start
    while True:
        states.append(state)
        nodes.append(slots)
        active, passive = state
        name, sign, image, mv = steps[active]
        partner = mv.sides[passive[1]]
        if partner is None:
            raise PoincareViolation(
                f"pairing {name} maps side {passive[1]} off the side lattice"
            )
        if not poly.adjacent(image[1], partner):
            raise PoincareViolation(f"image pair {image[1]},{partner} is not a ridge")
        partner = (image[0], partner)
        arrows.append((name, sign))
        state = (partner, image)
        slots = (
            image if slots[0] == active else partner,
            partner if slots[1] == passive else image,
        )
        if state == start:
            break
        if len(states) > 8 * len(steps):
            raise PoincareViolation("ridge traversal failed to close")
    return states, nodes, arrows


def trace_cycle_from(start, domain: Domain, polytope: Polytope24 | None = None):
    """Trace one ridge cycle of a domain from an explicit (active, passive)
    pair of formal sides; returns (nodes, arrows) in printing order."""
    poly = polytope or build_polytope()
    (sheet_a, a), (sheet_p, p) = start
    if sheet_a != sheet_p or not poly.adjacent(a, p):
        raise ValueError(f"start pair {start} is not a ridge")
    _states, nodes, arrows = _trace(start, domain.steps, poly)
    return tuple(nodes), tuple(arrows)


def _canonical_traces(domain: Domain, poly):
    """Each ridge cycle traced once, from its canonical start, in order.

    Canonical start: the least state among the cycle's states and its
    reverse's.  The reverse traversal visits exactly the swapped states
    (the move leaving an image side is the inverse move), so scanning the
    sorted states and skipping every state seen in either direction meets
    each cycle first at its canonical start.
    """
    seen = set()
    traces = []
    for start in _ridge_states(poly, domain.sheets):
        if start in seen:
            continue
        trace = _trace(start, domain.steps, poly)
        seen.update(trace[0])
        seen.update((p, a) for a, p in trace[0])
        traces.append(trace)
    return traces


def _ridge_cycle(states, nodes, arrows, wall=None) -> RidgeCycle:
    relator = groups.free_reduce(tuple(a for a in reversed(arrows) if a[0] != wall))
    ridges = frozenset(frozenset(s) for s in states)
    return RidgeCycle(tuple(nodes), tuple(arrows), relator, ridges)


def domain_cycles(domain: Domain, polytope: Polytope24 | None = None):
    """All ridge cycles of a domain, canonical and sorted by start state."""
    poly = polytope or build_polytope()
    return [
        _ridge_cycle(states, nodes, arrows, domain.wall)
        for states, nodes, arrows in _canonical_traces(domain, poly)
    ]


def _labels(states):
    return [(a[1], p[1]) for a, p in states]


def _label_cycles(domain: Domain, poly):
    return [
        _ridge_cycle(_labels(states), _labels(nodes), arrows)
        for states, nodes, arrows in _canonical_traces(domain, poly)
    ]


def ridge_cycles(pairings, polytope: Polytope24 | None = None):
    """The code's ridge cycles, over side labels; sorted by start state,
    which reproduces the published row order for 146928."""
    poly = polytope or build_polytope()
    return _label_cycles(base_domain(pairings, poly), poly)


def _letter_word(sym, pairings) -> MoebiusWord:
    """The word of the pairing named ``sym``: at its ``LETTERS`` index among
    a code's twelve pairings, else (cover pairings) looked up by name."""
    i = LETTER_INDEX.get(sym, len(pairings))
    if i < len(pairings) and pairings[i].name == sym:
        return pairings[i].word
    return {p.name: p.word for p in pairings}[sym]


def word_isometry(word, pairings) -> MoebiusWord:
    """The isometry of a word over pairing names (SidePairing or cover
    pairings), composed under the left-action convention."""
    matrices = []
    for sym, sign in word:
        w = _letter_word(sym, pairings)
        matrices.append((w if sign == 1 else letter_inverse(w)).matrix)
    return MoebiusWord(reduce(lorentz_mul, matrices or [LORENTZ_IDENTITY]))


# Ridge-cycle relator -> its isometry, filled by ``cycle_moebius_word`` under
# the flat key (word, sign, word, sign, ...) of the exact letter words passed
# in, never names or digits, so a corrupted word gets its own product.  The
# benchmark codes' 1,508 relators have 83 distinct products, interned once.
_RELATOR_ISOMETRIES = {}
_PRODUCTS = {}


def cycle_moebius_word(cycle: RidgeCycle, pairings) -> MoebiusWord:
    key = ()
    for sym, sign in cycle.relator:
        key += (_letter_word(sym, pairings), sign)
    word = _RELATOR_ISOMETRIES.get(key)
    if word is None:
        word = word_isometry(cycle.relator, pairings)
        word = _RELATOR_ISOMETRIES[key] = _PRODUCTS.setdefault(word, word)
    return word


@lru_cache(maxsize=None)
def _face_order(poly: Polytope24):
    """Edge-face indices by ascending sorted vertex pair."""
    faces = poly.edge_faces
    return tuple(sorted(range(len(faces)), key=lambda i: sorted(faces[i].vertices)))


def domain_orbits(domain: Domain, polytope: Polytope24 | None = None):
    """Orbits of the formal codimension-3 faces (sheet, vertex pair) under
    the domain's pairings; each orbit contributes one 3-handle.

    Members ascend by (sheet, sorted vertex pair) and orbits are ordered by
    their least member.
    """
    poly = polytope or build_polytope()
    faces = poly.edge_faces
    n = len(faces)
    parent = list(range(n * domain.sheets))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # A pairing's step at its target repeats its source step's unions
    # through the inverse table, so each pairing is unioned once.
    for (sheet, _label), (name, sign, image, mv) in domain.steps.items():
        if sign == -1:
            continue
        for i, j in mv.faces.items():
            if j is None:
                raise PoincareViolation(
                    f"pairing {name} maps an edge face off the face lattice"
                )
            rx, ry = find(sheet * n + i), find(image[0] * n + j)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

    orbits = {}
    for sheet in range(domain.sheets):
        for i in _face_order(poly):
            orbits.setdefault(find(sheet * n + i), []).append((sheet, faces[i].vertices))
    return [tuple(orbit) for orbit in orbits.values()]


def _label_orbits(domain: Domain, poly):
    return [tuple(face for _sheet, face in orbit) for orbit in domain_orbits(domain, poly)]


def edge_classes(pairings, polytope: Polytope24 | None = None):
    """The code's edge-face orbits, as tuples of EdgeFace keys (vertex
    pairs), in the order of ``domain_orbits``."""
    poly = polytope or build_polytope()
    return _label_orbits(base_domain(pairings, poly), poly)


def presentation(pairings, cycles) -> "groups.Presentation":
    """Generators a..l, one relator per ridge cycle."""
    return groups.Presentation(
        generators=tuple(p.letter for p in pairings),
        relators=tuple(c.relator for c in cycles),
    )


class ValidationReport:
    def __init__(self, code: str):
        self.code = code
        self.ok = False
        self.checks = []
        self.cycle_lengths = {}

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append((name, passed, detail))

    def render(self) -> str:
        lines = [f"code {self.code}: {'PASS' if self.ok else 'FAIL'}"]
        for name, passed, detail in self.checks:
            mark = "ok " if passed else "FAIL"
            lines.append(f"  [{mark}] {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)


def check_gluing(pairings, report: ValidationReport, domain: Domain | None = None,
                 polytope: Polytope24 | None = None):
    """Add the manifold gluing checks of the pairings to ``report``: ridge
    cycles of length 4 partitioning the ridges, identity relators killed by
    the orientation character, edge-face orbits of 8.  ``domain`` is the
    pairings' base domain, built here when not given.  Returns (whether all
    of them pass, the ridge cycles, the edge-face orbits), over side
    labels."""
    poly = polytope or build_polytope()
    eps = orientation_character(pairings)
    if domain is None:
        domain = base_domain(pairings, poly)
    cycles = _label_cycles(domain, poly)
    lengths = report.cycle_lengths = dict(Counter(len(c) for c in cycles))
    covered = frozenset().union(*(c.ridges for c in cycles))
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
    identity_ok = all(cycle_moebius_word(c, pairings).is_identity() for c in cycles)
    report.add("cycle relators are identity isometries", identity_ok)
    eps_ok = all(eps_of_word(c.relator, eps) == 1 for c in cycles)
    report.add("orientation character kills every relator", eps_ok)

    orbits = _label_orbits(domain, poly)
    sizes = sorted(len(o) for o in orbits)
    # The link of a right-angled edge is the 8 octants of a 3-ball.
    orbit_ok = sum(sizes) == len(poly.edge_faces) and set(sizes) == {8}
    report.add(
        "edge-face orbits",
        orbit_ok,
        f"{len(orbits)} orbits (3-handles), sizes {sizes}",
    )
    return cycles_ok and identity_ok and eps_ok and orbit_ok, cycles, orbits


def require_manifold(pairings, domain: Domain | None = None,
                     polytope: Polytope24 | None = None):
    """Raise PoincareViolation naming the first gluing check the pairings
    fail (the checks of ``validate``); otherwise return the checked ridge
    cycles and edge-face orbits of their base domain."""
    report = ValidationReport(code="")
    ok, cycles, orbits = check_gluing(pairings, report, domain, polytope)
    if not ok:
        name, _passed, detail = next(c for c in report.checks if not c[1])
        raise PoincareViolation(
            f"not a manifold gluing: the {name} check fails"
            + (f" ({detail})" if detail else "")
        )
    return cycles, orbits


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
        # build_pairings raises InvalidCode unless every pairing carries its
        # source sphere to its target sphere.
        pairings = build_pairings(kvecs, poly)
        report.add("pairings", True, "12 side pairings, spheres map exactly")
        report.ok = check_gluing(pairings, report, polytope=poly)[0]
    except ParseError:
        raise
    except CensusError as exc:
        report.add(type(exc).__name__, False, str(exc))
        report.ok = False
    return report
