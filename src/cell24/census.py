"""Side-pairing codes for the ideal 24-cell: decoding, pairings, ridge
cycles, edge-face orbits, and the resulting fundamental-group presentation.

A code is six hex digits, one per family of parallel side spheres.  Digit d
encodes the sign-diagonal part k of that family's pairings: coordinate j of
k is -1 exactly when bit (j-1) of d is set (coordinate 1 is the least
significant bit).  This bit order is pinned by requiring the decoded vectors
of the reference code 146928 to reproduce the published pairing display; a
regression test enforces it.

Ridge cycles (2-handles) and edge-face orbits (3-handles) come from one
engine over the step table of a sheeted domain (``Domain``): one-sheet steps
fill a code's family pair and triple tables, and cover builds the two-sheet
double cover.  Every domain's come in one form, over formal sides (sheet,
label) and faces (sheet, vertex pair).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, reduce
from operator import itemgetter
from typing import NamedTuple

from . import groups
from .moebius import LORENTZ_IDENTITY, MoebiusWord, diagonal, lorentz_mul, reflection
from .polytope import SIDE_INDEX, Polytope24, Side, build_polytope


class CensusError(Exception):
    pass


class ParseError(CensusError):
    """Malformed code text (not six hex digits)."""


class GluingLetterError(ValueError):
    """A gluing letter that is not an orientation-reversing letter of the code."""


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

# Digit d -> its sign vector k: coordinate j is -1 exactly when bit j is set.
_KVECTORS = tuple(tuple(-1 if d >> j & 1 else 1 for j in range(4)) for d in range(16))
# ASCII hex digits only: int(ch, 16) also reads any Unicode decimal digit.
_HEX = {ch: int(ch, 16) for ch in "0123456789abcdefABCDEF"}


def parse_code(text: str):
    """Decode six hex digits into six sign vectors, one per family."""
    if not isinstance(text, str) or len(text) != 6:
        raise ParseError(f"code must be exactly six hex digits, got {text!r}")
    digits = [_HEX.get(ch) for ch in text]
    if None in digits:
        raise ParseError(f"code must be hex digits, got {text!r}")
    kvecs = []
    for digit, (letters, support) in zip(digits, FAMILIES):
        if digit == 0:
            raise InvalidCode(f"digit 0 for family {letters} is the identity and fixes "
                              "every centre of the family")
        k = _KVECTORS[digit]
        if k[support[0]] == k[support[1]] == 1:
            raise InvalidCode(f"digit {digit:x} fixes the centres of family {letters}")
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

    A family's two pairings depend on nothing but its digit: they are built
    once per (polytope, family index, k), into the family's record, and
    every code with that digit shares them.  Only a list of the records'
    own pairings reaches the census tables.  A raised InvalidCode makes no
    record.
    """
    poly = polytope or build_polytope()
    records = _records(poly)[0]
    pairings = []
    for index, k in zip(range(len(FAMILIES)), map(tuple, kvecs)):
        record = records.get((index, k)) or _new_record(poly, index, k)
        pairings += record.pairings
    return pairings


def _new_record(poly: Polytope24, index: int, k: tuple):
    """Build family ``index``'s pairings for sign vector k into its record."""
    letters, support = FAMILIES[index]
    family_sides = [
        s for s in poly.sides.values()
        if all((s.center[j] != 0) == (j in support) for j in range(4))
    ]
    first_flip = next(j for j in support if k[j] == -1)
    sources = sorted((s for s in family_sides if s.center[first_flip] == 1),
                     key=lambda s: s.center, reverse=True)
    pairings = []
    for letter, src in zip(letters, sources):
        tgt_center = tuple(sign * c for sign, c in zip(k, src.center))
        tgt = next(s for s in family_sides if s.center == tgt_center)
        # Reflection in the image side composed with the diagonal map,
        # diagonal applied first.
        word = MoebiusWord(lorentz_mul(reflection(poly.side_vectors[tgt.label]), diagonal(k)))
        if poly.side_image(word.matrix, src.label) != tgt.label:
            raise InvalidCode(f"pairing {letter} does not carry its source sphere to "
                              "its target sphere")
        pairings.append(SidePairing(letter, src, tgt, k, word))
    by_digit, by_ids = _records(poly)
    record = by_digit[index, k] = by_ids[(index, *map(id, pairings))] = _Record(pairings, poly)
    return record


@lru_cache(maxsize=None)
def _records(poly: Polytope24):
    """The family records ``build_pairings`` made on the polytope, by digit
    (family index, k) and by (family index, ids of its two pairings)."""
    return {}, {}


class _Record:
    """A family's two pairings, with its one-sheet steps, made on first
    use, and each triple table's local face pairs (``_orbit_entry``).  It
    keeps its pairings alive, so their ids stay its key."""

    def __init__(self, pairings, poly):
        self.pairings, self.faces, self._poly = tuple(pairings), {}, poly

    @cached_property
    def steps(self):
        pairs = [(p.letter, (0, p.source.label), (0, p.target.label)) for p in self.pairings]
        return sheeted_domain(pairs, _read_moves(self.pairings, self._poly)).steps


def _table_records(pairings, poly):
    """The six family records when ``pairings`` are their very pairings,
    family f's two at places 2f and 2f + 1 (found by id, no matrix hashed);
    else None."""
    if len(pairings) == 12:
        ids = map(id, pairings)
        found = list(map(_records(poly)[1].get, zip(range(len(FAMILIES)), ids, ids)))
        if None not in found:
            return found
    return None


def orientation_character(pairings) -> dict:
    """letter -> +1/-1.  The reflection part of a pairing reverses
    orientation, so the pairing preserves it iff its k-part has an odd
    number of -1 entries."""
    return {p.letter: 1 if p.kpart.count(-1) % 2 == 1 else -1 for p in pairings}


def eps_of_word(word, eps) -> int:
    sign = 1
    for sym, _sign in word:
        sign *= eps[sym]
    return sign


class Move(NamedTuple):
    """The unique pairing move leaving a given side: the pairing whose source
    it is, or the inverse of the pairing whose target it is.

    ``sides``, ``vertices`` and ``faces`` are the move's exact action on
    the faces at its side, read off its own word's Lorentz matrix
    (``Polytope24.action``): side label -> image side label for the sides
    meeting it in a ridge, vertex index -> image vertex index for the ideal
    vertices on it, and edge-face index -> image edge-face index for the
    edge faces on it, with None for an image outside the side, vertex or
    edge-face lattice.  A family record reads its four once, on first use.
    """

    letter: str
    sign: int
    sides: dict
    vertices: dict
    faces: dict


def moves_by_side(pairings, polytope: Polytope24 | None = None):
    """The move leaving each side label: merged from the family records for
    a list ``build_pairings`` made, else read off the words."""
    poly = polytope or build_polytope()
    found = _table_records(pairings, poly)
    moves = _read_moves(pairings, poly) if found is None else {
        label: step[3] for record in found for (_sheet, label), step in record.steps.items()
    }
    if len(moves) != 24:
        raise InvalidCode("pairings do not cover the 24 sides as source/target")
    return moves


def _read_moves(pairings, poly):
    """The moves leaving the pairings' sources and targets, by side label."""
    moves = {}
    for p in pairings:
        for sign, label, word in ((1, p.source.label, p.word),
                                  (-1, p.target.label, letter_inverse(p.word))):
            moves[label] = Move(p.letter, sign, *poly.action(label, word.matrix))
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
    formal sides (sheet, label), on sheet 0 for the code's own cycles.
    """

    __slots__ = ("nodes", "arrows", "relator", "ridges", "letters", "isometry")

    def __init__(self, nodes, arrows, relator, ridges):
        self.nodes = nodes        # ((a, p), ...) side pairs, length = cycle length
        self.arrows = arrows      # ((name, sign), ...)
        self.relator = relator    # Word: ((name, sign), ...)
        self.ridges = ridges      # frozenset of the unordered ridges visited
        self.letters = ()         # census tables: ((LETTERS index, SidePairing), ...)
        self.isometry = None      # and the relator's isometry folded from them

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
            raise PoincareViolation(f"pairing {name} maps side {passive[1]} off the side lattice")
        if not poly.adjacent(image[1], partner):
            raise PoincareViolation(f"image pair {image[1]},{partner} is not a ridge")
        partner = (image[0], partner)
        arrows.append((name, sign))
        state = (partner, image)
        slots = (image if slots[0] == active else partner,
                 partner if slots[1] == passive else image)
        if state == start:
            break
        if len(states) > 8 * len(steps):
            raise PoincareViolation("ridge traversal failed to close")
    return states, nodes, arrows


def _canonical_traces(steps, poly, starts):
    """(position, trace) of each ridge cycle, traced from its canonical start.

    Canonical start: the least state among the cycle's states and its
    reverse's.  The reverse traversal visits exactly the swapped states
    (the move leaving an image side is the inverse move), so scanning the
    sorted states and skipping every state seen in either direction meets
    each cycle first at its canonical start.
    """
    seen = set()
    traces = []
    for pos, start in starts:
        if start in seen:
            continue
        trace = _trace(start, steps, poly)
        seen.update(trace[0])
        seen.update((p, a) for a, p in trace[0])
        traces.append((pos, trace))
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
        for _pos, (states, nodes, arrows) in _canonical_traces(
            domain.steps, poly, enumerate(_ridge_states(poly, domain.sheets)))
    ]


@lru_cache(maxsize=None)
def _local_tables(poly: Polytope24):
    """(Tables by kind, interned values and triple entries), empty until
    codes fill them.  Sign diagonals keep each family's support, so a ridge
    cycle depends only on its two families' pairings and an edge-face orbit
    on its three's.  A table is (families, key of their records, layout of
    (position, state or face) items, entries by the families' records)."""
    family = {s.label: [f for _letters, f in FAMILIES].index(
        tuple(j for j in range(4) if s.center[j])) for s in poly.sides.values()}

    def tables(items):
        layouts = {}
        for families, item in items:
            layouts.setdefault(tuple(sorted(set(families))), []).append(item)
        return [(fs, itemgetter(*fs), layout, {}) for fs, layout in layouts.items()]

    faces, states = poly.edge_faces, enumerate(_ridge_states(poly, 1))
    return {
        "pairs": tables(((family[a[1]], family[p[1]]), (pos, (a, p))) for pos, (a, p) in states),
        "triples": tables(([family[label] for label in faces[i].sides], (pos, i))
                          for pos, i in enumerate(_face_order(poly))),
    }, {}


def _assemble(pairings, poly, kind, fill, scan):
    """The entries in the ``kind`` tables of a list ``build_pairings`` made,
    filled as needed, merged; any other list's ``scan`` of its base domain."""
    found = _table_records(pairings, poly)
    if found is None:
        return scan(base_domain(pairings, poly), poly)
    tables, values = _local_tables(poly)
    items = []
    for families, key, layout, entries in tables[kind]:
        entry = entries.get(key(found))
        if entry is None:
            entry = entries[key(found)] = fill(found, families, layout, poly, values)
        items += entry
    return [value for _pos, value in sorted(items)]  # positions are distinct


def _cycle_entry(found, families, starts, poly, values):
    """Each cycle shares its parts, built once per distinct trace, with equal
    traces of other entries, but is the entry's own: it keeps its relator's
    isometry, folded once from the entry's pairings, and those pairings."""
    steps = {side: step for f in families for side, step in found[f].steps.items()}
    by_letter = {p.letter: p for f in families for p in found[f].pairings}
    intern, entry = values.setdefault, []
    for pos, (states, nodes, arrows) in _canonical_traces(steps, poly, starts):
        key = (tuple(nodes), tuple(arrows))
        shared = values.get(key)
        if shared is None:
            parts = (map(frozenset, states), *key)
            shared = values[key] = _ridge_cycle(*([intern(x, x) for x in xs] for xs in parts))
        cycle = RidgeCycle(shared.nodes, shared.arrows, shared.relator, shared.ridges)
        used = dict.fromkeys(sym for sym, _sign in cycle.relator)
        word = _fold(cycle.relator, lambda sym: by_letter[sym].word)
        cycle.letters = tuple(intern(x, x) for x in ((LETTER_INDEX[s], by_letter[s]) for s in used))
        cycle.isometry = intern(word, word)
        entry.append((pos, cycle))
    return tuple(entry)


def ridge_cycles(pairings, polytope: Polytope24 | None = None):
    """The code's ridge cycles, as ``domain_cycles`` gives them on its base
    domain: sorted by start state, the published row order for 146928."""
    return _assemble(pairings, polytope or build_polytope(), "pairs", _cycle_entry, domain_cycles)


def word_isometry(word, pairings) -> MoebiusWord:
    """The isometry of a word over pairing names (SidePairing or cover
    pairings), composed under the left-action convention.  Each name's
    word is looked up by name: the last pairing of a name wins, and no
    caller passes a list that gives one name two different words."""
    return _fold(word, {p.name: p.word for p in pairings}.__getitem__)


def _fold(word, word_of) -> MoebiusWord:
    """The isometry of a word, given the word of each pairing name."""
    words = [word_of(sym) if sign == 1 else letter_inverse(word_of(sym)) for sym, sign in word]
    return MoebiusWord(reduce(lorentz_mul, [w.matrix for w in words] or [LORENTZ_IDENTITY]))


def cycle_moebius_word(cycle: RidgeCycle, pairings) -> MoebiusWord:
    """The isometry of the cycle's relator over ``pairings``: the product
    the census table stored when every pairing it was folded from is the
    very object at its ``LETTERS`` index of ``pairings``, else a fresh fold
    (cover cycles, value-equal copies, corrupted words)."""
    word = cycle.isometry
    for i, p in cycle.letters:
        if i >= len(pairings) or pairings[i] is not p:
            word = None
    return word or word_isometry(cycle.relator, pairings)


@lru_cache(maxsize=None)
def _face_order(poly: Polytope24):
    """Edge-face indices by ascending sorted vertex pair: vertex indices
    descend by value, so by descending index pair, comparing no Fraction."""
    faces = poly.edge_faces
    return tuple(sorted(range(len(faces)), key=lambda i: (-faces[i].ends[1], -faces[i].ends[0])))


def domain_orbits(domain: Domain, polytope: Polytope24 | None = None):
    """Orbits of the formal codimension-3 faces (sheet, vertex pair) under
    the domain's pairings; each orbit contributes one 3-handle.

    Members ascend by (sheet, sorted vertex pair) and orbits are ordered by
    their least member.
    """
    poly = polytope or build_polytope()
    edge, order = poly.edge_faces, _face_order(poly)
    faces = [(sheet, i) for sheet in range(domain.sheets) for i in order]
    at = {sheet * len(edge) + i: x for x, (sheet, i) in enumerate(faces)}
    partition = _partition(len(faces), _face_pairs(domain.steps, at, len(edge)))
    return _orbits(partition, [(sheet, edge[i].vertices) for sheet, i in faces])


def _face_pairs(steps, at, n):
    """(position, image's position) of each formal face sheet * n + i placed
    by ``at``, on each pairing's source side (its target step repeats them)."""
    pairs = []
    for (sheet, _label), (name, sign, image, mv) in steps.items():
        for i, j in mv.faces.items() if sign == 1 else ():
            if sheet * n + i in at:
                if j is None:
                    raise PoincareViolation(f"pairing {name} maps an edge face off the face lattice")
                pairs.append((at[sheet * n + i], at[image[0] * n + j]))
    return tuple(pairs)


def _partition(size, pairs):
    """The least position of each position's orbit under the unions of
    ``pairs``: a root joins the lesser root, so no parent exceeds its child."""
    parent = list(range(size))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[x if y < x else y] = y if y < x else x
    for x in range(size):
        parent[x] = parent[parent[x]]
    return tuple(parent)


def _orbits(partition, members):
    """The members of each orbit in position order, by least position."""
    orbits = {}
    for least, member in zip(partition, members):
        orbits.setdefault(least, []).append(member)
    return [tuple(orbit) for orbit in orbits.values()]


def _orbit_entry(found, families, layout, poly, values):
    """A triple's orbits: a union over its local positions by the face pairs
    its records keep for it, one entry per distinct partition."""
    pairs = ()
    for f in families:
        if families not in found[f].faces:
            at = {i: x for x, (_pos, i) in enumerate(layout)}
            found[f].faces[families] = _face_pairs(found[f].steps, at, len(poly.edge_faces))
        pairs += found[f].faces[families]
    partition = _partition(len(layout), pairs)
    entry = values.get((families, partition))
    if entry is None:
        orbits = _orbits(partition, [(pos, (0, poly.edge_faces[i].vertices)) for pos, i in layout])
        entry = values[families, partition] = tuple(
            (o[0][0], tuple(face for _pos, face in o)) for o in orbits)
    return entry


def edge_classes(pairings, polytope: Polytope24 | None = None):
    """The code's edge-face orbits, as ``domain_orbits`` gives them on its
    base domain: tuples of formal faces (0, vertex pair)."""
    poly = polytope or build_polytope()
    return _assemble(pairings, poly, "triples", _orbit_entry, domain_orbits)


def presentation(pairings, cycles) -> "groups.Presentation":
    """Generators a..l, one relator per ridge cycle."""
    return groups.Presentation(generators=tuple(p.letter for p in pairings),
                               relators=tuple(c.relator for c in cycles))


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


def check_gluing(pairings, report: ValidationReport, polytope: Polytope24 | None = None):
    """Add the manifold gluing checks of the pairings to ``report``: ridge
    cycles of length 4 partitioning the ridges, identity relators killed by
    the orientation character, edge-face orbits of 8.  Returns (whether all
    of them pass, the ridge cycles, the edge-face orbits), as
    ``ridge_cycles`` and ``edge_classes`` give them."""
    poly = polytope or build_polytope()
    eps = orientation_character(pairings)
    cycles = ridge_cycles(pairings, poly)
    lengths = report.cycle_lengths = dict(Counter(len(c) for c in cycles))
    covered = frozenset().union(*(c.ridges for c in cycles))
    # A right-angled ridge closes up after exactly four dihedral angles.
    cycles_ok = (sum(len(c.ridges) for c in cycles) == len(poly.ridges)
                 and len(covered) == len(poly.ridges) and set(lengths) == {4})
    report.add("ridge cycles", cycles_ok,
               f"{len(cycles)} cycles, lengths {lengths}, ridges partitioned")
    identity_ok = all(cycle_moebius_word(c, pairings).is_identity() for c in cycles)
    report.add("cycle relators are identity isometries", identity_ok)
    eps_ok = all(eps_of_word(c.relator, eps) == 1 for c in cycles)
    report.add("orientation character kills every relator", eps_ok)

    orbits = edge_classes(pairings, poly)
    sizes = sorted(len(o) for o in orbits)
    # The link of a right-angled edge is the 8 octants of a 3-ball.
    orbit_ok = sum(sizes) == len(poly.edge_faces) and set(sizes) == {8}
    report.add("edge-face orbits", orbit_ok, f"{len(orbits)} orbits (3-handles), sizes {sizes}")
    return cycles_ok and identity_ok and eps_ok and orbit_ok, cycles, orbits


def require_manifold(pairings, polytope: Polytope24 | None = None):
    """Raise PoincareViolation naming the first gluing check the pairings
    fail (the checks of ``validate``); otherwise return the checked ridge
    cycles and edge-face orbits of their base domain."""
    report = ValidationReport(code="")
    ok, cycles, orbits = check_gluing(pairings, report, polytope)
    if not ok:
        name, _passed, detail = next(c for c in report.checks if not c[1])
        raise PoincareViolation(f"not a manifold gluing: the {name} check fails"
                                + (f" ({detail})" if detail else ""))
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
