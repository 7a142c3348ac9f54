from fractions import Fraction
from itertools import permutations

import pytest

import moebius_oracle as oracle
import reference_tables as rt
from conftest import side_vertices
from cell24 import census, cover, groups
from cell24.groups import word_from_str
from cell24.polytope import SIDE_CENTERS


def wall_pairing(dc):
    (wall,) = dc.domain.walls
    return next(p for p in dc.pairings if p.name == wall)


def test_cover_structure(double_cover):
    assert len(double_cover.boundary_sides) == 46
    nontrivial = [p for p in double_cover.pairings if p.base_word]
    assert len(nontrivial) == 23
    wall = wall_pairing(double_cover)
    assert wall.name == "g⁻¹g"
    assert wall.word.is_identity()
    assert wall.source == (0, "G") and wall.target == (1, "G'")


def test_pairing_rules(double_cover):
    by_name = {p.name: p for p in double_cover.pairings}
    e = by_name["g⁻¹e"]
    assert e.source == (0, "E") and e.target == (1, "E'")
    back = by_name["eg"]
    assert back.source == (1, "E") and back.target == (0, "E'")
    aa = by_name["g⁻¹ag"]
    assert aa.source == (1, "A") and aa.target == (1, "A'")
    gg = by_name["gg"]
    assert gg.source == (1, "G") and gg.target == (0, "G'")


def test_alpha_must_reverse(pairings, eps):
    with pytest.raises(ValueError):
        cover.build_double_cover(pairings, eps, "a")


def test_cover_words_map_spheres(double_cover):
    # Each pairing word carries the six ideal vertices of the source side
    # (as a subset of the doubled domain, whose sheet 1 is the copy
    # alpha^-1(P)) onto those of the target side, and its matrix is the
    # fold of its base word.
    from cell24.polytope import build_polytope

    poly = build_polytope()
    alpha_inv = ((double_cover.alpha, -1),)
    base = double_cover.base_pairings

    def vertices_of(side):
        sheet, label = side
        vs = side_vertices(poly, label)
        if sheet == 0:
            return set(vs)
        return {oracle.word_point(alpha_inv, base, v) for v in vs}

    for p in double_cover.pairings:
        base_word = p.base_word
        images = {oracle.word_point(base_word, base, v) for v in vertices_of(p.source)}
        assert images == vertices_of(p.target)
        assert p.word == census.word_isometry(base_word, base)


def test_cover_pairings_preserve_orientation(double_cover, eps):
    for p in double_cover.pairings:
        assert census.eps_of_word(p.base_word, eps) == 1


def test_cover_cycle_counts(cover_cycles):
    assert len(cover_cycles) == 48
    assert all(len(c) == 4 for c in cover_cycles)


def test_cover_cycles_partition(cover_cycles):
    ridges = [r for c in cover_cycles for r in c.ridges]
    assert len(ridges) == 192
    assert len(set(ridges)) == 192


def test_cover_table_matches_published(double_cover):
    mismatches = rt.check_cover_table(double_cover)
    assert sorted(mismatches) == [28, 44, 46]
    for row in mismatches:
        assert ("cover", row) in rt.KNOWN_TYPOS


def test_cover_rows_1_2_25_literal(double_cover, cover_cycles):
    by_start = {c.nodes[0]: c for c in cover_cycles}

    def check(row_number):
        text = rt.COVER_CYCLE_ROWS[row_number - 1]
        nodes, _ = rt.parse_row(text)
        start = (nodes[0][0], nodes[0][1])
        cycle = by_start.get(start)
        assert cycle is not None, f"row {row_number} start {start} is not canonical"
        assert rt.compare_row(text, cycle.nodes, cycle.arrows) == []

    check(1)
    check(2)
    check(25)


def test_cover_relators_are_identity(double_cover, cover_cycles):
    for c in cover_cycles:
        assert census.word_isometry(c.relator, double_cover.pairings).is_identity()


def test_cover_presentation_counts(double_cover, cover_cycles):
    pres = cover.cover_presentation(double_cover, cover_cycles)
    assert len(pres.generators) == 23
    assert len(pres.relators) == 48


def test_cover_presentation_equals_rewriting(
    double_cover, cover_cycles, base_presentation, eps
):
    geometric = cover.cover_presentation(double_cover, cover_cycles)
    algebraic = groups.rs_double_cover(base_presentation, eps, "g")
    assert geometric.generators == algebraic.generators
    assert groups.abelianization(geometric) == groups.abelianization(algebraic)

    def canon(word):
        forms = set()
        for k in range(len(word)):
            rot = word[k:] + word[:k]
            forms.add(rot)
            forms.add(groups.word_inverse(rot))
        return min(forms)

    assert sorted(map(canon, geometric.relators)) == sorted(
        map(canon, algebraic.relators)
    )


def test_lift_filling_words(double_cover):
    lifted = cover.lift_filling_words(
        [word_from_str("c"), word_from_str("EheH")], double_cover
    )
    assert lifted[0] == (("c", 1),)
    assert lifted[1] == (
        ("g⁻¹e", -1),
        ("g⁻¹h", 1),
        ("eg", 1),
        ("hg", -1),
    )
    with pytest.raises(groups.GroupError):
        cover.lift_filling_words([word_from_str("e")], double_cover)


def test_cover_layout(double_cover):
    # Each coordinate a + b sqrt(2) is the pair (a, b).
    half = Fraction(1, 2)
    assert cover.cover_layout((0, "A"), double_cover) == ((0, half), (0, half), (0, 0))
    assert cover.cover_layout((1, "A"), double_cover) == ((6, half), (0, half), (0, 0))
    assert cover.cover_layout((0, "G"), double_cover) == ((1, 1), (0, 0), (0, 0))


def test_cover_layout_injective_and_mirrored(double_cover):
    seen = {}
    for side in double_cover.sides:
        pos = cover.cover_layout(side, double_cover)
        assert pos not in seen.values()
        seen[side] = pos
    # sheet-0 positions lie strictly left of the mirror plane x = 3,
    # sheet-1 positions strictly right; mirroring maps one onto the other.
    # x = a + b sqrt(2) < 3 iff d = 3 - a exceeds b sqrt(2); when d and b
    # have the same sign this is decided by comparing d^2 with 2 b^2.
    def left_of_mirror(a, b):
        d = 3 - a
        if d >= 0 and b <= 0:
            return (d, b) != (0, 0)
        if d <= 0 and b >= 0:
            return False
        return (d * d > 2 * b * b) == (d > 0)

    for (sheet, _label), pos in seen.items():
        assert left_of_mirror(*pos[0]) == (sheet == 0)


def test_position_formula_matches_published():
    # The published 1-handle positions are the reference the formula must
    # equal on every side.
    for label, (center, coords) in rt.SIDE_TABLE.items():
        assert SIDE_CENTERS[label] == center
        expected = tuple((Fraction(a), Fraction(b)) for a, b in coords)
        assert cover.position(center) == expected, label


def test_cover_edge_classes(double_cover):
    from cell24.polytope import build_polytope

    orbits = census.domain_orbits(double_cover.domain)
    assert len(orbits) == 24
    assert sum(len(o) for o in orbits) == 192
    # Every orbit is closed under the cover pairing words, acting on the
    # doubled domain whose sheet 1 is the copy alpha^-1(P).
    poly = build_polytope()
    base = double_cover.base_pairings
    alpha = ((double_cover.alpha, 1),)
    alpha_inv = ((double_cover.alpha, -1),)
    orbit_of = {face: k for k, orbit in enumerate(orbits) for face in orbit}
    for p in double_cover.pairings:
        base_word = p.base_word
        for (sheet, label), (image_sheet, _), word in (
            (p.source, p.target, base_word),
            (p.target, p.source, groups.word_inverse(base_word)),
        ):
            for face in poly.edge_faces:
                if label not in face.sides:
                    continue
                moved = (
                    oracle.word_point(
                        word, base, v if sheet == 0 else oracle.word_point(alpha_inv, base, v)
                    )
                    for v in face.vertices
                )
                image = frozenset(
                    q if image_sheet == 0 else oracle.word_point(alpha, base, q) for q in moved
                )
                assert orbit_of[(image_sheet, image)] == orbit_of[(sheet, face.vertices)]


def test_other_reversing_letters_build(pairings, eps):
    dc = cover.build_double_cover(pairings, eps, "e")
    cycles = cover.cover_ridge_cycles(dc)
    assert len(cycles) == 48
    pres = cover.cover_presentation(dc, cycles)
    assert len(pres.generators) == 23
    # The layout moves e's source side E to G, and mirrors the wall.
    wall = wall_pairing(dc)
    assert wall.source == (0, "E")
    assert cover.cover_layout(wall.source, dc) == cover.position(SIDE_CENTERS["G"])
    assert cover.cover_layout(wall.target, dc) == cover.reflect_x(cover.position(SIDE_CENTERS["G"]))
    assert len({cover.cover_layout(side, dc) for side in dc.sides}) == 48


S3 = tuple(permutations(range(3)))


def _s3_actions(p):
    """Hom(pi_1, S_3) as actions {letter: perm}, assigned letter by letter and
    pruned on each relator once its last letter is assigned."""
    due = {x: [r for r in p.relators if max(p.generators.index(y) for y, _ in r) == i]
           for i, x in enumerate(p.generators)}
    found, action = [], {}

    def extend(i):
        if i == len(p.generators):
            found.append(dict(action))
            return
        x = p.generators[i]
        for perm in S3:
            action[x] = perm
            if all(groups.act(r, action, s) == s for r in due[x] for s in range(3)):
                extend(i + 1)
        del action[x]

    extend(0)
    return found


def _transitive_classes(gens, actions):
    """One action per class of transitive actions up to relabelling the
    sheets: the least of its relabellings, letters in ``gens`` order."""
    classes = set()
    for action in actions:
        if len(_schreier_transversal(gens, action)) == 3:
            classes.add(min(tuple(tuple(sg[action[x][sg.index(t)]] for t in range(3)) for x in gens)
                            for sg in S3))
    return [dict(zip(gens, perms)) for perms in sorted(classes)]


def _schreier_transversal(gens, action):
    """Breadth-first over the sheets reached from 0: T(t) = x T(s) for the
    first letter x reaching a new sheet t from the earliest sheet s, so
    every tail of a word is one."""
    words, queue = {0: ()}, [0]
    for s in queue:
        for x in gens:
            t = action[x][s]
            if t not in words:
                words[t] = ((x, 1),) + words[s]
                queue.append(t)
    return tuple(words[s] for s in sorted(words))


@pytest.mark.parametrize("code, homs, classes", [
    ("146928", 696, 111), ("ef276c", 732, 91), ("2bec36", 636, 75),
])
def test_index_3_rewriting_equals_geometric_cover(code, homs, classes):
    # For every conjugacy class of index-3 subgroups, the 3-sheet domain and
    # the Reidemeister-Schreier rewrite name the same generators in the same
    # order and have equal H1, and the domain has chi = 3 chi(base) = 3:
    # sheets - pairings + ridge cycles - edge-face orbits.
    pairings = census.build_pairings(census.parse_code(code))
    base = census.presentation(pairings, census.require_manifold(pairings)[0])
    actions = _s3_actions(base)
    representatives = _transitive_classes(base.generators, actions)
    assert (len(actions), len(representatives)) == (homs, classes)
    for action in representatives:
        transversal = _schreier_transversal(base.generators, action)
        algebraic = groups.rs_subgroup(base, action, transversal)
        three = cover.build_cover(pairings, action, transversal)
        assert len(three.domain.walls) == 2  # a spanning tree of the sheets
        cycles = cover.cover_ridge_cycles(three)
        geometric = cover.cover_presentation(three, cycles)
        assert geometric.generators == algebraic.generators
        assert groups.abelianization(geometric) == groups.abelianization(algebraic)
        orbits = census.domain_orbits(three.domain)
        assert 3 - len(three.domain.pairs) + len(cycles) - len(orbits) == 3
