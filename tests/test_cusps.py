from fractions import Fraction

import reference_tables as rt
from cell24 import census, cusps, flat3
from cell24.groups import word_from_str, word_str
from cell24.moebius import TRANSLATION, classify_parabolic, vec


def test_five_classes(cusp_classes):
    assert len(cusp_classes) == 5
    assert sum(len(c) for c in cusp_classes) == 24
    sizes = sorted(len(c) for c in cusp_classes)
    assert sizes == [2, 2, 2, 2, 16]


def test_class_membership(cusp_classes):
    by_rep = {c.representative: c for c in cusp_classes}
    half = by_rep[vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
    assert len(half) == 16
    assert all(all(abs(x) == Fraction(1, 2) for x in v) for v in half.vertices)
    zpair = by_rep[vec(0, 0, 1, 0)]
    assert set(zpair.vertices) == {vec(0, 0, 1, 0), vec(0, 0, -1, 0)}
    # the published table's vertex pairs all appear as classes
    for members, _word in rt.FILLING_TABLE[:-1]:
        reps = {frozenset(vec(*m) for m in members)}
        assert any(frozenset(c.vertices) in reps for c in cusp_classes)


def test_tree_words_move_vertices(pairings, cusp_classes):
    for cls in cusp_classes:
        for v, word in cls.tree_words.items():
            assert census.word_isometry(word, pairings).point(v) == cls.representative


def test_stabilizer_generators_fix_representative(pairings, stabilizers):
    for stab in stabilizers:
        assert stab.generators
        for _word, moebius in stab.generators:
            assert moebius.point(stab.cusp.representative) == stab.cusp.representative


def test_letter_a_in_stabilizer(stabilizers):
    stab = next(
        s for s in stabilizers if s.cusp.representative == vec(0, 1, 0, 0)
    )
    words = {w for w, _ in stab.generators}
    assert word_from_str("a") in words


def test_translation_c_found(pairings, stabilizers):
    choices = cusps.find_filling_translations(pairings, stabilizers)
    by_rep = {c.cusp.representative: c for c in choices}
    assert by_rep[vec(1, 0, 0, 0)].chosen == word_from_str("c")
    assert by_rep[vec(0, 1, 0, 0)].chosen == word_from_str("a")
    assert by_rep[vec(0, 0, 1, 0)].chosen == word_from_str("k")
    assert by_rep[vec(0, 0, 0, 1)].chosen == word_from_str("i")
    half = by_rep[vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
    assert half.chosen is not None
    assert len(half.chosen) <= 4


def test_canonical_fillings_validate(pairings, cusp_classes):
    fills = cusps.canonical_fillings(pairings, cusp_classes)
    assert [word_str(f.word) for f in fills] == ["c", "EheH", "a", "k", "i"]
    for f in fills:
        assert f.classification == TRANSLATION
        assert f.fixed_vertex in f.cusp.vertices


def test_published_alternate_j(pairings, cusp_classes):
    alts = cusps.published_alternate_fillings(pairings, cusp_classes)
    assert len(alts) == 1
    alt = alts[0]
    assert word_str(alt.word) == "j"
    assert alt.cusp.representative == vec(0, 0, 0, 1)
    assert alt.classification == TRANSLATION


def test_half_cusp_word_is_translation(pairings):
    word = census.word_isometry(word_from_str("EheH"), pairings)
    fixed = vec(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert word.point(fixed) == fixed
    assert classify_parabolic(word, fixed) == TRANSLATION


def test_cusp_invariants(pairings, eps, stabilizers):
    invs = [cusps.cusp_invariants(s, pairings, eps) for s in stabilizers]
    assert all(not inv.orientable for inv in invs)
    tuples = [
        (inv.orientable, inv.holonomy_order, inv.h1_torsion, inv.h1_rank)
        for inv in invs
    ]
    # four cusps share one invariant tuple, the fifth differs
    from collections import Counter

    counts = Counter(tuples)
    assert sorted(counts.values()) == [1, 4]
    labels = sorted(inv.label for inv in invs)
    assert labels == ["B1", "B1", "B1", "B1", "B2"]
    half = next(
        inv
        for inv in invs
        if inv.representative
        == vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    )
    assert half.label == "B2"


def test_eps_restricted_is_homomorphism(pairings, eps, stabilizers):
    from cell24.groups import word_mul

    for stab in stabilizers[:2]:
        words = [w for w, _ in stab.generators][:4]
        for w1 in words:
            for w2 in words:
                prod = word_mul(w1, w2)
                assert census.eps_of_word(prod, eps) == census.eps_of_word(
                    w1, eps
                ) * census.eps_of_word(w2, eps)


def test_flat_reference_table_invariants():
    # Literature values for the ten flat types, recomputed from the shipped
    # extension data with this package's own Smith normal form.
    expected = {
        "G1": ((), 3, 1),
        "G2": ((2, 2), 1, 2),
        "G3": ((3,), 1, 3),
        "G4": ((2,), 1, 4),
        "G5": ((), 1, 6),
        "G6": ((4, 4), 0, 4),
        "B1": ((2,), 2, 2),
        "B2": ((), 2, 2),
        "B3": ((2, 2), 1, 4),
        "B4": ((4,), 1, 4),
    }
    for t in flat3.FLAT_TYPES:
        assert t.invariants() == expected[t.name], t.name


def test_flat_reference_table_separates_types():
    table = flat3.reference_table()
    assert len(table) == 10
    assert flat3.classify_flat(False, 2, (2,), 2) == "B1"
    assert flat3.classify_flat(False, 2, (), 2) == "B2"
    assert flat3.classify_flat(True, 1, (), 3) == "G1"
    assert flat3.classify_flat(False, 8, (), 0) == "ambiguous"


def test_vertex_class_graph_is_pairing_orbit(pairings, cusp_classes):
    # Applying any pairing move at a vertex lands inside the vertex's class.
    poly_moves = census.moves_by_side(pairings)
    from cell24.polytope import build_polytope

    poly = build_polytope()
    by_vertex = {}
    for cls in cusp_classes:
        for v in cls.vertices:
            by_vertex[v] = cls
    for v in poly.vertices:
        for side_label in poly.vertex_sides[v]:
            image = poly_moves[side_label].word.point(v)
            assert by_vertex[image] is by_vertex[v]
