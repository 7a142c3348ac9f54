import random
from fractions import Fraction

import pytest

import moebius_oracle as oracle
import reference_tables as rt
from cell24 import census, cusps, flat3
from cell24.groups import free_reduce, word_from_str, word_inverse, word_mul, word_str
from cell24.moebius import (
    TRANSLATION,
    affine_parts,
    classify_parabolic,
    light_vector,
    lorentz_dot,
)
from cell24.polytope import build_polytope

HALF = Fraction(1, 2)


def test_five_classes(cusp_classes):
    assert len(cusp_classes) == 5
    assert sum(len(c) for c in cusp_classes) == 24
    sizes = sorted(len(c) for c in cusp_classes)
    assert sizes == [2, 2, 2, 2, 16]


def test_class_membership(cusp_classes):
    by_rep = {c.representative: c for c in cusp_classes}
    half = by_rep[(HALF, HALF, HALF, HALF)]
    assert len(half) == 16
    assert all(all(abs(x) == HALF for x in v) for v in half.vertices)
    zpair = by_rep[(0, 0, 1, 0)]
    assert set(zpair.vertices) == {(0, 0, 1, 0), (0, 0, -1, 0)}
    # the published table's vertex pairs all appear as classes
    for members, _word in rt.FILLING_TABLE[:-1]:
        reps = {frozenset(tuple(m) for m in members)}
        assert any(frozenset(c.vertices) in reps for c in cusp_classes)


def test_tree_words_move_vertices(pairings, cusp_classes):
    poly = build_polytope()
    for cls in cusp_classes:
        assert sorted(poly.vertices[i] for i in cls.tree) == sorted(cls.vertices)
        for i, word in cls.tree.items():
            assert oracle.word_point(word, pairings, poly.vertices[i]) == cls.representative


def test_stabilizer_generators_fix_representative(pairings, stabilizers):
    for stab in stabilizers:
        assert stab.generators
        rep = stab.cusp.representative
        for word, moebius in stab.generators:
            assert oracle.word_point(word, pairings, rep) == rep
            assert moebius == census.word_isometry(word, pairings)


def explicit_tree_rule_generators(cls, pairings):
    """Stabilizer generator words built with the tree's own moves skipped
    explicitly: the class's spanning tree is rebuilt in ``vertex_classes``'
    order, recording each tree move and its reverse, and only the other
    moves give loops."""
    poly = build_polytope()
    moves = census.moves_by_side(pairings, poly)
    rep = min(cls.tree)
    tree, tree_moves, queue = {rep: ()}, set(), [rep]
    for u in queue:
        for letter, sign, w in cusps._vertex_moves(u, moves, poly):
            if w not in tree:
                tree[w] = free_reduce(tree[u] + ((letter, -sign),))
                tree_moves |= {(u, letter, sign), (w, letter, -sign)}
                queue.append(w)
    assert tree == cls.tree
    words = []
    for v in sorted(tree):
        for letter, sign, w in cusps._vertex_moves(v, moves, poly):
            if (v, letter, sign) in tree_moves:
                continue
            loop = word_mul(tree[w], ((letter, sign),), word_inverse(tree[v]))
            if loop and loop not in words and word_inverse(loop) not in words:
                words.append(loop)
    return words


def test_tree_moves_add_no_generators(sample_codes):
    # A tree move's loop, and its reverse's, freely reduce to the empty
    # word, so skipping them explicitly changes no generator or its order.
    codes = ["146928", "ef276c", "2bec36"] + [c for c in sample_codes if census.validate(c).ok]
    sizes = set()
    for code in codes:
        pairings = census.build_pairings(census.parse_code(code))
        for cls in cusps.vertex_classes(pairings):
            got = [w for w, _ in cusps.stabilizer_generators(cls, pairings).generators]
            assert got == explicit_tree_rule_generators(cls, pairings), (code, cls.representative)
            sizes.add(len(cls))
    assert len(codes) > 10 and 16 in sizes


def test_letter_a_in_stabilizer(stabilizers):
    stab = next(
        s for s in stabilizers if s.cusp.representative == (0, 1, 0, 0)
    )
    words = {w for w, _ in stab.generators}
    assert word_from_str("a") in words


def test_translation_c_found(pairings, stabilizers):
    choices = cusps.find_filling_translations(stabilizers)
    by_rep = {c.cusp.representative: c for c in choices}
    assert by_rep[(1, 0, 0, 0)].chosen == word_from_str("c")
    assert by_rep[(0, 1, 0, 0)].chosen == word_from_str("a")
    assert by_rep[(0, 0, 1, 0)].chosen == word_from_str("k")
    assert by_rep[(0, 0, 0, 1)].chosen == word_from_str("i")
    half = by_rep[(HALF, HALF, HALF, HALF)]
    assert half.chosen is not None
    assert len(half.chosen) <= 4


def test_canonical_fillings_validate(pairings, cusp_classes):
    fills = cusps.canonical_fillings(pairings, cusp_classes)
    assert [word_str(f.word) for f in fills] == ["c", "EheH", "a", "k", "i"]
    for f in fills:
        assert f.classification == TRANSLATION
        assert f.fixed_vertex in f.cusp.vertices


def test_missing_cusp_word_names_the_cusp_as_printed(pairings, cusp_classes, monkeypatch):
    from cell24 import layout

    monkeypatch.delitem(layout.FILLINGS["146928"], "(1/2,1/2,1/2,1/2)")
    with pytest.raises(census.PoincareViolation) as exc:
        cusps.canonical_fillings(pairings, cusp_classes)
    assert str(exc.value) == "no published filling word for cusp at (1/2,1/2,1/2,1/2)"


def test_published_alternate_j(pairings, cusp_classes):
    alts = cusps.published_alternate_fillings(pairings, cusp_classes)
    assert len(alts) == 1
    alt = alts[0]
    assert word_str(alt.word) == "j"
    assert alt.cusp.representative == (0, 0, 0, 1)
    assert alt.classification == TRANSLATION


def test_half_cusp_word_is_translation(pairings):
    word = word_from_str("EheH")
    fixed = (-HALF, HALF, HALF, HALF)
    assert oracle.word_point(word, pairings, fixed) == fixed
    assert classify_parabolic(census.word_isometry(word, pairings), fixed) == TRANSLATION


def test_cusp_invariants(pairings, eps, stabilizers):
    invs = [cusps.cusp_invariants(s, eps) for s in stabilizers]
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
        if inv.representative == (HALF, HALF, HALF, HALF)
    )
    assert half.label == "B2"


# (label, holonomy order, H1 torsion, H1 rank) per cusp, in class order, of
# the manifolds among the sample codes; recorded with the rational
# flat-manifold layer that preceded the integer one.
SAMPLE_CUSP_INVARIANTS = {
    "f543e8": (("G6", 4, (4, 4), 0), ("G2", 2, (2, 2), 1), ("B1", 2, (2,), 2),
               ("B1", 2, (2,), 2), ("B2", 2, (), 2)),
    "af492c": (("B4", 4, (4,), 1), ("G2", 2, (2, 2), 1), ("B1", 2, (2,), 2),
               ("B4", 4, (4,), 1), ("G1", 1, (), 3)),
    "b9e524": (("B2", 2, (), 2), ("B1", 2, (2,), 2), ("G1", 1, (), 3),
               ("B2", 2, (), 2), ("B1", 2, (2,), 2), ("B1", 2, (2,), 2)),
    "3528ac": (("G1", 1, (), 3), ("B2", 2, (), 2), ("B1", 2, (2,), 2),
               ("G1", 1, (), 3), ("B1", 2, (2,), 2)),
    "e5238c": (("G6", 4, (4, 4), 0), ("B4", 4, (4,), 1), ("G2", 2, (2, 2), 1),
               ("G1", 1, (), 3), ("B2", 2, (), 2)),
    "1bef28": (("B4", 4, (4,), 1), ("B2", 2, (), 2), ("G1", 1, (), 3),
               ("G2", 2, (2, 2), 1), ("B1", 2, (2,), 2)),
    "1b43ec": (("B3", 4, (2, 2), 1), ("G6", 4, (4, 4), 0), ("G1", 1, (), 3),
               ("B4", 4, (4,), 1), ("B3", 4, (2, 2), 1)),
    "54e3a8": (("G2", 2, (2, 2), 1), ("B2", 2, (), 2), ("B3", 4, (2, 2), 1),
               ("G2", 2, (2, 2), 1), ("B3", 4, (2, 2), 1)),
    "9be364": (("B1", 2, (2,), 2), ("G1", 1, (), 3), ("B3", 4, (2, 2), 1),
               ("G2", 2, (2, 2), 1), ("B3", 4, (2, 2), 1), ("B3", 4, (2, 2), 1)),
    "3165ec": (("B3", 4, (2, 2), 1), ("B2", 2, (), 2), ("B2", 2, (), 2),
               ("G1", 1, (), 3), ("B2", 2, (), 2)),
    "146b28": (("G1", 1, (), 3), ("B4", 4, (4,), 1), ("B1", 2, (2,), 2),
               ("B1", 2, (2,), 2), ("G2", 2, (2, 2), 1)),
    "35a964": (("G1", 1, (), 3), ("B1", 2, (2,), 2), ("G2", 2, (2, 2), 1),
               ("B2", 2, (), 2), ("B1", 2, (2,), 2)),
    "65a9e8": (("B2", 2, (), 2), ("B4", 4, (4,), 1), ("B3", 4, (2, 2), 1),
               ("B1", 2, (2,), 2), ("B2", 2, (), 2)),
}


def test_sample_cusp_invariants_match_table(sample_codes):
    found = {}
    for code in sample_codes:
        if not census.validate(code).ok:
            continue
        pairings = census.build_pairings(census.parse_code(code))
        eps = census.orientation_character(pairings)
        found[code] = tuple(
            (inv.label, inv.holonomy_order, inv.h1_torsion, inv.h1_rank)
            for inv in (
                cusps.cusp_invariants(cusps.stabilizer_generators(c, pairings), eps)
                for c in cusps.vertex_classes(pairings)
            )
        )
    assert found == SAMPLE_CUSP_INVARIANTS


def test_extension_h1_scaled_lifts():
    # A half-turn lifted by 1/3 e1 squares to 2/3 e1, off the lattice.
    half_turn = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert flat3.extension_h1([half_turn], [(1, 0, 0)], 2) == ((2, 2), 1, 2)
    assert flat3.extension_h1([half_turn], [(2, 0, 0)], 4) == ((2, 2), 1, 2)
    with pytest.raises(ValueError, match="not a lattice vector"):
        flat3.extension_h1([half_turn], [(1, 0, 0)], 3)


def test_eps_restricted_is_homomorphism(pairings, eps, stabilizers):
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
    poly = build_polytope()
    by_vertex = {}
    for cls in cusp_classes:
        for v in cls.vertices:
            by_vertex[v] = cls
    for v, sides in zip(poly.vertices, poly.sides_at):
        for side_label in sides:
            mv = poly_moves[side_label]
            image = oracle.word_point(((mv.letter, mv.sign),), pairings, v)
            assert by_vertex[image] is by_vertex[v]


def horosphere_coords(u):
    """Coordinates on {x : <x, u> = 1} / R u in the frame that
    ``affine_parts`` documents (origin w0 = +-e_i, basis p(e_j) for j not in
    {i, d}), found by solving in that basis modulo u."""
    form = (1, 1, 1, 1, -1)
    i, d = [k for k in range(5) if u[k] in (1, -1)][:2]
    w0 = tuple(form[i] * u[i] * (k == i) for k in range(5))
    basis = [
        tuple((k == j) - form[j] * u[j] * w0[k] for k in range(5))
        for j in range(5)
        if j not in (i, d)
    ]

    solve = oracle.solver(basis + [u])

    def coords(x):
        return tuple(solve([a - b for a, b in zip(x, w0)])[:3])

    return coords


def test_affine_parts_match_point_oracle(sample_codes):
    # On 146928 and every manifold among the sample codes, each stabilizer
    # generator w acts on the horosphere at its cusp as x -> Q x + t:
    # coords(l(w.x)) = Q coords(l(x)) + t with l(x) = (x, 1) / <(x, 1), u>,
    # w.x from the point oracle, for rational points x of S^3 other than v
    # (three ideal vertices and a random point).
    # The generators are also conjugated by the tree words to every other
    # vertex of the class, so that every sign pattern of u occurs.
    poly = build_polytope()
    points = oracle.sphere_points(random.Random(29), 1)
    codes = ["146928"] + [c for c in sample_codes if census.validate(c).ok]
    checked = 0
    for code in codes:
        pairings = census.build_pairings(census.parse_code(code))
        for cls in cusps.vertex_classes(pairings):
            gens = [w for w, _ in cusps.stabilizer_generators(cls, pairings).generators]
            for i in sorted(cls.tree):
                v, tree = poly.vertices[i], cls.tree[i]
                words = gens if v == cls.representative else [
                    word_mul(word_inverse(tree), g, tree) for g in gens[:1]
                ]
                u = light_vector(v)
                coords = horosphere_coords(u)

                def ell(x):
                    x = tuple(x) + (1,)
                    return tuple(Fraction(c, lorentz_dot(x, u)) for c in x)

                # Four points in general position fix an affine map of 3-space.
                others = [x for x in poly.vertices if x != v][:3] + points
                before = [coords(ell(x)) for x in others]
                for word in words:
                    q, t = affine_parts(census.word_isometry(word, pairings), v)
                    assert all(type(x) is int for x in t + sum(q, ()))
                    for x, cx in zip(others, before):
                        image = coords(ell(oracle.word_point(word, pairings, x)))
                        assert image == tuple(
                            sum(q[r][c] * cx[c] for c in range(3)) + t[r] for r in range(3)
                        )
                    checked += 1
    assert len(codes) > 10 and checked > 500
