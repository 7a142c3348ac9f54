from collections import Counter
from functools import reduce

import pytest

import moebius_oracle as oracle
import reference_tables as rt
from conftest import side_vertices
from cell24 import census, cover, groups
from cell24.census import InvalidCode, ParseError, PoincareViolation
from cell24.groups import word_str
from cell24.moebius import MoebiusWord
from cell24.polytope import Polytope24, build_polytope


def test_parse_code_reference():
    ks = census.parse_code("146928")
    assert ks == [
        (-1, 1, 1, 1),
        (1, 1, -1, 1),
        (1, -1, -1, 1),
        (-1, 1, 1, -1),
        (1, -1, 1, 1),
        (1, 1, 1, -1),
    ]
    assert census.print_code(ks) == "146928"


def test_parse_code_digit_9():
    assert census.parse_code("146928")[3] == (-1, 1, 1, -1)


def test_parse_code_errors():
    with pytest.raises(InvalidCode):
        census.parse_code("046928")
    with pytest.raises(InvalidCode):
        # digit 1 fixes the (0,+-1,+-1,0) family, which it must move
        census.parse_code("111111")
    with pytest.raises(ParseError):
        census.parse_code("ZZZ")
    with pytest.raises(ParseError):
        census.parse_code("14692")


@pytest.mark.parametrize("text", ["１４６９２８", "١٤٦٩٢٨", "14692٨"])
def test_parse_code_reads_ascii_hex_only(text):
    # int(ch, 16) also reads every Unicode decimal digit (full-width,
    # Arabic-Indic, ...); a code is ASCII hex or a ParseError.
    with pytest.raises(ParseError):
        census.parse_code(text)


def test_parse_code_reads_uppercase_hex():
    assert census.parse_code("EF276C") == census.parse_code("ef276c")


def test_pairings_match_published_display(pairings):
    assert len(pairings) == 12
    by_letter = {p.letter: p for p in pairings}
    for letter, src, k, tgt in rt.PAIRING_DISPLAY:
        p = by_letter[letter]
        assert p.source.center == src
        assert p.kpart == k
        assert p.target.center == tgt


def test_pairing_words_map_spheres(pairings):
    # The six ideal vertices of the source side go onto those of the target
    # side (so the source sphere onto the target sphere), and back.
    poly = build_polytope()
    for p in pairings:
        src, tgt = side_vertices(poly, p.source.label), side_vertices(poly, p.target.label)
        assert {oracle.pairing_point(p, v) for v in src} == set(tgt)
        assert {oracle.pairing_point(p, v, -1) for v in tgt} == set(src)
        assert {
            poly.vertices[poly.vertex_index_image(p.word.matrix, i)]
            for i in poly.side_vertex_indices[p.source.label]
        } == set(tgt)


def test_example_arrows(pairings):
    by_letter = {p.letter: p for p in pairings}
    assert by_letter["e"].source.center == (0, 1, 1, 0)
    assert by_letter["e"].target.center == (0, -1, -1, 0)
    assert by_letter["g"].source.center == (1, 0, 0, 1)
    assert by_letter["g"].target.center == (-1, 0, 0, -1)


def test_orientation_character(pairings, eps, cycles):
    assert all(eps[x] == 1 for x in "abcdijkl")
    assert all(eps[x] == -1 for x in "efgh")
    for c in cycles:
        assert census.eps_of_word(c.relator, eps) == 1
    assert set(eps.values()) == {1, -1}


def test_cycle_counts(cycles):
    assert len(cycles) == 24
    assert all(len(c) == 4 for c in cycles)


def test_cycle_partition(cycles):
    poly = build_polytope()
    covered = [r for c in cycles for r in c.ridges]
    assert len(covered) == 96
    assert set(covered) == {frozenset((0, s) for s in ridge.sides) for ridge in poly.ridges}


def test_cycle_table_matches_published(pairings):
    mismatches = rt.check_base_table(pairings)
    # Every row matches the recomputation except the two known misprints.
    assert sorted(mismatches) == [20, 24]
    assert ("base", 20) in rt.KNOWN_TYPOS and ("base", 24) in rt.KNOWN_TYPOS


def test_rows_one_and_two_literal(pairings, cycles):
    assert rt.compare_row(
        rt.BASE_CYCLE_ROWS[0],
        cycles[0].nodes,
        cycles[0].arrows,
    ) == []
    assert rt.compare_row(
        rt.BASE_CYCLE_ROWS[1],
        cycles[1].nodes,
        cycles[1].arrows,
    ) == []


def test_cycle_relators(pairings, cycles):
    assert word_str(cycles[0].relator) == "CAda"
    for c in cycles:
        assert census.cycle_moebius_word(c, pairings).is_identity()


def test_edge_classes(pairings):
    orbits = census.edge_classes(pairings)
    assert len(orbits) == 12
    sizes = [len(o) for o in orbits]
    assert sum(sizes) == 96
    assert all(96 % s == 0 for s in sizes)


def test_edge_faces_map_to_edge_faces(pairings):
    poly = build_polytope()
    moves = census.moves_by_side(pairings, poly)
    faces = {f.vertices for f in poly.edge_faces}
    for face in poly.edge_faces:
        for side_label in face.sides:
            mv = moves[side_label]
            move = ((mv.letter, mv.sign),)
            image = frozenset(oracle.word_point(move, pairings, v) for v in face.vertices)
            assert image in faces


def test_presentation(pairings, cycles, base_presentation):
    assert len(base_presentation.generators) == 12
    assert len(base_presentation.relators) == 24


def test_validate_reference_code():
    report = census.validate("146928")
    assert report.ok
    assert report.cycle_lengths == {4: 24}


def test_validate_rejects_bad_codes():
    report = census.validate("046928")
    assert not report.ok
    with pytest.raises(ParseError):
        census.validate("xyzzy!")


def test_corrupted_pairing_detected(pairings):
    # Swap one pairing's word for another's: cycle tracing and the edge-face
    # orbits must fail.  Move tables are keyed by the exact matrix, so the
    # corrupted move gets tables of its own, never the correct move's.
    broken = list(pairings)
    broken[0] = broken[0]._replace(word=broken[2].word)
    with pytest.raises(PoincareViolation):
        census.ridge_cycles(broken)
    with pytest.raises(PoincareViolation):
        census.edge_classes(broken)


def test_corrupted_pairing_gets_its_own_relator_products(pairings, cycles):
    # Relator products are memoised across codes; the memo must be keyed by
    # the exact letter words passed in, never by letter names or digits.
    def fold(relator, pairs):
        by_name = {p.letter: p.word for p in pairs}
        return reduce(
            lambda acc, letter: acc * letter,
            [by_name[sym] if sign == 1 else by_name[sym].inverse() for sym, sign in relator],
            MoebiusWord(),
        )

    good = [census.cycle_moebius_word(c, pairings) for c in cycles]
    assert good == [fold(c.relator, pairings) for c in cycles]
    broken = list(pairings)
    broken[0] = broken[0]._replace(word=broken[2].word)
    products = [census.cycle_moebius_word(c, broken) for c in cycles]
    assert products == [fold(c.relator, broken) for c in cycles]
    assert any(p != g for p, g in zip(products, good))


def test_relator_memo_stores_isometries_not_verdicts(pairings, cycles, monkeypatch):
    # A certificate that calls every word the identity must not poison the
    # memo: a second lookup returns the same product, not a cached verdict.
    broken = list(pairings)
    broken[0] = broken[0]._replace(word=pairings[2].word * pairings[4].word)
    monkeypatch.setattr(MoebiusWord, "is_identity", lambda word: True)
    first = [census.cycle_moebius_word(c, broken) for c in cycles]
    again = [census.cycle_moebius_word(c, broken) for c in cycles]
    monkeypatch.undo()
    assert first == again
    assert any(w != MoebiusWord() for w in again)


def test_family_pairings_shared_across_codes(sample_codes):
    # A family's pairings depend only on its digit: codes sharing the digit
    # get the very same objects, equal to a construction on a new polytope.
    poly, fresh = build_polytope(), Polytope24()
    first = {}
    for code in sample_codes:
        kvecs = census.parse_code(code)
        pairings = census.build_pairings(kvecs, poly)
        assert pairings == census.build_pairings(kvecs, fresh)
        for index, digit in enumerate(code):
            family = pairings[2 * index:2 * index + 2]
            assert [p.letter for p in family] == list(census.FAMILIES[index][0])
            assert all(p.kpart == kvecs[index] for p in family)
            shared = first.setdefault((index, digit), family)
            assert all(p is q for p, q in zip(family, shared))
    assert len(first) < len(sample_codes)


def test_validate_means_manifold():
    # a5e164 passes every other check, but two of its edge-face orbits have
    # 4 faces: the edge links are not 3-balls.
    report = census.validate("a5e164")
    assert not report.ok
    failed = [(name, detail) for name, passed, detail in report.checks if not passed]
    sizes = [4, 4] + [8] * 11
    assert failed == [("edge-face orbits", f"13 orbits (3-handles), sizes {sizes}")]
    for code in ("146928", "ef276c"):
        report = census.validate(code)
        assert report.ok, report.render()
        assert report.cycle_lengths == {4: 24}


@pytest.mark.parametrize("codes", ["sample_codes", "wide_codes"])
def test_seeded_census_sweep(codes, request):
    sample_codes = request.getfixturevalue(codes)
    poly = build_polytope()
    ridges = {frozenset((0, s) for s in r.sides) for r in poly.ridges}
    faces = {(0, f.vertices) for f in poly.edge_faces}
    manifolds = covers = 0
    for code in sample_codes:
        pairings = census.build_pairings(census.parse_code(code), poly)
        eps = census.orientation_character(pairings)
        cycles = census.ridge_cycles(pairings, poly)
        visited = [r for c in cycles for r in c.ridges]
        assert len(visited) == len(ridges) and set(visited) == ridges
        orbits = census.edge_classes(pairings, poly)
        members = [f for orbit in orbits for f in orbit]
        assert len(members) == len(faces) and set(members) == faces
        identities = []
        for c in cycles:
            identity = census.cycle_moebius_word(c, pairings).is_identity()
            if identity:
                assert len(c) % 4 == 0 and census.eps_of_word(c.relator, eps) == 1
            identities.append(identity)
        manifold = (
            all(identities)
            and all(len(c) == 4 for c in cycles)
            and all(len(orbit) == 8 for orbit in orbits)
        )
        assert census.validate(code).ok == manifold, code
        manifolds += manifold
        if manifold:
            covers += _check_covers(pairings, eps, cycles, orbits)
    # The sample holds both outcomes.
    assert 0 < manifolds < len(sample_codes)
    assert covers >= manifolds


def _check_covers(pairings, eps, cycles, orbits):
    """Geometric double cover along every reversing letter of a manifold:
    its cycles and orbits project two-to-one onto the base's, on sheet 0,
    its relators are identities, and its H1 equals the Reidemeister-Schreier
    cover's."""
    base = census.presentation(pairings, cycles)
    alphas = [letter for letter, e in eps.items() if e == -1]
    for alpha in alphas:
        dc = cover.build_double_cover(pairings, eps, alpha)
        cover_cycles = cover.cover_ridge_cycles(dc)
        lifted = Counter(
            frozenset(frozenset((0, label) for _sheet, label in r) for r in c.ridges)
            for c in cover_cycles
        )
        assert lifted == {c.ridges: 2 for c in cycles}
        lifted = Counter(
            frozenset((0, face) for _sheet, face in orbit)
            for orbit in census.domain_orbits(dc.domain)
        )
        assert lifted == {frozenset(orbit): 2 for orbit in orbits}
        for c in cover_cycles:
            assert census.word_isometry(c.relator, dc.pairings).is_identity()
        geometric = cover.cover_presentation(dc, cover_cycles)
        algebraic = groups.rs_double_cover(base, eps, alpha)
        assert groups.abelianization(geometric) == groups.abelianization(algebraic)
    return len(alphas)
