"""The census assembles a code's ridge cycles from per-family-pair tables and
its edge-face orbits from per-family-triple tables, filled lazily by the
whole-domain engine restricted to each table's states or faces.  These tests
pin the premise the tables rest on, their shape, and their agreement with the
whole-domain engine, errors included."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import cell24
from cell24 import census, moebius
from cell24.census import InvalidCode, PoincareViolation
from cell24.moebius import MoebiusWord
from cell24.polytope import Polytope24, build_polytope

SWAP_CODES = ("146928", "2bec36", "ef276c")


def side_family(poly, label):
    return tuple(j for j in range(4) if poly.sides[label].center[j])


def fields(cycles):
    return [(c.nodes, c.arrows, c.relator, c.ridges) for c in cycles]


def whole_cycles(pairings, poly):
    """The base domain's ridge cycles from the whole-domain engine."""
    return fields(census.domain_cycles(census.base_domain(pairings, poly), poly))


def whole_orbits(pairings, poly):
    return census.domain_orbits(census.base_domain(pairings, poly), poly)


def table_cycles(pairings, poly):
    return fields(census.ridge_cycles(pairings, poly))


def table_orbits(pairings, poly):
    return census.edge_classes(pairings, poly)


def outcome(call, pairings, poly):
    """The value of a call, or the type and message of the census error it
    raised; any other exception fails the test."""
    try:
        return call(pairings, poly)
    except census.CensusError as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcomes(pairings, poly):
    assert outcome(table_cycles, pairings, poly) == outcome(whole_cycles, pairings, poly)
    assert outcome(table_orbits, pairings, poly) == outcome(whole_orbits, pairings, poly)


def test_moves_keep_side_families():
    # The premise of the tables: a sign diagonal keeps each family's
    # support, so every move sends each side meeting its own to a side of
    # the same family, or off the side lattice.  Checked for every pairing
    # parse_code accepts, 12 digits for each of the 6 families.
    poly = build_polytope()
    checked = 0
    for index in range(len(census.FAMILIES)):
        for digit in "123456789abcdef":
            code = "146928"[:index] + digit + "146928"[index + 1:]
            try:
                kvecs = census.parse_code(code)
            except InvalidCode:
                continue
            pairings = census.build_pairings(kvecs, poly)
            moves = census.moves_by_side(pairings, poly)
            for p in pairings[2 * index:2 * index + 2]:
                for label in (p.source.label, p.target.label):
                    assert side_family(poly, label) == census.FAMILIES[index][1]
                    for side, image in moves[label].sides.items():
                        assert image is None or side_family(poly, image) == side_family(poly, side)
            checked += 1
    assert checked == 72


def test_family_pairs_and_triples():
    # 12 family pairs carry 8 ridges each, and 8 family triples carry edge
    # faces, four with 16 and four with 8; the tables lay out exactly these,
    # the ridges of a pair as its 16 (active, passive) states.
    poly = Polytope24()
    pairs = Counter(frozenset(side_family(poly, s) for s in r.sides) for r in poly.ridges)
    assert all(len(families) == 2 for families in pairs)
    assert sorted(pairs.values()) == [8] * 12
    triples = Counter(frozenset(side_family(poly, s) for s in f.sides) for f in poly.edge_faces)
    assert all(len(families) == 3 for families in triples)
    assert sorted(triples.values()) == [8] * 4 + [16] * 4
    _family, _records, _known, by_kind, _values = census._local_tables(poly)
    assert sorted(len(layout) for _f, _key, layout, _entries in by_kind["pairs"]) == [16] * 12
    assert sorted(len(layout) for _f, _key, layout, _entries in by_kind["triples"]) == (
        [8] * 4 + [16] * 4
    )


def test_tables_start_empty_and_fill_lazily():
    poly = Polytope24()
    _family, records, _known, by_kind, values = census._local_tables(poly)
    entries = [e for kind in ("pairs", "triples") for _f, _key, _layout, e in by_kind[kind]]
    assert records == {} and values == {} and all(e == {} for e in entries)
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    census.ridge_cycles(pairings, poly)
    assert len(records) == 6
    assert [len(e) for _f, _key, _layout, e in by_kind["pairs"]] == [1] * 12
    assert all(e == {} for _f, _key, _layout, e in by_kind["triples"])
    census.edge_classes(pairings, poly)
    assert [len(e) for _f, _key, _layout, e in by_kind["triples"]] == [1] * 8
    # Another code sharing five digits adds one family record and fills
    # only the entries of the pairs and triples holding its new family.
    census.ridge_cycles(census.build_pairings(census.parse_code("146924"), poly), poly)
    assert len(records) == 7
    assert sum(len(e) for _f, _key, _layout, e in by_kind["pairs"]) == 12 + 4


def test_set_up_computes_no_table():
    # Importing the census, building the polytope and the flat reference
    # table (the census benchmark's set-up) leaves every table unbuilt.
    src = os.path.dirname(os.path.dirname(cell24.__file__))
    probe = (
        "import cell24.census as c, cell24.flat3 as f, cell24.polytope as p; "
        "p.Polytope24(); p.build_polytope(); f.reference_table(); "
        "print(c._local_tables.cache_info().currsize)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert result.stdout == "0\n"


def test_corrupted_word_gets_its_own_entries(pairings):
    # Entries are keyed by the ids of the families' exact pairings, never by
    # digits or letters: a corrupted word of the same digit and letter gets
    # a family record and entries of its own.
    poly = build_polytope()
    _family, records, _known, by_kind, _values = census._local_tables(poly)
    census.ridge_cycles(pairings, poly)
    before = len(records), sum(len(e) for _f, _key, _layout, e in by_kind["pairs"])
    broken = list(pairings)
    broken[1] = broken[1]._replace(word=MoebiusWord(pairings[1].word.matrix))
    assert census.ridge_cycles(broken, poly) == census.ridge_cycles(pairings, poly)
    assert (len(records), sum(len(e) for *_, e in by_kind["pairs"])) == before
    broken[0] = broken[0]._replace(word=pairings[1].word)
    with pytest.raises(PoincareViolation):
        census.ridge_cycles(broken, poly)
    assert len(records) == before[0] + 1
    assert all(isinstance(i, int) for *_, e in by_kind["pairs"] for key in e for i in key)


@pytest.mark.parametrize("codes", ["sample_codes", "wide_codes", "seeded_codes"])
def test_tables_match_whole_domain_engine(codes, request):
    # The same nodes, arrows, relators and ridges per cycle, and the same
    # orbits, in the same order.
    poly = build_polytope()
    for code in request.getfixturevalue(codes):
        pairings = census.build_pairings(census.parse_code(code), poly)
        assert table_cycles(pairings, poly) == whole_cycles(pairings, poly), code
        assert table_orbits(pairings, poly) == whole_orbits(pairings, poly), code


def test_cycles_keep_their_relator_isometries(sample_codes, wide_codes, seeded_codes,
                                             monkeypatch):
    # A table cycle keeps its relator's isometry, folded once from its
    # entry's pairings: it equals a fresh fold for every cycle, a warm pass
    # multiplies no matrix, and value-equal copies of the pairings (other
    # objects) get a fresh fold, not the stored product.
    poly = build_polytope()
    codes = sample_codes + wide_codes + seeded_codes
    for code in codes:
        pairings = census.build_pairings(census.parse_code(code), poly)
        for c in census.ridge_cycles(pairings, poly):
            want = census.word_isometry(c.relator, pairings)
            assert census.cycle_moebius_word(c, pairings) == want, code
    calls, mul = [], moebius.lorentz_mul

    def counting_mul(a, b):
        calls.append(a)
        return mul(a, b)

    monkeypatch.setattr(census, "lorentz_mul", counting_mul)
    monkeypatch.setattr(moebius, "lorentz_mul", counting_mul)
    for code in codes:
        pairings = census.build_pairings(census.parse_code(code), poly)
        for c in census.ridge_cycles(pairings, poly):
            census.cycle_moebius_word(c, pairings)
    assert calls == []
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    copies = [p._replace() for p in pairings]
    assert copies == pairings and not any(p is q for p, q in zip(copies, pairings))
    cycles = census.ridge_cycles(copies, poly)
    assert all(c is d for c, d in zip(cycles, census.ridge_cycles(pairings, poly)))
    for c in cycles:
        before = len(calls)
        assert census.cycle_moebius_word(c, copies) == census.cycle_moebius_word(c, pairings)
        assert len(calls) == before + len(c.relator) - 1
    # Lists in another order reach the same records and cycles, and a list
    # with the letters at other positions gets the fold.
    swapped = pairings[2:4] + pairings[:2] + pairings[4:]
    assert census.ridge_cycles(swapped, poly) == cycles
    assert census.edge_classes(swapped, poly) == census.edge_classes(pairings, poly)
    shifted = pairings[6:]
    names = {p.letter for p in shifted}
    kept = [c for c in cycles if {sym for sym, _sign in c.relator} <= names]
    assert kept and all(census.cycle_moebius_word(c, shifted) ==
                        census.word_isometry(c.relator, shifted) for c in kept)


def fill_triples(codes, poly):
    for code in codes:
        census.edge_classes(census.build_pairings(census.parse_code(code), poly), poly)


def test_local_face_pairs_are_made_once_per_record_and_table(sample_codes, monkeypatch):
    # A triple fill unions the local face pairs its three records keep for
    # the table; each record makes them on its first fill of the table, for
    # at most the 4 triple tables holding its family, and never again.
    poly = Polytope24()
    family, records, _known, by_kind, _values = census._local_tables(poly)
    calls, face_pairs = [], census._face_pairs

    def counting(steps, at, n):
        calls.append((id(steps), frozenset(at)))
        return face_pairs(steps, at, n)

    monkeypatch.setattr(census, "_face_pairs", counting)
    fill_triples(sample_codes, poly)
    made = len(calls)
    fill_triples(sample_codes, poly)
    assert len(calls) == made == len(set(calls)) == sum(len(r[3]) for r in records.values())
    triples = [families for families, *_ in by_kind["triples"]]
    for group, record in records.items():
        f = family[group[0].source.label]
        assert 0 < len(record[3]) <= 4
        assert set(record[3]) <= {families for families in triples if f in families}


def test_triple_entries_are_one_object_per_partition(sample_codes, monkeypatch):
    # Entries of a triple table with the same orbits are one object, and a
    # fill builds orbit tuples only for a partition its table has not seen.
    poly = Polytope24()
    _family, _records, _known, by_kind, _values = census._local_tables(poly)
    built, orbits = [], census._orbits

    def counting(partition, members):
        built.append(partition)
        return orbits(partition, members)

    monkeypatch.setattr(census, "_orbits", counting)
    fill_triples(sample_codes, poly)
    fills = distinct = 0
    for _families, _key, _layout, entries in by_kind["triples"]:
        values = list(entries.values())
        assert len({id(e) for e in values}) == len(set(values))
        fills, distinct = fills + len(values), distinct + len(set(values))
    assert len(built) == distinct < fills


def test_each_distinct_trace_is_built_once(sample_codes, monkeypatch):
    # A pair fill looks up a trace's interned (nodes, arrows) before building
    # its cycle, so the builds are as many as the distinct traces, while
    # every entry still owns its cycles.
    passing = []
    for code in sample_codes:
        pairings = census.build_pairings(census.parse_code(code))
        try:
            census.ridge_cycles(pairings)
        except census.CensusError:
            continue
        passing.append(code)
    poly = Polytope24()
    _family, _records, _known, by_kind, _values = census._local_tables(poly)
    built, ridge_cycle = [], census._ridge_cycle

    def counting(states, nodes, arrows, wall=None):
        built.append((tuple(nodes), tuple(arrows)))
        return ridge_cycle(states, nodes, arrows, wall)

    monkeypatch.setattr(census, "_ridge_cycle", counting)
    cycles = []
    for code in passing:
        cycles += census.ridge_cycles(census.build_pairings(census.parse_code(code), poly), poly)
    entries = [entry for *_, es in by_kind["pairs"] for entry in es.values()]
    traces = [(c.nodes, c.arrows) for entry in entries for _pos, c in entry]
    assert len(built) == len(set(built)) == len(set(traces)) < len(traces)
    assert set(built) == {(c.nodes, c.arrows) for c in cycles}
    assert len({id(c) for entry in entries for _pos, c in entry}) == len(traces)


@pytest.mark.parametrize("image", ["none", "outside"])
def test_bad_face_image_fails_with_the_whole_domain_message(image):
    # A move whose face image is None fails as on the whole domain; an image
    # outside the face's triple is a face of the whole domain, so only the
    # tables fail, with their own message.  Nothing is kept for the failing
    # record: a second call fails the same way.
    poly = Polytope24()
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    record = census._family_records(pairings, poly)[0]
    name, _sign, _target, mv = next(step for step in record[1].values() if step[1] == 1)
    face = min(mv.faces)
    _family, _records, _known, by_kind, _values = census._local_tables(poly)
    others = [i for _f, _key, layout, _e in by_kind["triples"] for _pos, i in layout
              if face not in {j for _pos, j in layout}]
    mv.faces[face] = None if image == "none" else others[0]
    whole = outcome(whole_orbits, pairings, poly)
    if image == "none":
        want = ("PoincareViolation", f"pairing {name} maps an edge face off the face lattice")
        assert whole == want
    else:
        want = ("PoincareViolation", f"pairing {name} maps an edge face out of its families")
        assert isinstance(whole, list)
    for _call in range(2):
        assert outcome(table_orbits, pairings, poly) == want
        assert record[3] == {}


@pytest.fixture(scope="module")
def seeded_codes():
    """500 codes drawn with a fixed seed from all 12^6 parseable codes."""
    parseable = [
        [f"{d:x}" for d in range(1, 16) if any(d >> j & 1 for j in support)]
        for _letters, support in census.FAMILIES
    ]
    rng = random.Random(20261)
    return ["".join(rng.choice(ds) for ds in parseable) for _ in range(500)]


@pytest.mark.parametrize("code", SWAP_CODES)
def test_word_swaps_fail_as_whole_domain(code):
    # Letter i gets letter j's word: every such swap breaks the gluing, and
    # both functions raise the whole-domain engine's error type and message
    # (for cycles, the failing trace with the least start over all pairs).
    poly = build_polytope()
    pairings = census.build_pairings(census.parse_code(code), poly)
    for i in range(12):
        for j in range(12):
            if i == j:
                continue
            broken = list(pairings)
            broken[i] = broken[i]._replace(word=pairings[j].word)
            assert isinstance(outcome(whole_cycles, broken, poly), tuple)
            assert_same_outcomes(broken, poly)


def test_corrupted_families_fail_as_whole_domain(pairings):
    # Words that are products of two letters' words may move sides across
    # families, and swapped targets pair sides of two families; the tables
    # then give the whole-domain engine's outcome or a PoincareViolation,
    # never an untyped exception.  Lists that are missing a pairing, repeat
    # one or come in another order behave as on the whole domain.
    poly = build_polytope()
    for listed in (list(reversed(pairings)), pairings[1:], pairings + pairings[:1]):
        assert_same_outcomes(listed, poly)
    cases = []
    for i in range(12):
        for j, k in ((j, k) for j in range(12) for k in range(12) if (i + j + k) % 5 == 0):
            broken = list(pairings)
            broken[i] = broken[i]._replace(word=pairings[j].word * pairings[k].word)
            cases.append(broken)
        for j in range(i + 1, 12):
            broken = list(pairings)
            broken[i] = pairings[i]._replace(target=pairings[j].target)
            broken[j] = pairings[j]._replace(target=pairings[i].target)
            cases.append(broken)
    crossed = 0
    for broken in cases:
        for tabled, whole in ((table_cycles, whole_cycles), (table_orbits, whole_orbits)):
            got, want = outcome(tabled, broken, poly), outcome(whole, broken, poly)
            if got != want:
                assert got[0] == "PoincareViolation", got
                crossed += 1
    assert crossed > 0
