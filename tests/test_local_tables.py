"""The census assembles a code's ridge cycles from per-family-pair tables and
its edge-face orbits from per-family-triple tables, filled lazily by the
whole-domain engine restricted to each table's states or faces, for the
lists ``build_pairings`` makes; every other list goes to the whole-domain
engine.  These tests pin the premise the tables rest on, their shape, and
their agreement with the whole-domain engine, errors included."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product

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
    by_kind, _values = census._local_tables(poly)
    assert sorted(len(layout) for _f, _key, layout, _entries in by_kind["pairs"]) == [16] * 12
    assert sorted(len(layout) for _f, _key, layout, _entries in by_kind["triples"]) == (
        [8] * 4 + [16] * 4
    )


def test_tables_start_empty_and_fill_lazily():
    poly = Polytope24()
    records, _by_ids = census._records(poly)
    by_kind, values = census._local_tables(poly)
    entries = [e for kind in ("pairs", "triples") for _f, _key, _layout, e in by_kind[kind]]
    assert records == {} and values == {} and all(e == {} for e in entries)
    # build_pairings makes the six family records, but reads no move.
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    assert len(records) == 6
    assert not any("steps" in vars(record) for record in records.values())
    census.ridge_cycles(pairings, poly)
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


def test_lists_not_made_by_build_pairings_get_the_whole_domain_result():
    # Only a list of the records' very pairings reaches the tables: a
    # value-equal word, a corrupted word or another order adds no family
    # record or table entry and gets the whole-domain engine's result.
    poly = Polytope24()
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    records, by_ids = census._records(poly)
    by_kind, _values = census._local_tables(poly)

    def sizes():
        entries = [len(e) for kind in by_kind.values() for *_, e in kind]
        return len(records), len(by_ids), entries

    census.ridge_cycles(pairings, poly)
    census.edge_classes(pairings, poly)
    before = sizes()
    equal = list(pairings)
    equal[1] = equal[1]._replace(word=MoebiusWord(pairings[1].word.matrix))
    corrupted = list(pairings)
    corrupted[0] = corrupted[0]._replace(word=pairings[1].word)
    for listed in (equal, corrupted, pairings[::-1], pairings[:11], pairings + pairings[:1]):
        assert_same_outcomes(listed, poly)
        assert sizes() == before
    assert table_cycles(equal, poly) == table_cycles(pairings, poly)
    assert not any(c.letters for c in census.ridge_cycles(equal, poly))  # no table entry's
    with pytest.raises(PoincareViolation):
        census.ridge_cycles(corrupted, poly)


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
    cycles = census.ridge_cycles(pairings, poly)
    assert fields(census.ridge_cycles(copies, poly)) == fields(cycles)
    for c in cycles:
        before = len(calls)
        assert census.cycle_moebius_word(c, copies) == census.cycle_moebius_word(c, pairings)
        assert len(calls) == before + len(c.relator) - 1
    # Lists in another order get the same cycles and orbits, and a list
    # with the letters at other positions gets the fold.
    swapped = pairings[2:4] + pairings[:2] + pairings[4:]
    assert fields(census.ridge_cycles(swapped, poly)) == fields(cycles)
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
    records, _by_ids = census._records(poly)
    by_kind, _values = census._local_tables(poly)
    calls, face_pairs = [], census._face_pairs

    def counting(steps, at, n):
        calls.append((id(steps), frozenset(at)))
        return face_pairs(steps, at, n)

    monkeypatch.setattr(census, "_face_pairs", counting)
    fill_triples(sample_codes, poly)
    made = len(calls)
    fill_triples(sample_codes, poly)
    assert len(calls) == made == len(set(calls)) == sum(len(r.faces) for r in records.values())
    triples = [families for families, *_ in by_kind["triples"]]
    for (f, _k), record in records.items():
        assert 0 < len(record.faces) <= 4
        assert set(record.faces) <= {families for families in triples if f in families}


def test_triple_entries_are_one_object_per_partition(sample_codes, monkeypatch):
    # Entries of a triple table with the same orbits are one object, and a
    # fill builds orbit tuples only for a partition its table has not seen.
    poly = Polytope24()
    by_kind, _values = census._local_tables(poly)
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
    by_kind, _values = census._local_tables(poly)
    built, ridge_cycle = [], census._ridge_cycle

    def counting(states, nodes, arrows, walls=()):
        built.append((tuple(nodes), tuple(arrows)))
        return ridge_cycle(states, nodes, arrows, walls)

    monkeypatch.setattr(census, "_ridge_cycle", counting)
    cycles = []
    for code in passing:
        cycles += census.ridge_cycles(census.build_pairings(census.parse_code(code), poly), poly)
    entries = [entry for *_, es in by_kind["pairs"] for entry in es.values()]
    traces = [(c.nodes, c.arrows) for entry in entries for _pos, c in entry]
    assert len(built) == len(set(built)) == len(set(traces)) < len(traces)
    assert set(built) == {(c.nodes, c.arrows) for c in cycles}
    assert len({id(c) for entry in entries for _pos, c in entry}) == len(traces)


@pytest.mark.parametrize("image", ["none"])
def test_bad_face_image_fails_with_the_whole_domain_message(image):
    # A move whose face image is None fails as on the whole domain.  Nothing
    # is kept for the failing record: a second call fails the same way.  (An
    # image outside the face's triple cannot occur: see
    # test_every_digit_family_fills_every_entry.)
    poly = Polytope24()
    pairings = census.build_pairings(census.parse_code("146928"), poly)
    record = census._records(poly)[0][0, pairings[0].kpart]
    name, _sign, _target, mv = next(step for step in record.steps.values() if step[1] == 1)
    mv.faces[min(mv.faces)] = None
    want = ("PoincareViolation", f"pairing {name} maps an edge face off the face lattice")
    assert outcome(whole_orbits, pairings, poly) == want
    for _call in range(2):
        assert outcome(table_orbits, pairings, poly) == want
        assert record.faces == {}


def test_every_digit_family_fills_every_entry():
    # The premise that lets the tables raise nothing of their own: the 72
    # records, one per family and digit parse_code accepts, pair their
    # family's four sides, and every combination of them fills every pair
    # entry and every triple entry without raising (a move sending a side
    # or an edge face out of the table's families would raise KeyError).
    poly = Polytope24()
    digits = [
        [f"{d:x}" for d in range(1, 16) if any(d >> j & 1 for j in support)]
        for _letters, support in census.FAMILIES
    ]
    for code in zip(*digits):
        census.build_pairings(census.parse_code("".join(code)), poly)
    records, _by_ids = census._records(poly)
    by_family = [[r for (f, _k), r in records.items() if f == index] for index in range(6)]
    assert [len(rs) for rs in by_family] == [12] * 6
    for (index, _k), record in records.items():
        assert {side_family(poly, label) for _sheet, label in record.steps} == {
            census.FAMILIES[index][1]
        }
    by_kind, values = census._local_tables(poly)
    filled = Counter()
    for kind, fill in (("pairs", census._cycle_entry), ("triples", census._orbit_entry)):
        for families, _key, layout, _entries in by_kind[kind]:
            for chosen in product(*(by_family[f] for f in families)):
                found = dict(zip(families, chosen))
                assert len(fill(found, families, layout, poly, values)) > 0
                filled[kind] += 1
    assert filled == {"pairs": 1_728, "triples": 13_824}


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
    # families, and swapped targets pair sides of two families; every such
    # list, and lists that are missing a pairing, repeat one or come in
    # another order, get the whole-domain engine's outcome.
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
    for broken in cases:
        assert_same_outcomes(broken, poly)
