"""Acceptance gate: the thirteen shipping criteria for the reference code.

Every check is exact (integer/rational equality); the only tolerances are
the stated enumeration budgets.  Each criterion prints one PASS line when it
holds (run with -s to stream them).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import reference_tables as rt
from cell24 import census, cover, cusps, groups, kirby
from cell24.groups import word_from_str, word_str
from cell24.moebius import TRANSLATION


def report(n, text):
    print(f"[acceptance] criterion {n:2d} PASS - {text}")


def test_criterion_01_code_decoding(pairings):
    ks = census.parse_code("146928")
    assert ks == [
        (-1, 1, 1, 1),
        (1, 1, -1, 1),
        (1, -1, -1, 1),
        (-1, 1, 1, -1),
        (1, -1, 1, 1),
        (1, 1, 1, -1),
    ]
    by_letter = {p.letter: p for p in pairings}
    assert len(pairings) == 12
    for letter, src, k, tgt in rt.PAIRING_DISPLAY:
        p = by_letter[letter]
        assert (tuple(p.source.center), p.kpart, tuple(p.target.center)) == (
            tuple(Fraction(x) for x in src),
            k,
            tuple(Fraction(x) for x in tgt),
        )
    report(1, "code 146928 decodes to the six published k-vectors; "
              "all 12 source->target arrows match")


def test_criterion_02_ridge_cycles(pairings, cycles):
    assert len(cycles) == 24
    assert all(len(c) == 4 for c in cycles)
    mismatches = rt.check_base_table(pairings)
    assert sorted(mismatches) == [20, 24]  # known misprints only
    for row in (1, 2):
        assert rt.compare_row(
            rt.BASE_CYCLE_ROWS[row - 1],
            cycles[row - 1].nodes,
            cycles[row - 1].arrows,
            base=True,
        ) == []
    report(2, "24 length-4 cycles; published table reproduced "
              "(rows 1, 2 literal; only known misprints deviate)")


def test_criterion_03_poincare_certificate(
    pairings, cycles, double_cover, cover_cycles
):
    for c in cycles:
        assert census.cycle_moebius_word(c, pairings).is_identity()
    for c in cover_cycles:
        assert census.word_isometry(c.relator, double_cover.pairings).is_identity()
    report(3, "all 24 base and 48 cover relators certify as the identity "
              "by their integer Lorentz matrices")


def test_criterion_04_orientation(eps, cycles):
    for letter in "abcdijkl":
        assert eps[letter] == 1
    for letter in "efgh":
        assert eps[letter] == -1
    for c in cycles:
        assert census.eps_of_word(c.relator, eps) == 1
    report(4, "orientation character: -1 exactly on e,f,g,h; kills all 24 "
              "relators")


def test_criterion_05_cusps(pairings, cusp_classes):
    assert len(cusp_classes) == 5
    published = [
        ({(1, 0, 0, 0), (-1, 0, 0, 0)}, "c"),
        ({(0, 1, 0, 0), (0, -1, 0, 0)}, "a"),
        ({(0, 0, 1, 0), (0, 0, -1, 0)}, "k"),
        ({(0, 0, 0, 1), (0, 0, 0, -1)}, "i"),
    ]
    class_sets = [set(c.vertices) for c in cusp_classes]
    for members, _ in published:
        assert members in class_sets
    halves = next(s for s in class_sets if len(s) == 16)
    assert all(all(abs(x) == Fraction(1, 2) for x in v) for v in halves)

    fills = cusps.canonical_fillings(pairings, cusp_classes)
    assert sorted(word_str(f.word) for f in fills) == ["EheH", "a", "c", "i", "k"]
    for f in fills:
        assert f.classification == TRANSLATION
        assert f.fixed_vertex in f.cusp.vertices
    alts = cusps.published_alternate_fillings(pairings, cusp_classes)
    assert [word_str(a.word) for a in alts] == ["j"]
    assert alts[0].classification == TRANSLATION
    report(5, "5 cusp classes match the filling table; c,a,k,i,e⁻¹heh⁻¹ are "
              "pure translations; j validated as alternate")


def test_criterion_06_filling(base_presentation):
    fills = [word_from_str(t) for t in ("c", "a", "k", "i", "EheH")]
    filled = groups.add_relations(base_presentation, fills)
    assert groups.todd_coxeter(filled, 100_000) == 4
    assert groups.abelianization(filled) == ((2, 2), 0)
    simple = groups.tietze_simplify(filled)
    assert len(simple.generators) <= 3
    assert groups.abelianization(simple) == ((2, 2), 0)
    assert groups.todd_coxeter(simple, 100_000) == 4
    report(6, "filled group has order 4 and H1 = Z/2 + Z/2; Tietze reaches "
              f"{len(simple.generators)} generators with identical invariants")


def test_criterion_07_double_cover_two_ways(
    base_presentation, eps, double_cover, cover_cycles
):
    algebraic = groups.rs_double_cover(base_presentation, eps, "g")
    geometric = cover.cover_presentation(double_cover, cover_cycles)
    assert len(algebraic.generators) == 23 and len(algebraic.relators) == 48
    assert len(geometric.generators) == 23 and len(geometric.relators) == 48
    assert groups.abelianization(algebraic) == groups.abelianization(geometric)
    fills = [word_from_str(t) for t in ("c", "a", "k", "i", "EheH")]
    lifted = cover.lift_filling_words(fills, double_cover)
    filled = groups.add_relations(geometric, lifted)
    assert groups.abelianization(filled) == ((2,), 0)
    assert groups.todd_coxeter(filled, 100_000) == 2
    report(7, "double cover both ways: 23 generators / 48 relators, equal "
              "abelianizations; filled cover has H1 = Z/2 and order 2")


def test_criterion_08_cover_cycles(double_cover, cover_cycles):
    assert len(cover_cycles) == 48
    assert all(len(c) == 4 for c in cover_cycles)
    by_start = {c.nodes[0]: c for c in cover_cycles}
    for row in (1, 2, 25):
        text = rt.COVER_CYCLE_ROWS[row - 1]
        nodes, _ = rt.parse_row(text)
        cycle = by_start[(nodes[0][0], nodes[0][1])]
        assert rt.compare_row(text, cycle.nodes, cycle.arrows) == []
    cover_mismatch = rt.check_cover_table(double_cover)
    base_mismatch = rt.check_base_table(double_cover.base_pairings)
    # The two typos named in the source are flagged, not silently accepted:
    # the G∩I' terminus (base table row 20) and the hg exponent missing its
    # inverse (cover table row 46); recomputation also catches the same
    # exponent slip in cover row 44 and two more terminus slips.
    assert 20 in base_mismatch and "I'" in " ".join(base_mismatch[20])
    assert 46 in cover_mismatch and "hg" in " ".join(cover_mismatch[46])
    flagged = {("base", r) for r in base_mismatch} | {
        ("cover", r) for r in cover_mismatch
    }
    assert flagged == set(rt.KNOWN_TYPOS)
    report(8, "48 length-4 cover cycles; rows 1, 2, 25 literal; misprinted "
              "rows flagged (" + ", ".join(f"{t} {r}" for t, r in sorted(flagged)) + ")")


def test_criterion_09_euler_bookkeeping():
    chi = {
        stage: kirby.invariant_report(stage).euler_characteristic
        for stage in ("base", "cover", "degree2_of_filled_cover")
    }
    assert chi == {"base": 1, "cover": 2, "degree2_of_filled_cover": 4}
    top = kirby.invariant_report("degree2_of_filled_cover")
    assert top.h1_torsion == () and top.h1_rank == 0 and top.group_order == 1
    assert "S^2 x S^2" in top.candidate_remark
    report(9, "chi = 1 (base), 2 (cover), 4 (degree-2 cover of the filled "
              "cover); final stage simply connected")


def test_criterion_10_kirby_structure():
    d = kirby.assemble_diagram("146928", want_cover=True, fill=True)
    assert len(d.one_handles) == 24
    killing = [h for h in d.two_handles if h.origin == "killing"]
    assert len(killing) == 1 and killing[0].word == (("g⁻¹g", 1),)
    assert sum(1 for h in d.two_handles if h.origin == "ridge") == 48
    fillings = [h for h in d.two_handles if h.origin == "filling"]
    assert len(fillings) == 5 and all(h.framing == 0 for h in fillings)
    assert sum(1 for h in d.two_handles
               if h.origin == "ridge" and h.panel == "off") == 12
    base = kirby.assemble_diagram("146928", want_cover=False, fill=False)
    assert sum(1 for h in base.two_handles if h.panel == "off") == 6
    assert kirby.import_json(kirby.export_json(d)) == d
    assert kirby.export_svg(d, "xy") == kirby.export_svg(d, "xy")
    report(10, "filled cover diagram: 24 one-handles, killing handle over "
               "the wall pair, 48 + 5 two-handles (fillings framed 0), "
               "12 off-plane (6 for the base); JSON round-trips, SVG "
               "byte-deterministic")


def test_criterion_11_trace():
    d = kirby.assemble_diagram("146928", want_cover=True, fill=True)
    target = groups.abelianization(kirby.diagram_presentation(d))
    assert target == ((2,), 0)
    state = d
    for step in kirby.SHIPPED_SCRIPTS["m35-cover-fill"]:
        if step["op"] == "cancel":
            state = kirby.cancel_pair(
                state, step["one"], kirby._resolve_two_handle(state, step["two"])
            )
        else:
            state = kirby.delete_trivial(state)
        assert groups.abelianization(kirby.diagram_presentation(state)) == target
    pres = kirby.diagram_presentation(state)
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1
    assert len(pres.relators[0]) == 2
    assert pres.relators[0][0] == pres.relators[0][1]
    report(11, "shipped script replays the published cancellation order to "
               "<x | x^2>, preserving H1 = Z/2 at every step")


def test_criterion_12_edge_classes(pairings):
    orbits = census.edge_classes(pairings)
    assert len(orbits) == 12
    faces = [f for orbit in orbits for f in orbit]
    assert len(faces) == 96 and len(set(faces)) == 96
    assert 1 - 12 + 24 - 12 == 1  # chi cross-check
    report(12, "12 edge-face orbits partition the 96 codimension-3 faces; "
               "chi = 1 - 12 + 24 - 12 = 1")


def _minor_gcd(matrix, k):
    g = 0
    rows, cols = len(matrix), len(matrix[0])
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            sub = [[matrix[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, abs(round(_det(sub))))
    return g


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def test_criterion_13_toolkit_properties():
    rng = random.Random(97)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = groups.smith_normal_form(m)
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        prod = 1
        for k, dd in enumerate(diag, 1):
            prod *= dd
            assert prod == _minor_gcd(m, k)
    for _ in range(50):
        gens = tuple("abcd"[: rng.randint(1, 4)])
        rels = tuple(
            tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(0, 5))
        )
        p = groups.Presentation(gens, rels)
        assert groups.abelianization(groups.tietze_simplify(p)) == groups.abelianization(p)
    for _ in range(200):
        word = tuple(
            (rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
        )
        once = groups.free_reduce(word)
        assert groups.free_reduce(once) == once
    report(13, "SNF matches the determinantal-divisor oracle on 200 random "
               "matrices; Tietze preserves H1 on 50 random presentations; "
               "free reduction idempotent")
