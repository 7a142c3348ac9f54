import xml.etree.ElementTree as ET

import pytest

from cell24 import census, cover, groups, kirby, stages
from cell24.groups import word_from_str
from cell24.kirby import (
    BookkeepingError,
    KirbyDiagram,
    NotCancellable,
    OneHandle,
    TraceError,
    TwoHandle,
    cancel_pair,
    delete_trivial,
    diagram_presentation,
    simplification_trace,
)
from cell24.cover import position
from cell24.layout import PANELS
from cell24.polytope import SIDE_CENTERS


@pytest.fixture(scope="module")
def base_diagram():
    return kirby.assemble_diagram("146928", want_cover=False, fill=False)


@pytest.fixture(scope="module")
def filled_cover_diagram():
    return kirby.assemble_diagram("146928", want_cover=True, fill=True)


def test_base_counts(base_diagram):
    assert base_diagram.counts() == {
        "one_handles": 12,
        "two_handles": 24,
        "three_handles": 12,
        "four_handles": 0,
    }
    assert sum(1 for h in base_diagram.two_handles if h.panel == "off") == 6


def test_cover_counts(filled_cover_diagram):
    d = filled_cover_diagram
    assert len(d.one_handles) == 24
    origins = {}
    for h in d.two_handles:
        origins[h.origin] = origins.get(h.origin, 0) + 1
    assert origins == {"killing": 1, "ridge": 48, "filling": 5}
    killing = d.two_handle("killing")
    assert killing.word == (("g⁻¹g", 1),)
    for h in d.two_handles:
        if h.origin == "filling":
            assert h.framing == 0
        else:
            assert h.framing is None
    ridge_off = sum(
        1 for h in d.two_handles if h.origin == "ridge" and h.panel == "off"
    )
    assert ridge_off == 12


def test_cover_panel_counts(filled_cover_diagram):
    per_panel = {}
    for h in filled_cover_diagram.two_handles:
        if h.origin == "ridge":
            per_panel[h.panel] = per_panel.get(h.panel, 0) + 1
    assert per_panel == {"xy": 12, "xz": 12, "yz": 12, "off": 12}
    by_id = {h.id: h for h in filled_cover_diagram.two_handles}
    assert by_id["killing"].panel == "xy"
    assert by_id["fill-a"].panel == "xy"
    assert by_id["fill-j"].panel == "xy"
    assert by_id["fill-c"].panel == "xz"
    assert by_id["fill-k"].panel == "xz"
    assert by_id["fill-EheH"].panel == "off"


def test_panel_recomputation_idempotent(filled_cover_diagram):
    by_label = {h.label: h for h in filled_cover_diagram.one_handles}
    for h in filled_cover_diagram.two_handles:
        assert kirby._panel_of(h.word, by_label) == h.panel


def _toy_diagram():
    z = position(SIDE_CENTERS["A"])
    one = (
        OneHandle("x", ("X", "X'"), (z, z)),
        OneHandle("y", ("Y", "Y'"), (z, z)),
    )
    two = (
        TwoHandle("t1", 0, word_from_str("x"), None, "xy", "ridge"),
        TwoHandle("t2", 1, word_from_str("xyXy"), None, "xy", "ridge"),
        TwoHandle("t3", 2, word_from_str("yy"), None, "xy", "ridge"),
    )
    return KirbyDiagram("base", one, two, three_handles=2, four_handles=0)


def test_cancel_pair_toy():
    d = _toy_diagram()
    d2 = cancel_pair(d, "x", "t1")
    assert [h.label for h in d2.one_handles] == ["y"]
    assert d2.two_handle("t2").word == word_from_str("yy")
    assert len(d.one_handles) + len(d.two_handles) == (
        len(d2.one_handles) + len(d2.two_handles) + 2
    )
    with pytest.raises(NotCancellable):
        cancel_pair(d, "y", "t2")  # y occurs twice
    with pytest.raises(NotCancellable):
        cancel_pair(d, "y", "t1")  # y does not occur at all


def test_cancel_rewrites_through_inverse_occurrence():
    z = position(SIDE_CENTERS["A"])
    one = (
        OneHandle("x", ("X", "X'"), (z, z)),
        OneHandle("y", ("Y", "Y'"), (z, z)),
    )
    two = (
        TwoHandle("t1", 0, word_from_str("yXy"), None, "xy", "ridge"),
        TwoHandle("t2", 1, word_from_str("xx"), None, "xy", "ridge"),
    )
    d = KirbyDiagram("base", one, two, 0, 0)
    d2 = cancel_pair(d, "x", "t1")
    # x = y y, so t2 becomes yyyy
    assert d2.two_handle("t2").word == word_from_str("yyyy")


def test_delete_trivial():
    d = _toy_diagram()
    assert delete_trivial(d) == d
    z = position(SIDE_CENTERS["A"])
    one = (OneHandle("y", ("Y", "Y'"), (z, z)),)
    two = (
        TwoHandle("once", 0, word_from_str("y"), None, "xy", "ridge"),
        TwoHandle("null1", 1, (), None, "xy", "ridge"),
        TwoHandle("null2", 2, (), None, "xy", "ridge"),
    )
    d = KirbyDiagram("base", one, two, three_handles=1, four_handles=0)
    with pytest.raises(BookkeepingError):
        delete_trivial(d)
    d_ok = KirbyDiagram("base", one, two, three_handles=2, four_handles=0)
    d4 = delete_trivial(d_ok)
    assert d4.three_handles == 0
    assert [h.id for h in d4.two_handles] == ["once"]


def test_shipped_trace_reaches_x_squared(filled_cover_diagram):
    result = simplification_trace(
        filled_cover_diagram, kirby.SHIPPED_SCRIPTS["m35-cover-fill"]
    )
    pres = result.presentation
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1
    relator = pres.relators[0]
    assert len(relator) == 2
    assert relator[0] == relator[1]  # x^2 up to overall inversion
    assert result.diagram.counts() == {
        "one_handles": 1,
        "two_handles": 1,
        "three_handles": 0,
        "four_handles": 1,
    }


def test_trace_preserves_abelianization(filled_cover_diagram):
    target = groups.abelianization(diagram_presentation(filled_cover_diagram))
    assert target == ((2,), 0)
    d = filled_cover_diagram
    for step in kirby.SHIPPED_SCRIPTS["m35-cover-fill"]:
        if step["op"] == "cancel":
            d = cancel_pair(d, step["one"], kirby._resolve_two_handle(d, step["two"]))
        else:
            d = delete_trivial(d)
        assert groups.abelianization(diagram_presentation(d)) == target


def test_trace_error_reports_step(filled_cover_diagram):
    script = [{"op": "cancel", "one": "a", "two": "cycle-01"}]
    with pytest.raises(TraceError) as exc:
        simplification_trace(filled_cover_diagram, script)
    assert exc.value.step_index == 0
    assert exc.value.diagram is filled_cover_diagram


def test_empty_script(filled_cover_diagram):
    result = simplification_trace(filled_cover_diagram, [])
    assert result.diagram == filled_cover_diagram


def test_json_roundtrip(filled_cover_diagram, base_diagram):
    for d in (filled_cover_diagram, base_diagram):
        doc = kirby.export_json(d)
        assert kirby.import_json(doc) == d
        assert len(doc["one_handles"]) == len(d.one_handles)
    empty = KirbyDiagram("base", (), (), 0, 0)
    assert kirby.import_json(kirby.export_json(empty)) == empty
    assert kirby.json_text(filled_cover_diagram) == kirby.json_text(
        kirby.import_json(kirby.export_json(filled_cover_diagram))
    )


# One manifold per default gluing letter.
LETTER_CODES = {"a": "67adec", "c": "ef276c", "e": "e7cd64", "g": "f5632c", "i": "e1276c",
                "k": "b4218c"}


def test_cover_diagram_for_every_gluing_letter(sample_codes):
    for letter, code in LETTER_CODES.items():
        assert cover.gluing_letter(stages.CodeStages(code).eps) == letter
    manifolds = [c for c in sample_codes if census.validate(c).ok]
    assert len(manifolds) == 13
    for code in list(LETTER_CODES.values()) + manifolds:
        d = kirby.assemble_diagram(code, want_cover=True)
        positions = [p for h in d.one_handles for p in h.positions]
        assert len(positions) == len(set(positions)) == 48, code
        assert kirby.import_json(kirby.export_json(d)) == d, code
        for panel in PANELS:
            svg = ET.fromstring(kirby.export_svg(d, panel))
            assert svg.tag == "{http://www.w3.org/2000/svg}svg", (code, panel)


def test_svg_deterministic_and_labelled(filled_cover_diagram):
    svg1 = kirby.export_svg(filled_cover_diagram, "xy")
    svg2 = kirby.export_svg(filled_cover_diagram, "xy")
    assert svg1 == svg2
    for label in (">A<", ">A'<", ">A-<", ">G<", ">G'-<"):
        assert label in svg1
    empty = KirbyDiagram("base", (), (), 0, 0)
    svg = kirby.export_svg(empty, "xy")
    assert svg.startswith("<?xml")
    with pytest.raises(kirby.KirbyError):
        kirby.export_svg(filled_cover_diagram, "diag")


def test_invariant_reports():
    code = stages.CodeStages("146928")
    base = kirby.invariant_report("base", code)
    assert base.euler_characteristic == 1
    assert base.group_order is None
    assert not base.orientable

    cov = kirby.invariant_report("cover", code)
    assert cov.euler_characteristic == 2
    assert cov.orientable

    filled = kirby.invariant_report("filled", code)
    assert filled.euler_characteristic is None
    assert filled.h1_torsion == (2, 2) and filled.h1_rank == 0
    assert filled.group_order == 4

    fc = kirby.invariant_report("filled_cover", code)
    assert fc.euler_characteristic == 2
    assert fc.h1_torsion == (2,) and fc.h1_rank == 0
    assert fc.group_order == 2

    top = kirby.invariant_report("degree2_of_filled_cover", code)
    assert top.euler_characteristic == 4
    assert top.h1_torsion == () and top.h1_rank == 0
    assert top.group_order == 1
    assert "S^2 x S^2" in top.candidate_remark

    with pytest.raises(kirby.KirbyError):
        kirby.invariant_report("nonsense", code)


def counting_todd_coxeter(monkeypatch):
    calls, enumerate_ = [], groups.todd_coxeter

    def counting(pres, max_cosets=100_000):
        calls.append(max_cosets)
        return enumerate_(pres, max_cosets)

    monkeypatch.setattr(groups, "todd_coxeter", counting)
    return calls


@pytest.mark.parametrize("code", ["146928", "ef276c", "a9e1d6"])
def test_unfilled_stages_are_not_enumerated(code, monkeypatch):
    # The base and cover groups are infinite whatever H1 is (a9e1d6 has
    # finite H1 on both), so their order is None with no enumeration.
    calls, ranks, built = counting_todd_coxeter(monkeypatch), [], stages.CodeStages(code)
    for stage in ("base", "cover"):
        report = kirby.invariant_report(stage, built, max_cosets=50)
        assert report.group_order is None
        assert "group order = inconclusive," in report.render()
        ranks.append(report.h1_rank)
    assert calls == []
    assert (ranks == [0, 0]) == (code == "a9e1d6")


def test_filled_stages_enumerate_once_within_max_cosets(monkeypatch):
    calls, code = counting_todd_coxeter(monkeypatch), stages.CodeStages("146928")
    orders = [kirby.invariant_report(stage, code, max_cosets=5_000).group_order
              for stage in ("filled", "filled_cover", "degree2_of_filled_cover")]
    assert orders == [4, 2, 1]
    assert calls == [5_000] * 3


def test_report_render():
    text = kirby.invariant_report("filled", stages.CodeStages("146928")).render()
    assert "Z/2 + Z/2" in text
    assert "order = 4" in text
