"""Kirby diagram data model and exports.

Diagrams are algebraic shadows: dotted 1-handle pairs with exact layout
positions, 2-handle attaching words over the 1-handle labels with framings
and panel tags, and 3/4-handle counts.  Handle slides are not first-class
moves; cancelling a 1-handle rewrites every other attaching word through the
solved relation, which is exactly the slide bookkeeping the pictures do.

Handle-count conventions (all verified by the Euler characteristic):
an unfilled diagram has one 0-handle and no 4-handle; each boundary filling
contributes its zero-framed 2-handle plus one 3-handle, and closing the last
boundary adds one extra 3-handle and the single 4-handle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import census, cover as cover_mod, cusps, groups, stages
from .cover import MIRROR_X
# SHIPPED_SCRIPTS is re-exported: the trace tests read kirby.SHIPPED_SCRIPTS.
from .layout import PANELS, SHIPPED_SCRIPTS, STAGES
from .polytope import SIDE_CENTERS, SIDE_INDEX

# The coordinate that vanishes on each plane panel, and its value there.
PANEL_AXIS = {"xy": 2, "xz": 1, "yz": 0}
Z = (0, 0)


class KirbyError(census.CensusError):
    """A CensusError, so that ``cli.main`` catches it without running kirby."""


class NotCancellable(KirbyError):
    pass


class BookkeepingError(KirbyError):
    pass


class TraceError(KirbyError):
    def __init__(self, step_index, step, message, diagram):
        super().__init__(f"step {step_index} {step!r}: {message}")
        self.step_index = step_index
        self.step = step
        self.diagram = diagram


class OneHandle(NamedTuple):
    label: str               # pairing name
    sides: tuple             # display names of the two balls
    positions: tuple         # two layout triples of (a, b) pairs


class TwoHandle(NamedTuple):
    id: str
    color: int               # palette index; -1 for killing/filling handles
    word: tuple              # attaching word over 1-handle labels
    framing: int | None      # None = unspecified (ridge handles)
    panel: str
    origin: str              # "ridge" | "filling" | "killing"
    ridges: tuple = ()           # (sheet, side, side) triples for ridge handles


class KirbyDiagram(NamedTuple):
    source: str              # "base" | "cover"
    one_handles: tuple
    two_handles: tuple
    three_handles: int
    four_handles: int
    trace: tuple = ()

    def one_handle(self, label):
        h = next((h for h in self.one_handles if h.label == label), None)
        if h is None:
            raise KirbyError(f"no 1-handle {label!r}")
        return h

    def two_handle(self, hid):
        h = next((h for h in self.two_handles if h.id == hid), None)
        if h is None:
            raise KirbyError(f"no 2-handle {hid!r}")
        return h

    def counts(self):
        return {
            "one_handles": len(self.one_handles),
            "two_handles": len(self.two_handles),
            "three_handles": self.three_handles,
            "four_handles": self.four_handles,
        }


def _panel_of(word, handles_by_label) -> str:
    # The doubled copy is laid out by reflecting across x = 3, so its
    # "y-z plane" is the parallel plane at x = 6; each plane panel accepts
    # positions on either of its two copies.
    positions = []
    for sym, _sign in word:
        positions.extend(handles_by_label[sym].positions)
    if not positions:
        return "off"
    for panel, axis in PANEL_AXIS.items():
        if all(p[axis] == Z or (axis == 0 and p[axis] == MIRROR_X) for p in positions):
            return panel
    return "off"


def _assign_colors(two_handles):
    by_panel = {}
    out = []
    for h in two_handles:
        if h.origin != "ridge":
            out.append(h._replace(color=-1))
            continue
        idx = by_panel.get(h.panel, 0)
        by_panel[h.panel] = idx + 1
        out.append(h._replace(color=idx))
    return tuple(out)


def build_diagram(source, stage, layout, fillings=()) -> KirbyDiagram:
    """Kirby data of a ``stages.Stage``, read off its domain and its checked
    cycles and orbits: one 1-handle per pairing of the domain (the glued
    wall pairs included), a killing 2-handle over each wall, one 2-handle
    per ridge cycle, one 3-handle per edge-face orbit, plus zero-framed
    filling handles.  ``layout`` places a formal side (sheet, label)."""
    domain = stage.domain
    one_handles = tuple(
        OneHandle(
            label=name,
            sides=(census.side_name(s), census.side_name(t)),
            positions=(layout(s), layout(t)),
        )
        for name, s, t in domain.pairs
    )
    by_label = {h.label: h for h in one_handles}

    def handle(hid, word, origin, framing=None, ridges=()):
        # Colours are assigned per panel once every handle is known.
        return TwoHandle(hid, 0, word, framing, _panel_of(word, by_label), origin, ridges)

    two = [handle("killing" if i == 1 else f"killing-{i}", ((wall, 1),), "killing")
           for i, wall in enumerate(domain.walls, 1)]
    for i, c in enumerate(stage.cycles, 1):
        ridges = (sorted(r, key=lambda s: (s[0], SIDE_INDEX[s[1]])) for r in c.ridges)
        two.append(handle(
            f"cycle-{i:02d}", groups.free_reduce(tuple(reversed(c.arrows))), "ridge",
            ridges=tuple(sorted((a[0], a[1], b[1]) for a, b in ridges)),
        ))
    two += [handle(fid, tuple(word), "filling", framing=0) for fid, word in fillings]
    return KirbyDiagram(
        source=source,
        one_handles=one_handles,
        two_handles=_assign_colors(tuple(two)),
        three_handles=len(stage.orbits) + (len(fillings) + 1 if fillings else 0),
        four_handles=1 if fillings else 0,
    )


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


def cancel_pair(d: KirbyDiagram, one_label: str, two_id: str) -> KirbyDiagram:
    """Cancel a 1-handle against a 2-handle running over it exactly once.

    Every other attaching word is rewritten by substituting the solved
    1-handle letter (the algebraic shadow of the slides the pictures do).
    """
    d.one_handle(one_label)  # existence check
    two = d.two_handle(two_id)
    hits = [i for i, (sym, _s) in enumerate(two.word) if sym == one_label]
    if len(hits) != 1:
        raise NotCancellable(
            f"2-handle {two_id} runs over {one_label} {len(hits)} times"
        )
    replacement = groups.solve_relator(two.word, hits[0])
    new_two = tuple(
        h._replace(word=groups.substitute(h.word, one_label, replacement))
        for h in d.two_handles
        if h.id != two_id
    )
    return d._replace(
        one_handles=tuple(h for h in d.one_handles if h.label != one_label),
        two_handles=new_two,
        trace=d.trace + (f"cancel {one_label} with {two_id}",),
    )


def delete_trivial(d: KirbyDiagram) -> KirbyDiagram:
    """Delete every 2-handle whose attaching word is freely trivial; each
    deletion cancels one 3-handle."""
    trivial = [h for h in d.two_handles if not groups.free_reduce(h.word)]
    if not trivial:
        return d
    if d.three_handles < len(trivial):
        raise BookkeepingError(
            f"{len(trivial)} trivial 2-handles but only {d.three_handles} "
            "3-handles left"
        )
    return d._replace(
        two_handles=tuple(h for h in d.two_handles if groups.free_reduce(h.word)),
        three_handles=d.three_handles - len(trivial),
        trace=d.trace
        + tuple(f"delete trivial {h.id} (cancels a 3-handle)" for h in trivial),
    )


def diagram_presentation(d: KirbyDiagram) -> groups.Presentation:
    """1-handles as generators, 2-handle words as relators."""
    return groups.Presentation(
        generators=tuple(h.label for h in d.one_handles),
        relators=tuple(h.word for h in d.two_handles),
    )


class TraceResult(NamedTuple):
    diagram: KirbyDiagram
    presentation: groups.Presentation
    log: tuple


def _resolve_two_handle(d: KirbyDiagram, selector):
    if isinstance(selector, str):
        return d.two_handle(selector).id
    sheet = selector.get("sheet", 0)
    want = frozenset(selector["sides"])
    for h in d.two_handles:
        for ridge in h.ridges:
            if ridge[0] == sheet and frozenset(ridge[1:]) == want:
                return h.id
    raise KirbyError(f"no ridge 2-handle for selector {selector!r}")


def simplification_trace(d: KirbyDiagram, script) -> TraceResult:
    """Replay a script of cancel/delete steps, reporting the end state.

    Each step is checked at execution time; the first failing step raises
    TraceError carrying the diagram state reached so far.
    """
    log = []
    for i, step in enumerate(script):
        try:
            op = step["op"]
            if op == "cancel":
                two_id = _resolve_two_handle(d, step["two"])
                d = cancel_pair(d, step["one"], two_id)
                log.append(f"cancel ({step['one']}) with {two_id}")
            elif op == "delete_trivial":
                before = len(d.two_handles)
                d = delete_trivial(d)
                log.append(f"delete_trivial removed {before - len(d.two_handles)}")
            else:
                raise KirbyError(f"unknown trace op {op!r}")
        except KirbyError as exc:
            raise TraceError(i, step, str(exc), d) from exc
    return TraceResult(diagram=d, presentation=diagram_presentation(d), log=tuple(log))


# ---------------------------------------------------------------------------
# Pipeline assembly and invariant reports
# ---------------------------------------------------------------------------


def assemble_diagram(code: str, want_cover=False, fill=False):
    """Build the requested diagram for a code, which must give a manifold
    gluing.  The cover is glued along ``cover.gluing_letter``'s default."""
    code = stages.CodeStages(code)
    if want_cover:
        cover_mod.gluing_letter(code.eps)  # a usage error first
    code.manifold  # the gluing checks
    if not want_cover:
        fills = [(f"fill-{groups.word_str(w)}", w) for w in code.base.fillings] if fill else ()
        return build_diagram("base", code.base,
                             lambda side: cover_mod.position(SIDE_CENTERS[side[1]]), fills)
    fills = ()
    if fill:
        # Each cusp's published alternate (its first) replaces its filling word.
        words = code.base.fillings  # a code without published words fails here
        alternate = {a.cusp.representative: a.word for a in reversed(
            cusps.published_alternate_fillings(code.pairings, code.classes))}
        words = [alternate.get(c.representative, w) for c, w in zip(code.classes, words)]
        lifted = cover_mod.lift_filling_words(words, code.double_cover)
        fills = [(f"fill-{groups.word_str(w)}", lw) for w, lw in zip(words, lifted)]
    dc = code.double_cover
    return build_diagram("cover", code.cover, lambda side: cover_mod.cover_layout(side, dc), fills)


class InvariantReport(NamedTuple):
    stage: str
    euler_characteristic: int | None
    h1_torsion: tuple
    h1_rank: int
    group_order: int | None
    orientable: bool
    candidate_remark: str

    def render(self) -> str:
        chi = "n/a" if self.euler_characteristic is None else self.euler_characteristic
        h1 = groups.h1_text(self.h1_torsion, self.h1_rank)
        order = "inconclusive" if self.group_order is None else self.group_order
        return (
            f"stage {self.stage}: chi = {chi}, H1 = {h1}, "
            f"group order = {order}, orientable = {self.orientable}\n"
            f"  {self.candidate_remark}"
        )


REMARKS = {
    "base": "cusped census manifold; chi = 1 is the census datum",
    "filled": "closed filling along the five cusp translations",
    "cover": "orientable double cover; chi doubles to 2",
    "filled_cover": "filled orientable double cover; filling along flat cusps preserves chi",
    "degree2_of_filled_cover": "simply connected with chi = 4; the two remaining zero-framed "
    "2-handles form the standard diagram of S^2 x S^2 (Freedman/Donaldson classification "
    "quoted, not re-derived)",
}


def invariant_report(
    stage: str, code: stages.CodeStages, max_cosets: int = 100_000,
) -> InvariantReport:
    """Algebraic invariants at each stage of the construction, read off the
    parts of the code's base or cover ``Stage``; the code must give a
    manifold gluing.  The Euler characteristic of the
    base and of the cover is counted on the stage's domain, sheets -
    pairings + ridge cycles - edge-face orbits (the ideal vertices add no
    4-handle), and orientability is read off the orientation character;
    boundary filling along flat cusps leaves chi unchanged and the degree-2
    cover of the filled cover doubles it.  Only the filled stages are
    enumerated, within ``max_cosets``; the infinite base and cover groups
    report order None.
    """
    if stage not in STAGES:
        raise KirbyError(f"unknown stage {stage!r}; expected one of {STAGES}")
    part = code.base if stage in ("base", "filled") else code.cover
    cycles, orbits, domain = part.cycles, part.orbits, part.domain
    # One 2-handle per ridge cycle, one 3-handle per edge-face orbit.
    chi = domain.sheets - len(domain.pairs) + len(cycles) - len(orbits)
    pres = part.presentation
    # Published filling words exist only for the reference code, so they are
    # read only at the filled stages.
    filled = stage not in ("base", "cover")
    if filled:
        pres = groups.add_relations(pres, part.fillings)
    if stage == "filled":
        chi = None
    if stage == "degree2_of_filled_cover":
        # Degree-2 cover of the filled cover, handled algebraically: simplify
        # to a single generator of order two, then rewrite its kernel.
        simplified = groups.tietze_simplify(pres)
        if len(simplified.generators) != 1 or groups.abelianization(simplified) != ((2,), 0):
            raise KirbyError("filled cover did not simplify to a single order-2 generator")
        x = simplified.generators[0]
        pres, chi = groups.rs_double_cover(simplified, {x: -1}, x), 2 * chi
    torsion, rank = groups.abelianization(pres)
    # A manifold code's pairing group tiles H^4 with copies of the
    # finite-volume 24-cell, so it is infinite, as is the cover's, of index 2
    # in it (each cusp also gives a Z^3).  That holds per stage, whatever H1
    # is: a9e1d6 has finite H1 on both unfilled stages.
    order = groups.todd_coxeter(pres, max_cosets) if filled else None
    orientable = part is code.cover or -1 not in code.eps.values()
    return InvariantReport(stage, chi, torsion, rank, order, orientable, REMARKS[stage])


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _coord_json(x):
    return [f"{c.numerator}/{c.denominator}" for c in x]


def _coord_from_json(pair):
    return tuple(Fraction(c) for c in pair)


def export_json(d: KirbyDiagram) -> dict:
    return {
        "source": d.source,
        "one_handles": [
            {
                "label": h.label,
                "sides": list(h.sides),
                "pos": [[_coord_json(c) for c in p] for p in h.positions],
            }
            for h in d.one_handles
        ],
        "two_handles": [
            {
                "id": h.id,
                "color": h.color,
                "word": [{"handle": sym, "sign": s} for sym, s in h.word],
                "framing": h.framing,
                "panel": h.panel,
                "origin": h.origin,
                "ridges": [list(r) for r in h.ridges],
            }
            for h in d.two_handles
        ],
        "three_handles": d.three_handles,
        "four_handles": d.four_handles,
        "trace": list(d.trace),
    }


def import_json(doc: dict) -> KirbyDiagram:
    return KirbyDiagram(
        source=doc["source"],
        one_handles=tuple(
            OneHandle(
                label=h["label"],
                sides=tuple(h["sides"]),
                positions=tuple(
                    tuple(_coord_from_json(c) for c in p) for p in h["pos"]
                ),
            )
            for h in doc["one_handles"]
        ),
        two_handles=tuple(
            TwoHandle(
                id=h["id"],
                color=h["color"],
                word=tuple((w["handle"], w["sign"]) for w in h["word"]),
                framing=h["framing"],
                panel=h["panel"],
                origin=h["origin"],
                ridges=tuple(tuple(r) for r in h["ridges"]),
            )
            for h in doc["two_handles"]
        ),
        three_handles=doc["three_handles"],
        four_handles=doc["four_handles"],
        trace=tuple(doc["trace"]),
    )


def json_text(d: KirbyDiagram) -> str:
    return json.dumps(export_json(d), indent=2, sort_keys=True, ensure_ascii=True)


# Twelve named colours, matching the published legend names.
PALETTE = (
    ("orange", "#e69f00"),
    ("brown", "#8c510a"),
    ("turquoise", "#40e0d0"),
    ("yellow", "#f0e442"),
    ("dark green", "#006400"),
    ("light green", "#90ee90"),
    ("green", "#009e73"),
    ("pink", "#cc79a7"),
    ("grey", "#999999"),
    ("red", "#d55e00"),
    ("blue", "#0072b2"),
    ("black", "#000000"),
)


def _project(pos, panel):
    x, y, z = (float(a) + float(b) * 2 ** 0.5 for a, b in pos)
    if panel == "xy":
        u, v = x, y
    elif panel == "xz":
        u, v = x, z
    elif panel == "yz":
        u, v = y, z
    else:
        u, v = x - 0.35 * z, y - 0.35 * z
    return u, v


def export_svg(d: KirbyDiagram, panel: str) -> str:
    """One static panel: dotted circles for the 1-handle balls, a chord
    polyline per 2-handle in its colour, and a legend.  Output is a pure
    function of the input."""
    if panel not in PANELS:
        raise KirbyError(f"unknown panel {panel!r}; expected one of {PANELS}")
    handles = [h for h in d.two_handles if h.panel == panel]
    by_label = {h.label: h for h in d.one_handles}
    shown = set()
    for h in handles:
        for sym, _s in h.word:
            shown.add(sym)
    circles = []
    axis = PANEL_AXIS.get(panel)
    for oh in d.one_handles:
        in_plane = axis is not None and all(p[axis] == Z for p in oh.positions)
        if oh.label in shown or in_plane:
            circles.append(oh)

    scale, margin = 60.0, 80.0
    pts = [
        _project(p, panel) for oh in circles for p in oh.positions
    ] or [(0.0, 0.0)]
    min_u = min(u for u, _ in pts)
    max_v = max(v for _, v in pts)

    def at(pos):
        u, v = _project(pos, panel)
        return (margin + scale * (u - min_u), margin + scale * (max_v - v))

    legend_h = 22 * (len(handles) + 1)
    width = margin * 2 + scale * (max(u for u, _ in pts) - min_u)
    height = margin * 2 + scale * (max_v - min(v for _, v in pts)) + legend_h
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<title>{d.source} diagram, {panel} panel</title>',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    # (legend name, stroke) per handle; killing and filling handles are dashed black.
    colors = [
        ("dashed black", "#000000") if h.color < 0 else PALETTE[h.color % len(PALETTE)]
        for h in handles
    ]
    for h, (_name, color) in zip(handles, colors):
        dash = ' stroke-dasharray="6 4"' if h.origin != "ridge" else ""
        chain = []
        for sym, s in h.word:
            a, b = by_label[sym].positions
            entry, exit_ = (a, b) if s == 1 else (b, a)
            chain.append((at(entry), at(exit_)))
        if not chain:
            continue
        points = []
        for (entry, exit_) in chain:
            points.append(entry)
            points.append(exit_)
        points.append(chain[0][0])
        path = " ".join(f"{u:.2f},{v:.2f}" for u, v in points)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2"{dash} '
            f'points="{path}"/>'
        )
    for oh in circles:
        for name, pos in zip(oh.sides, oh.positions):
            u, v = at(pos)
            out.append(
                f'<circle cx="{u:.2f}" cy="{v:.2f}" r="14" fill="none" '
                f'stroke="black" stroke-dasharray="3 3"/>'
            )
            out.append(
                f'<text x="{u:.2f}" y="{v + 4:.2f}" font-size="11" '
                f'text-anchor="middle">{name}</text>'
            )
    ly = height - legend_h + 10
    out.append(
        f'<text x="{margin:.2f}" y="{ly:.2f}" font-size="12" '
        f'font-weight="bold">2-handles ({panel})</text>'
    )
    for i, (h, (cname, color)) in enumerate(zip(handles, colors), 1):
        y = ly + 18 * i
        out.append(
            f'<rect x="{margin:.2f}" y="{y - 9:.2f}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        word = groups.word_str(h.word)
        framing = "-" if h.framing is None else str(h.framing)
        out.append(
            f'<text x="{margin + 18:.2f}" y="{y:.2f}" font-size="11">'
            f"{h.id} [{cname}] framing {framing}: {word}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
