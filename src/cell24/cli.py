"""Command-line front end.

Subcommands mirror the pipeline: validate, pairings, cycles, presentation,
cusps, cover, invariants, kirby, trace.  Text tables go to stdout by
default; --format json emits machine-readable documents, and the kirby
subcommand can render SVG panels (one panel, or all four plus the JSON
document into a directory).

Exit codes: 0 success, 1 domain error (invalid code, failed condition,
failed trace step), 2 usage error (bad flags, malformed code text, a
gluing letter that is not orientation reversing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census, cover as cover_mod, cusps, groups, kirby
from .census import CensusError, ParseError
from .groups import word_str
from .kirby import KirbyError


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True)


def _pairings(code: str):
    return census.build_pairings(census.parse_code(code))


def _word_json(word):
    return [{"gen": sym, "sign": sign} for sym, sign in word]


# -- subcommand handlers ------------------------------------------------------


def cmd_validate(args):
    report = census.validate(args.code)
    if args.format == "json":
        doc = {
            "code": report.code,
            "ok": report.ok,
            "checks": [
                {"name": n, "passed": p, "detail": d} for n, p, d in report.checks
            ],
            "cycle_lengths": report.cycle_lengths,
        }
        _write(_json_text(doc), args.output)
    else:
        _write(report.render(), args.output)
    return 0 if report.ok else 1


def cmd_pairings(args):
    pairings = _pairings(args.code)
    eps = census.orientation_character(pairings)
    if args.format == "json":
        doc = [
            {
                "letter": p.letter,
                "source": p.source.label,
                "target": p.target.label,
                "k": list(p.kpart),
                "orientation": eps[p.letter],
            }
            for p in pairings
        ]
        _write(_json_text(doc), args.output)
        return 0
    lines = [f"side pairings for code {args.code}"]
    for p in pairings:
        k = "(" + ",".join(f"{s:+d}" for s in p.kpart) + ")"
        o = "preserving" if eps[p.letter] == 1 else "reversing"
        lines.append(f"  {p.letter}: {p.source.label:3} -> {p.target.label:3}  k={k}  {o}")
    _write("\n".join(lines), args.output)
    return 0


def _cycle_rows(cycles, name_fn):
    rows = []
    for i, c in enumerate(cycles, 1):
        steps = []
        for (a, p), (letter, sign) in zip(c.nodes, c.arrows):
            arrow = letter if sign == 1 else f"({letter})⁻¹"
            steps.append(f"{name_fn(a)}∩{name_fn(p)} -[{arrow}]->")
        steps.append(f"{name_fn(c.nodes[0][0])}∩{name_fn(c.nodes[0][1])}")
        rows.append(f"{i:2}. " + " ".join(steps))
    return rows


def cmd_cycles(args):
    pairings = _pairings(args.code)
    cycles = census.ridge_cycles(pairings)
    if args.format == "json":
        doc = [
            {
                "nodes": [list(n) for n in c.nodes],
                "arrows": [{"gen": l, "sign": s} for l, s in c.arrows],
                "relator": _word_json(c.relator),
            }
            for c in cycles
        ]
        _write(_json_text(doc), args.output)
        return 0
    rows = [f"{len(cycles)} ridge cycles for code {args.code}"]
    rows += _cycle_rows(cycles, lambda s: s)
    _write("\n".join(rows), args.output)
    return 0


def cmd_presentation(args):
    pairings = _pairings(args.code)
    cycles, _orbits = census.require_manifold(pairings)
    pres = census.presentation(pairings, cycles)
    if args.fill:
        pres = groups.add_relations(
            pres, [w for _, w in kirby.filling_pairs(pairings)]
        )
    if args.format == "json":
        doc = {
            "generators": list(pres.generators),
            "relators": [_word_json(r) for r in pres.relators],
        }
        _write(_json_text(doc), args.output)
        return 0
    _write(pres.render(), args.output)
    return 0


def cmd_cusps(args):
    pairings = _pairings(args.code)
    census.require_manifold(pairings)
    eps = census.orientation_character(pairings)
    classes = cusps.vertex_classes(pairings)
    stabs = [cusps.stabilizer_generators(c, pairings) for c in classes]
    choices = cusps.find_filling_translations(pairings, stabs)
    invariants = [cusps.cusp_invariants(s, pairings, eps) for s in stabs]
    alternates = cusps.published_alternate_fillings(pairings, classes)
    if args.format == "json":
        doc = []
        for cls, stab, choice, inv in zip(classes, stabs, choices, invariants):
            doc.append(
                {
                    "representative": [str(x) for x in cls.representative],
                    "size": len(cls),
                    "stabilizer_generators": [word_str(w) for w, _ in stab.generators],
                    "translation": word_str(choice.chosen) if choice.chosen else None,
                    "translation_alternates": [word_str(w) for w in choice.alternates],
                    "orientable": inv.orientable,
                    "holonomy_order": inv.holonomy_order,
                    "h1": {"torsion": list(inv.h1_torsion), "rank": inv.h1_rank},
                    "label": inv.label,
                }
            )
        _write(_json_text(doc), args.output)
        return 0
    lines = [f"{len(classes)} cusps for code {args.code}"]
    for cls, stab, choice, inv in zip(classes, stabs, choices, invariants):
        rep = "(" + ",".join(str(x) for x in cls.representative) + ")"
        lines.append(f"  cusp at {rep} ({len(cls)} vertices)")
        lines.append(f"    stabilizer generators: {len(stab.generators)}")
        if choice.chosen:
            alts = ", ".join(word_str(w) for w in choice.alternates) or "none"
            lines.append(
                f"    shortest translation: {word_str(choice.chosen)} "
                f"(same-length alternates: {alts})"
            )
        h1 = " + ".join([f"Z/{t}" for t in inv.h1_torsion] + ["Z"] * inv.h1_rank)
        lines.append(
            f"    cross-section: orientable={inv.orientable} "
            f"holonomy order {inv.holonomy_order} H1 = {h1 or '0'} "
            f"label {inv.label}"
        )
    for alt in alternates:
        rep = "(" + ",".join(str(x) for x in alt.cusp.representative) + ")"
        lines.append(
            f"  published alternate translation {word_str(alt.word)} for the "
            f"cusp at {rep} (valid: fixes a class vertex, pure translation)"
        )
    _write("\n".join(lines), args.output)
    return 0


def cmd_cover(args):
    pairings = _pairings(args.code)
    eps = census.orientation_character(pairings)
    dc = cover_mod.build_double_cover(pairings, eps, args.alpha)
    census.require_manifold(pairings)
    cycles = cover_mod.cover_ridge_cycles(dc)
    if args.format == "json":
        doc = {
            "alpha": dc.alpha,
            "boundary_sides": [census.side_name(s) for s in dc.boundary_sides],
            "pairings": [
                {
                    "name": p.name,
                    "source": census.side_name(p.source),
                    "target": census.side_name(p.target),
                    "rule": p.rule,
                }
                for p in dc.pairings
            ],
            "cycles": [
                {
                    "nodes": [
                        [census.side_name(a), census.side_name(p)]
                        for a, p in c.nodes
                    ],
                    "arrows": [{"gen": n, "sign": s} for n, s in c.arrows],
                    "relator": _word_json(c.relator),
                }
                for c in cycles
            ],
        }
        _write(_json_text(doc), args.output)
        return 0
    lines = [
        f"double cover of {args.code} glued along {dc.alpha}: "
        f"{len(dc.boundary_sides)} boundary sides, "
        f"{sum(1 for p in dc.pairings if p.rule != 'wall')} nontrivial pairings"
    ]
    for p in dc.pairings:
        lines.append(
            f"  {p.name}: {census.side_name(p.source)} -> "
            f"{census.side_name(p.target)}  [{p.rule}]"
        )
    lines.append(f"{len(cycles)} ridge cycles:")
    lines += _cycle_rows(cycles, census.side_name)
    _write("\n".join(lines), args.output)
    return 0


def cmd_invariants(args):
    stages = [args.stage] if args.stage else list(kirby.STAGES)
    reports = [
        kirby.invariant_report(s, args.code, args.alpha, max_cosets=args.max_cosets)
        for s in stages
    ]
    if args.format == "json":
        doc = [
            {
                "stage": r.stage,
                "euler_characteristic": r.euler_characteristic,
                "h1": {"torsion": list(r.h1_torsion), "rank": r.h1_rank},
                "group_order": r.group_order,
                "orientable": r.orientable,
                "remark": r.candidate_remark,
            }
            for r in reports
        ]
        _write(_json_text(doc), args.output)
        return 0
    _write("\n".join(r.render() for r in reports), args.output)
    return 0


def cmd_kirby(args):
    d = kirby.assemble_diagram(
        args.code, want_cover=args.cover, fill=args.fill, alpha=args.alpha
    )
    if args.format == "svg":
        if args.panel == "all":
            if not args.output:
                raise KirbyError("--panel all needs --output DIR")
            os.makedirs(args.output, exist_ok=True)
            for panel in kirby.PANELS:
                path = os.path.join(args.output, f"{panel}.svg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(kirby.export_svg(d, panel))
            with open(
                os.path.join(args.output, "diagram.json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(kirby.json_text(d))
            sys.stdout.write(
                f"wrote {', '.join(p + '.svg' for p in kirby.PANELS)} and "
                f"diagram.json to {args.output}\n"
            )
            return 0
        _write(kirby.export_svg(d, args.panel), args.output)
        return 0
    if args.format == "json":
        _write(kirby.json_text(d), args.output)
        return 0
    counts = d.counts()
    lines = [
        f"{d.source} diagram for {args.code}"
        + (" (filled)" if args.fill else ""),
        f"  1-handles: {counts['one_handles']}",
        f"  2-handles: {counts['two_handles']} "
        f"(ridge {sum(1 for h in d.two_handles if h.origin == 'ridge')}, "
        f"filling {sum(1 for h in d.two_handles if h.origin == 'filling')}, "
        f"killing {sum(1 for h in d.two_handles if h.origin == 'killing')})",
        f"  3-handles: {counts['three_handles']}, 4-handles: {counts['four_handles']}",
    ]
    by_panel = {}
    for h in d.two_handles:
        by_panel.setdefault(h.panel, []).append(h.id)
    for panel in kirby.PANELS:
        ids = by_panel.get(panel, [])
        lines.append(f"  panel {panel}: {len(ids)} 2-handles")
    _write("\n".join(lines), args.output)
    return 0


def cmd_trace(args):
    if args.script not in kirby.SHIPPED_SCRIPTS:
        raise KirbyError(
            f"unknown script {args.script!r}; shipped: "
            f"{sorted(kirby.SHIPPED_SCRIPTS)}"
        )
    d = kirby.assemble_diagram(args.code, want_cover=True, fill=True, alpha=args.alpha)
    result = kirby.simplification_trace(d, kirby.SHIPPED_SCRIPTS[args.script])
    if args.format == "json":
        doc = {
            "log": list(result.log),
            "final_counts": result.diagram.counts(),
            "final_presentation": {
                "generators": list(result.presentation.generators),
                "relators": [_word_json(r) for r in result.presentation.relators],
            },
        }
        _write(_json_text(doc), args.output)
        return 0
    lines = [
        f"trace {args.script} on the filled cover diagram of {args.code}",
        "note: moves are tracked on attaching words (cancellations rewrite, "
        "trivial words delete against 3-handles); planar isotopy is not modelled",
    ]
    lines += [f"  {entry}" for entry in result.log]
    lines.append(f"final: {result.presentation.render()}")
    c = result.diagram.counts()
    lines.append(
        f"final handles: {c['one_handles']} one / {c['two_handles']} two / "
        f"{c['three_handles']} three / {c['four_handles']} four"
    )
    _write("\n".join(lines), args.output)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cell24",
        description="Exact engine for ideal 24-cell side-pairing codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("code", help="six-hex-digit side-pairing code")
        p.add_argument("--format", choices=("text", "json", "svg"), default="text")
        p.add_argument("--output", "-o", default=None, help="write to file (default stdout)")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, help="run the side-pairing validity battery")
    add("pairings", cmd_pairings, help="print the twelve side pairings")
    add("cycles", cmd_cycles, help="print the ridge cycles")
    p = add("presentation", cmd_presentation, help="fundamental-group presentation")
    p.add_argument("--fill", action="store_true", help="add the published filling relations")
    add("cusps", cmd_cusps, help="cusp classes, stabilizers, translations, invariants")
    p = add("cover", cmd_cover, help="orientable double cover pairings and cycles")
    p.add_argument("--alpha", help="orientation-reversing gluing letter (default: from the code)")
    p = add("invariants", cmd_invariants, help="invariant reports per stage")
    p.add_argument("--stage", choices=kirby.STAGES, default=None)
    p.add_argument("--alpha")
    p.add_argument("--max-cosets", type=int, default=100_000)
    p = add("kirby", cmd_kirby, help="Kirby diagram data and figures")
    p.add_argument("--cover", action="store_true", help="diagram of the double cover")
    p.add_argument("--fill", action="store_true", help="include filling 2-handles")
    p.add_argument("--alpha")
    p.add_argument("--panel", choices=kirby.PANELS + ("all",), default="xy")
    p = add("trace", cmd_trace, help="replay a shipped cancellation script")
    p.add_argument("--script", required=True)
    p.add_argument("--alpha")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, cover_mod.GluingLetterError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (CensusError, KirbyError, groups.GroupError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
