"""Command-line front end.

Subcommands mirror the pipeline: validate, pairings, cycles, presentation,
cusps, cover, invariants, kirby, trace.  Each handler returns its exit
status, its JSON document and its text, both built from the same derived
data (one ``stages.CodeStages`` per call); ``main`` alone picks --format,
adds the final newline and writes to stdout or --output (``-o -`` is
stdout), so a file holds exactly the bytes stdout would get.  Under kirby
--format svg the text is one SVG panel; kirby --panel all writes all four
panels plus the JSON document into its --output directory.

Only cover and invariants take --alpha, and invariants checks it on every
stage, base and filled too; kirby --cover and trace glue along the default
of ``cover.gluing_letter``.
invariants --max-cosets bounds the enumeration of the filled stages only.

Exit codes: 0 success, 1 domain error (invalid code, failed condition,
failed trace step), 2 usage error (bad flags, --max-cosets below 1, an
unknown trace script, --panel all without an output directory, an --output
that cannot be written, malformed code text, a gluing letter that is not
orientation reversing).

The engine modules are registered lazily: each runs the first time one of
its attributes is read, so a cold process runs only what its subcommand
uses (kirby only for invariants, kirby and trace).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

import cell24

# Every submodule but this one, so that any of them can be looked up in
# sys.modules by name before the engine has run.
SUBMODULES = ("census", "cover", "cusps", "flat3", "groups", "kirby", "layout", "moebius",
              "polytope", "stages")


def _lazy(name):
    """cell24.<name>, registered so that its code runs the first time one of
    its attributes is read; a module already imported is returned as is."""
    full = f"cell24.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(cell24, name, module)
    return module


_modules = {name: _lazy(name) for name in SUBMODULES}
census, cover, cusps, groups, kirby, layout, stages = (
    _modules[n] for n in ("census", "cover", "cusps", "groups", "kirby", "layout", "stages")
)


def _word_json(word):
    return [{"gen": sym, "sign": sign} for sym, sign in word]


def _presentation_doc(pres):
    return {
        "generators": list(pres.generators),
        "relators": [_word_json(r) for r in pres.relators],
    }


def _write_file(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cycle_listing(cycles):
    """JSON entries and text rows of a ridge-cycle listing of any domain."""
    name, entries, rows = census.side_name, [], []
    for i, c in enumerate(cycles, 1):
        entries.append(
            {
                "nodes": [[name(a), name(p)] for a, p in c.nodes],
                "arrows": _word_json(c.arrows),
                "relator": _word_json(c.relator),
            }
        )
        steps = []
        for (a, p), (letter, sign) in zip(c.nodes, c.arrows):
            arrow = letter if sign == 1 else f"({letter})⁻¹"
            steps.append(f"{name(a)}∩{name(p)} -[{arrow}]->")
        steps.append(f"{name(c.nodes[0][0])}∩{name(c.nodes[0][1])}")
        rows.append(f"{i:2}. " + " ".join(steps))
    return entries, rows


# -- subcommand handlers ------------------------------------------------------
# Each returns (exit status, JSON document, text).


def cmd_validate(args):
    report = census.validate(args.code)
    doc = {
        "code": report.code,
        "ok": report.ok,
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in report.checks
        ],
        "cycle_lengths": report.cycle_lengths,
    }
    return (0 if report.ok else 1), doc, report.render()


def cmd_pairings(args):
    code = stages.CodeStages(args.code)
    eps = code.eps
    doc = []
    lines = [f"side pairings for code {args.code}"]
    for p in code.pairings:
        doc.append(
            {
                "letter": p.letter,
                "source": p.source.label,
                "target": p.target.label,
                "k": list(p.kpart),
                "orientation": eps[p.letter],
            }
        )
        k = "(" + ",".join(f"{s:+d}" for s in p.kpart) + ")"
        o = "preserving" if eps[p.letter] == 1 else "reversing"
        lines.append(f"  {p.letter}: {p.source.label:3} -> {p.target.label:3}  k={k}  {o}")
    return 0, doc, "\n".join(lines)


def cmd_cycles(args):
    cycles = census.ridge_cycles(stages.CodeStages(args.code).pairings)
    entries, rows = _cycle_listing(cycles)
    title = f"{len(cycles)} ridge cycles for code {args.code}"
    return 0, entries, "\n".join([title] + rows)


def cmd_presentation(args):
    base = stages.CodeStages(args.code).base
    pres = base.presentation
    if args.fill:
        pres = groups.add_relations(pres, base.fillings)
    return 0, _presentation_doc(pres), pres.render()


def cmd_cusps(args):
    code = stages.CodeStages(args.code)
    classes = code.classes
    stabs = [cusps.stabilizer_generators(c, code.pairings) for c in classes]
    choices = cusps.find_filling_translations(stabs)
    invariants = [cusps.cusp_invariants(s, code.eps) for s in stabs]
    alternates = cusps.published_alternate_fillings(code.pairings, classes)
    doc = []
    lines = [f"{len(classes)} cusps for code {args.code}"]
    for cls, stab, choice, inv in zip(classes, stabs, choices, invariants):
        doc.append(
            {
                "representative": [str(x) for x in cls.representative],
                "size": len(cls),
                "stabilizer_generators": [groups.word_str(w) for w, _ in stab.generators],
                "translation": groups.word_str(choice.chosen) if choice.chosen else None,
                "translation_alternates": [groups.word_str(w) for w in choice.alternates],
                "orientable": inv.orientable,
                "holonomy_order": inv.holonomy_order,
                "h1": {"torsion": list(inv.h1_torsion), "rank": inv.h1_rank},
                "label": inv.label,
            }
        )
        lines.append(f"  cusp at {cusps.point_text(cls.representative)} ({len(cls)} vertices)")
        lines.append(f"    stabilizer generators: {len(stab.generators)}")
        if choice.chosen:
            alts = ", ".join(groups.word_str(w) for w in choice.alternates) or "none"
            lines.append(
                f"    shortest translation: {groups.word_str(choice.chosen)} "
                f"(same-length alternates: {alts})"
            )
        h1 = groups.h1_text(inv.h1_torsion, inv.h1_rank)
        lines.append(
            f"    cross-section: orientable={inv.orientable} "
            f"holonomy order {inv.holonomy_order} H1 = {h1} "
            f"label {inv.label}"
        )
    for alt in alternates:
        lines.append(
            f"  published alternate translation {groups.word_str(alt.word)} for the "
            f"cusp at {cusps.point_text(alt.cusp.representative)} (valid: fixes a class "
            "vertex, pure translation)"
        )
    return 0, doc, "\n".join(lines)


def cmd_cover(args):
    code = stages.CodeStages(args.code, args.alpha)
    dc, cycles = code.double_cover, code.cover.cycles
    entries, rows = _cycle_listing(cycles)
    doc = {
        "alpha": dc.alpha,
        "boundary_sides": [census.side_name(s) for s in dc.boundary_sides],
        "pairings": [],
        "cycles": entries,
    }
    lines = [
        f"double cover of {args.code} glued along {dc.alpha}: "
        f"{len(dc.boundary_sides)} boundary sides, "
        f"{len(dc.pairings) - len(dc.domain.walls)} nontrivial pairings"
    ]
    for p in dc.pairings:
        source, target = census.side_name(p.source), census.side_name(p.target)
        rule = cover.rule(p, dc)
        doc["pairings"].append({"name": p.name, "source": source, "target": target, "rule": rule})
        lines.append(f"  {p.name}: {source} -> {target}  [{rule}]")
    lines.append(f"{len(cycles)} ridge cycles:")
    return 0, doc, "\n".join(lines + rows)


def cmd_invariants(args):
    code = stages.CodeStages(args.code, args.alpha)
    reports = [kirby.invariant_report(s, code, max_cosets=args.max_cosets)
               for s in ([args.stage] if args.stage else layout.STAGES)]
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
    return 0, doc, "\n".join(r.render() for r in reports)


def cmd_kirby(args):
    """Under --format svg the text is the panel's SVG; --panel all writes
    its own report directory and returns no text."""
    d = kirby.assemble_diagram(args.code, want_cover=args.cover, fill=args.fill)
    if args.format == "svg":
        if args.panel == "all":
            os.makedirs(args.output, exist_ok=True)
            for panel in layout.PANELS:
                _write_file(os.path.join(args.output, f"{panel}.svg"), kirby.export_svg(d, panel))
            _write_file(os.path.join(args.output, "diagram.json"), kirby.json_text(d))
            sys.stdout.write(
                f"wrote {', '.join(p + '.svg' for p in layout.PANELS)} and "
                f"diagram.json to {args.output}\n"
            )
            return 0, None, None
        return 0, kirby.export_json(d), kirby.export_svg(d, args.panel)
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
    for panel in layout.PANELS:
        count = sum(1 for h in d.two_handles if h.panel == panel)
        lines.append(f"  panel {panel}: {count} 2-handles")
    return 0, kirby.export_json(d), "\n".join(lines)


def cmd_trace(args):
    d = kirby.assemble_diagram(args.code, want_cover=True, fill=True)
    result = kirby.simplification_trace(d, layout.SHIPPED_SCRIPTS[args.script])
    counts = result.diagram.counts()
    doc = {
        "log": list(result.log),
        "final_counts": counts,
        "final_presentation": _presentation_doc(result.presentation),
    }
    lines = [
        f"trace {args.script} on the filled cover diagram of {args.code}",
        "note: moves are tracked on attaching words (cancellations rewrite, "
        "trivial words delete against 3-handles); planar isotopy is not modelled",
    ]
    lines += [f"  {entry}" for entry in result.log]
    lines.append(f"final: {result.presentation.render()}")
    lines.append(
        f"final handles: {counts['one_handles']} one / {counts['two_handles']} two / "
        f"{counts['three_handles']} three / {counts['four_handles']} four"
    )
    return 0, doc, "\n".join(lines)


# -- parser -------------------------------------------------------------------


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cell24",
        description="Exact engine for ideal 24-cell side-pairing codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("code", help="six-hex-digit side-pairing code")
        formats = ("text", "json", "svg") if name == "kirby" else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
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
    p.add_argument("--stage", choices=layout.STAGES, default=None)
    p.add_argument("--alpha")
    p.add_argument("--max-cosets", type=positive_int, default=100_000)
    p = add("kirby", cmd_kirby, help="Kirby diagram data and figures")
    p.add_argument("--cover", action="store_true", help="diagram of the double cover")
    p.add_argument("--fill", action="store_true", help="include filling 2-handles")
    p.add_argument("--panel", choices=layout.PANELS + ("all",), default="xy")
    p = add("trace", cmd_trace, help="replay a shipped cancellation script")
    p.add_argument("--script", required=True, choices=sorted(layout.SHIPPED_SCRIPTS))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "kirby" and args.format == "svg" and args.panel == "all"
            and args.output in (None, "-")):
        parser.error("--panel all needs --output DIR")
    try:
        status, doc, text = args.handler(args)
        if text is None:  # kirby --panel all wrote its report directory
            return status
        if args.format == "json":
            import json

            text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True)
        if not text.endswith("\n"):
            text += "\n"
        if args.output not in (None, "-"):
            _write_file(args.output, text)
            return status
    except (census.ParseError, census.GluingLetterError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        # The engine opens no files: this is an --output that cannot be written.
        sys.stderr.write(f"usage error: cannot write {exc.filename}: {exc.strerror}\n")
        return 2
    except (census.CensusError, groups.GroupError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
