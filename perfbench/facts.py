"""Reference facts and output checks.

The facts about code 146928 are written by hand from the README's
"Reference results"; the census checks are facts about every side pairing
of the right-angled 24-cell.  Nothing here is captured from the
program under test.
Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET

REFERENCE_CODE = "146928"

FACTS = {
    "ridge_cycles": 24,
    "ridge_cycle_length": 4,
    "edge_orbits": 12,
    "reversing_letters": "efgh",
    "presentation_generators": 12,
    "presentation_relators": 24 + 5,
    "cusp_labels": ("B1", "B1", "B1", "B1", "B2"),
    "cover_generators": 23,
    "cover_relators": 48,
    # stage -> (chi, H1, group order); None where the README states nothing.
    "stages": {
        "base": (1, None, None),
        "cover": (2, None, None),
        "filled": (None, "Z/2 + Z/2", 4),
        "filled_cover": (2, "Z/2", 2),
        "degree2_of_filled_cover": (4, "0", 1),
    },
    "one_handles": 24,
    "two_handles_by_origin": {"ridge": 48, "filling": 5, "killing": 1},
    "ridge_handles_per_panel": 12,
    "panels": ("xy", "xz", "yz", "off"),
    "trace_final_handles": (1, 1),
}

# Any side pairing puts each of the 96 ridges in exactly one ridge cycle and
# each of the 96 edge faces in exactly one orbit.  Dihedral angles are right
# angles, so a cycle word can be the identity only when the cycle goes round
# its ridge a whole number of times (length a multiple of 4).  A right-angled
# ridge lies in 4 polytope copies, and the link of an edge is the 8 octants
# around it: a manifold gluing has every ridge cycle of length 4 with an
# identity cycle word, and 12 edge-face orbits of 8.
POINCARE = {"ridges": 96, "edge_faces": 96, "whole_turn": 4, "ridge_cycle_length": 4,
            "edge_orbit_size": 8, "edge_orbits": 12}

# The README invocations of the CLI workload.  "{out}" is a fresh directory.
CLI_COMMANDS = {
    "validate": ["validate", REFERENCE_CODE],
    "pairings": ["pairings", REFERENCE_CODE],
    "cycles": ["cycles", REFERENCE_CODE],
    "presentation": ["presentation", REFERENCE_CODE, "--fill"],
    "cusps": ["cusps", REFERENCE_CODE],
    "cover": ["cover", REFERENCE_CODE],
    "invariants": ["invariants", REFERENCE_CODE],
    "kirby-json": ["kirby", REFERENCE_CODE, "--cover", "--fill", "--format", "json"],
    "kirby-svg": ["kirby", REFERENCE_CODE, "--cover", "--fill", "--format", "svg",
                  "--panel", "all", "-o", "{out}"],
    "trace": ["trace", REFERENCE_CODE, "--script", "m35-cover-fill"],
}


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_validate(out, _dir, f):
    p = []
    _expect(p, "verdict", "PASS" in out.splitlines()[0] if out else False, True)
    m = re.search(r"ridge cycles: (\d+) cycles, lengths \{(\d+): (\d+)\}", out)
    want = (f["ridge_cycles"], f["ridge_cycle_length"], f["ridge_cycles"])
    _expect(p, "ridge cycles", m and tuple(int(x) for x in m.groups()), want)
    m = re.search(r"edge-face orbits: (\d+) orbits \(3-handles\), sizes \[([\d, ]*)\]", out)
    _expect(p, "edge-face orbits", m and int(m.group(1)), f["edge_orbits"])
    sizes = m and {int(x) for x in m.group(2).split(", ")}
    _expect(p, "edge-face orbit sizes", sizes, {POINCARE["edge_orbit_size"]})
    return p


def _check_pairings(out, _dir, f):
    p = []
    rows = re.findall(r"^  ([a-l]): .* (preserving|reversing)$", out, re.M)
    _expect(p, "pairings", len(rows), 12)
    reversing = "".join(sorted(letter for letter, o in rows if o == "reversing"))
    _expect(p, "reversing letters", reversing, f["reversing_letters"])
    return p


def _check_cycles(out, _dir, f):
    p = []
    rows = re.findall(r"^\s*\d+\. (.*)$", out, re.M)
    _expect(p, "ridge cycles", len(rows), f["ridge_cycles"])
    lengths = {row.count("]->") for row in rows}
    _expect(p, "cycle lengths", lengths, {f["ridge_cycle_length"]})
    return p


def _check_presentation(out, _dir, f):
    p = []
    m = re.search(r"gens: (.*) ; rels: (.*)$", out.strip())
    if not m:
        return ["presentation line not found"]
    _expect(p, "generators", len(m.group(1).split(",")), f["presentation_generators"])
    _expect(p, "relators", len(m.group(2).split(", ")), f["presentation_relators"])
    return p


def _check_cusps(out, _dir, f):
    labels = tuple(sorted(re.findall(r"label (\S+)$", out, re.M)))
    p = []
    _expect(p, "cusp labels", labels, tuple(sorted(f["cusp_labels"])))
    return p


def _check_cover(out, _dir, f):
    p = []
    m = re.search(r"(\d+) nontrivial pairings", out)
    _expect(p, "cover generators", m and int(m.group(1)), f["cover_generators"])
    m = re.search(r"^(\d+) ridge cycles:", out, re.M)
    _expect(p, "cover relators", m and int(m.group(1)), f["cover_relators"])
    return p


def _check_invariants(out, _dir, f):
    p = []
    found = {
        stage: (chi, h1, order)
        for stage, chi, h1, order in re.findall(
            r"^stage (\S+): chi = (\S+), H1 = (.*), group order = (\S+),", out, re.M
        )
    }
    for stage, (chi, h1, order) in f["stages"].items():
        if stage not in found:
            p.append(f"stage {stage} missing")
            continue
        got_chi, got_h1, got_order = found[stage]
        if chi is not None:
            _expect(p, f"{stage} chi", got_chi, str(chi))
        if h1 is not None:
            _expect(p, f"{stage} H1", got_h1, h1)
        if order is not None:
            _expect(p, f"{stage} group order", got_order, str(order))
    return p


def _diagram_problems(doc, f):
    p = []
    _expect(p, "1-handles", len(doc["one_handles"]), f["one_handles"])
    origins = {}
    per_panel = {}
    for h in doc["two_handles"]:
        origins[h["origin"]] = origins.get(h["origin"], 0) + 1
        if h["origin"] == "ridge":
            per_panel[h["panel"]] = per_panel.get(h["panel"], 0) + 1
    _expect(p, "2-handles by origin", origins, f["two_handles_by_origin"])
    want = {panel: f["ridge_handles_per_panel"] for panel in f["panels"]}
    _expect(p, "ridge 2-handles per panel", per_panel, want)
    return p


def _check_kirby_json(out, _dir, f):
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"diagram JSON does not parse: {exc}"]
    return _diagram_problems(doc, f)


def _check_kirby_svg(_out, out_dir, f):
    p = []
    for panel in f["panels"]:
        path = os.path.join(out_dir, f"{panel}.svg")
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            p.append(f"{panel}.svg: {exc}")
            continue
        _expect(p, f"{panel}.svg root", root.tag.rsplit("}", 1)[-1], "svg")
    try:
        with open(os.path.join(out_dir, "diagram.json"), encoding="utf-8") as fh:
            p += _diagram_problems(json.load(fh), f)
    except (OSError, ValueError) as exc:
        p.append(f"diagram.json: {exc}")
    return p


def _check_trace(out, _dir, f):
    p = []
    m = re.search(r"^final handles: (\d+) one / (\d+) two", out, re.M)
    _expect(p, "final handles", m and (int(m.group(1)), int(m.group(2))),
            f["trace_final_handles"])
    m = re.search(r"^final: gens: (\S+) ; rels: (\S+)$", out, re.M)
    if not m:
        return p + ["final presentation not found"]
    x, rel = m.groups()
    if rel not in (x + x, f"({x})⁻¹({x})⁻¹", x.swapcase() * 2):
        p.append(f"final relator {rel!r} is not the square of {x!r}")
    return p


CLI_CHECKS = {
    "validate": _check_validate,
    "pairings": _check_pairings,
    "cycles": _check_cycles,
    "presentation": _check_presentation,
    "cusps": _check_cusps,
    "cover": _check_cover,
    "invariants": _check_invariants,
    "kirby-json": _check_kirby_json,
    "kirby-svg": _check_kirby_svg,
    "trace": _check_trace,
}


def check_cli(name, returncode, out, out_dir, facts=FACTS):
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return CLI_CHECKS[name](out, out_dir, facts)
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        return [f"output has an unexpected shape: {exc!r}"]


def gluing_problems(cycles, identities, signs, orbits, rules=POINCARE):
    """Check the gluing data of one code; returns (problems, non_manifold).

    ``cycles`` are census's ridge cycles, ``identities`` and ``signs`` each
    cycle word's ``is_identity()`` and orientation character, ``orbits`` the
    edge-face orbits.  ``problems`` lists what breaks a fact that holds for
    every side pairing: the cycles partition the ridges, the orbits partition
    the edge faces, and a cycle word can be the identity only after whole
    turns of right angles and only if it preserves orientation.
    ``non_manifold`` names the first Poincare condition the gluing breaks,
    or is None for a manifold gluing.
    """
    p = []
    visited = [ridge for c in cycles for ridge in c.ridges]
    if len(visited) != rules["ridges"] or len(set(visited)) != rules["ridges"]:
        p.append(f"{len(set(visited))} ridges in {len(visited)} cycle places")
    faces = [face for o in orbits for face in o]
    if len(faces) != rules["edge_faces"] or len(set(faces)) != rules["edge_faces"]:
        p.append(f"{len(set(faces))} edge faces in {len(faces)} orbit places")
    for c, identity, sign in zip(cycles, identities, signs):
        if identity and (len(c) % rules["whole_turn"] or sign != 1):
            p.append(f"identity cycle word on a cycle of length {len(c)}, orientation {sign}")
    lengths = sorted({len(c) for c in cycles})
    sizes = sorted(len(o) for o in orbits)
    if lengths != [rules["ridge_cycle_length"]]:
        non_manifold = "ridge cycle lengths"
    elif not all(identities):
        non_manifold = "cycle word not the identity"
    elif len(sizes) != rules["edge_orbits"] or set(sizes) != {rules["edge_orbit_size"]}:
        non_manifold = "edge orbit sizes"
    else:
        non_manifold = None
    return p, non_manifold
