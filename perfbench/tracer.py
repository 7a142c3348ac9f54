"""Spans around the public functions of cell24, recorded from outside.

The tracer replaces each traced function with a wrapper wherever callers
look it up: the attribute of its defining module, every ``cell24`` module
that imported it by name, and the class attribute for methods.  Each call
records a span (name, start, end, parent, op id).  Spans stay in memory and
are written once when the run ends; self time is a span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time

# Layer -> traced functions, as "<module>.<function>" or
# "<module>.<Class>.<method>".  "cli.import" is not a function: it is the
# span around ``import cell24.cli`` in a cold CLI process.
LAYERS = {
    "polytope": ("polytope.build_polytope", "cli.import"),
    "census": (
        "census.parse_code",
        "census.build_pairings",
        "census.ridge_cycles",
        "census.cycle_moebius_word",
        "census.edge_classes",
        "census.validate",
    ),
    "moebius": (
        "moebius.MoebiusWord.is_identity",
        "moebius.affine_parts",
        "moebius.classify_parabolic",
    ),
    "cusps": (
        "cusps.vertex_classes",
        "cusps.stabilizer_generators",
        "cusps.find_filling_translations",
        "cusps.cusp_invariants",
        "cusps.canonical_fillings",
    ),
    "flat3": ("flat3.holonomy_closure", "flat3.extension_h1", "flat3.classify_flat"),
    "cover": (
        "cover.build_double_cover",
        "cover.cover_ridge_cycles",
        "cover.cover_presentation",
        "cover.lift_filling_words",
    ),
    "groups": (
        "groups.abelianization",
        "groups.todd_coxeter",
        "groups.tietze_simplify",
        "groups.rs_double_cover",
    ),
    "kirby": (
        "kirby.assemble_diagram",
        "kirby.invariant_report",
        "kirby.simplification_trace",
        "kirby.json_text",
        "kirby.export_svg",
    ),
    "cli": ("cli.main",),
}

FUNCTIONS = tuple(name for names in LAYERS.values() for name in names)
IMPORT_SPAN = "cli.import"

# Counters of useful work per attempt, read off return values:
# name -> [attempts, useful] (ball sizes are summed into "useful").
COUNTER_NAMES = (
    "census.validate.accept",
    "groups.todd_coxeter.conclusive",
    "cusps.find_filling_translations.found",
    "cusps.find_filling_translations.ball",
)


def _observe(counters, name, result):
    if name == "census.validate":
        counters["census.validate.accept"][0] += 1
        counters["census.validate.accept"][1] += bool(result.ok)
    elif name == "groups.todd_coxeter":
        counters["groups.todd_coxeter.conclusive"][0] += 1
        counters["groups.todd_coxeter.conclusive"][1] += result is not None
    elif name == "cusps.find_filling_translations":
        for choice in result:
            counters["cusps.find_filling_translations.found"][0] += 1
            counters["cusps.find_filling_translations.found"][1] += choice.chosen is not None
            counters["cusps.find_filling_translations.ball"][0] += 1
            counters["cusps.find_filling_translations.ball"][1] += choice.searched


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counters = {name: [0, 0] for name in COUNTER_NAMES}
        self.op = None
        self._stack = []
        self._patches = None   # (owner, attribute, original, wrapper)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            _observe(tracer.counters, name, result)
            return result

        return traced

    def _find_patches(self):
        """Every place a traced function of a loaded cell24 module is looked up."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cell24" or n.startswith("cell24."))
        ]
        patches = []
        for name in FUNCTIONS:
            module_name, *path = name.split(".")
            module = sys.modules.get(f"cell24.{module_name}")
            if module is None or name == IMPORT_SPAN:
                continue
            if len(path) == 2:
                cls = getattr(module, path[0])
                original = cls.__dict__[path[1]]
                patches.append((cls, path[1], original, self._wrap(name, original)))
                continue
            original = getattr(module, path[0])
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        patches.append((m, attr, original, wrapper))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches or ():
            setattr(owner, attr, original)

    def records(self):
        return {"spans": self.spans, "counters": self.counters}

    def merge(self, records):
        """Add the records of another process (a traced CLI child)."""
        base = len(self.spans)
        for name, start, end, parent, op in records["spans"]:
            parent = None if parent is None else parent + base
            self.spans.append([name, start, end, parent, op])
        for name, (attempts, useful) in records["counters"].items():
            self.counters[name][0] += attempts
            self.counters[name][1] += useful


def self_times(spans):
    """name -> [calls, self seconds], summed over a list of spans."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    out = {name: [0, 0.0] for name in FUNCTIONS}
    for (name, start, end, _parent, _op), covered in zip(spans, child):
        out[name][0] += 1
        out[name][1] += (end - start) - covered
    return out
