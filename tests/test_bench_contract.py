"""The benchmark looks up cell24 functions by name (perfbench/tracer.py)
and calls the gluing battery with fixed signatures (perfbench/run.py); a
renamed or deleted function, or a changed signature, would break its runs.
The benchmark's sources are read here, never changed or imported as a
package."""

import importlib
import types
from pathlib import Path

from cell24 import census, polytope

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracer = load("tracer")
    for name in tracer.FUNCTIONS:
        if name == tracer.IMPORT_SPAN:
            continue
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"cell24.{module_name}")
        if len(path) == 2:
            # Methods are patched on the class that defines them.
            owner = getattr(owner, path[0])
            assert callable(vars(owner).get(path[1])), name
        else:
            assert callable(getattr(owner, path[0], None)), name


def test_census_gluing_op_calls():
    # The census-gluing op's calls, exactly as it makes them (the polytope
    # passed positionally), checked by the benchmark's own gluing facts.
    facts = load("facts")
    for code, non_manifold in (("146928", None), ("a5e164", "edge orbit sizes")):
        poly = polytope.build_polytope()
        pairings = census.build_pairings(census.parse_code(code), poly)
        eps = census.orientation_character(pairings)
        cycles = census.ridge_cycles(pairings, poly)
        identities = [census.cycle_moebius_word(c, pairings).is_identity() for c in cycles]
        signs = [census.eps_of_word(c.relator, eps) for c in cycles]
        orbits = census.edge_classes(pairings, poly)
        assert facts.gluing_problems(cycles, identities, signs, orbits) == (
            [], non_manifold
        ), code
