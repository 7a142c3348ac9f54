"""The benchmark looks up cell24 functions by name (perfbench/tracer.py);
a renamed or deleted one would break ``--trace 1`` runs.  The tracer's
source is read here, never changed or imported as a package."""

import importlib
import types
from pathlib import Path

from cell24 import census

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
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


def test_census_gluing_op_calls(pairings, cycles):
    # The census-gluing op's certificate call on the reference code.
    assert all(census.cycle_moebius_word(c, pairings).is_identity() for c in cycles)
