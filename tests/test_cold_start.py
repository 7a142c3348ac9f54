"""Fresh CLI processes: which engine modules each subcommand runs, the bytes
it prints, its error exits, and the benchmark tracer's view of the package.

``cell24.cli`` registers the engine modules lazily, so a cold process runs
only what its subcommand reads.  In-process tests import every engine module
before ``cell24.cli`` and never take that path, so these tests start their
own interpreters.  The tracer source is read here, never changed or imported
as a package (as in test_bench_contract).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cell24
from test_golden import DIGESTS, INVOCATIONS, REPORT_DIGESTS

SRC = Path(cell24.__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
REF = "146928"


def python(*args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def cli(*argv, cwd=None):
    return python("-m", "cell24.cli", *argv, cwd=cwd)


# Prints the cell24 submodules whose code has run: a lazily registered
# module is a ModuleType subclass until its first attribute read.
RAN_PROBE = (
    "import contextlib, io, json, sys, types\n"
    "import cell24.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = cell24.cli.main(sys.argv[1:])\n"
    "ran = [n[len('cell24.'):] for n, m in sorted(sys.modules.items())\n"
    "       if n.startswith('cell24.') and type(m) is types.ModuleType]\n"
    "print(json.dumps([status, ran]))\n"
)
PAIRINGS = {"census", "cli", "layout", "moebius", "polytope"}
GLUING = PAIRINGS | {"groups"}
HEAVY = {"cover", "cusps", "kirby", "stages"}


@pytest.mark.parametrize("argv, ran", [
    (["validate", REF], GLUING),
    (["pairings", REF], PAIRINGS | {"stages"}),
    (["cycles", REF], GLUING | {"stages"}),
    (["presentation", REF, "--fill"], GLUING | {"cusps", "stages"}),
    (["cusps", REF], GLUING | {"cusps", "flat3", "stages"}),
    (["cover", REF], GLUING | {"cover", "stages"}),
    (["invariants", REF], GLUING | HEAVY),
    (["kirby", REF, "--cover", "--fill", "--format", "json"], GLUING | HEAVY),
    (["trace", REF, "--script", "m35-cover-fill"], GLUING | HEAVY),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_subcommand_runs_only_its_modules(argv, ran):
    proc = python("-c", RAN_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [0, sorted(ran)]


# The cli-146928 benchmark invocations (the report directory below is the
# tenth) plus the unfilled presentation.
FRESH = ("validate", "pairings", "cycles", "presentation", "presentation-fill", "cusps",
         "cover", "invariants", "kirby-cover-fill-json", "trace")


@pytest.mark.parametrize("name", FRESH)
def test_fresh_process_output_is_unchanged(name):
    proc = cli(*INVOCATIONS[name])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]


def test_fresh_process_report_directory_is_unchanged(tmp_path):
    proc = cli("kirby", REF, "--cover", "--fill", "--format", "svg", "--panel", "all",
               "-o", "report", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    written = {
        name: hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path / "report"))
    }
    written["stdout"] = hashlib.sha256(proc.stdout).hexdigest()
    assert written == REPORT_DIGESTS


# The except clauses of ``main`` name only census and groups classes, so an
# error exit runs no module but groups that its command did not.
@pytest.mark.parametrize("argv, status, prefix", [
    (["validate", "ZZZ"], 2, "usage error: code must be"),
    (["cover", REF, "--alpha", "a"], 2, "usage error: the gluing letter"),
    (["trace", REF, "--script", "nope"], 2, "usage: cell24 trace"),
    (["kirby", REF, "--cover", "--fill", "--format", "svg", "--panel", "all", "-o", "-"],
     2, "usage: cell24"),
    (["cycles", REF, "-o", "/nonexistent/dir/out"],
     2, "usage error: cannot write"),
    (["cusps", "112124"], 1, "error: not a manifold gluing"),
    (["kirby", "2bec36", "--cover", "--fill"], 1,
     "error: no published filling words for code 2bec36\n"),
    (["validate", "046928"], 1, ""),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_fresh_process_errors(argv, status, prefix):
    proc = cli(*argv)
    assert proc.returncode == status
    assert proc.stderr.decode().startswith(prefix)
    assert b"Traceback" not in proc.stderr


def test_error_exit_runs_no_module_the_command_did_not():
    # cusps 112124 fails the gluing checks before any cusp work.
    proc = python("-c", RAN_PROBE, "cusps", "112124")
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [1, sorted(GLUING | {"stages"})]


def test_layout_imports_nothing():
    # The parser reads the vocabularies off layout, so it stays data only.
    proc = python("-c", "import sys; import cell24.layout; print('fractions' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, b"False\n"), proc.stderr.decode()


TRACER_PROBE = (
    "import json, sys, types\n"
    "import cell24.cli\n"
    "path = sys.argv[1]\n"
    "tracer = types.ModuleType('perfbench_tracer')\n"
    "exec(compile(open(path, encoding='utf-8').read(), path, 'exec'), tracer.__dict__)\n"
    "\n"
    "def lookup(name):\n"
    "    module_name, *path = name.split('.')\n"
    "    owner = sys.modules['cell24.' + module_name]\n"
    "    for attr in path[:-1]:\n"
    "        owner = getattr(owner, attr)\n"
    "    return owner.__dict__[path[-1]]\n"
    "\n"
    "names = [n for n in tracer.FUNCTIONS if n != tracer.IMPORT_SPAN]\n"
    "tr = tracer.Tracer()\n"
    "tr.install()\n"
    "wrapped = [lookup(n) for n in names]\n"
    "tr.uninstall()\n"
    "print(json.dumps([n for n, w in zip(names, wrapped) if w is lookup(n)]))\n"
)


def test_tracer_wraps_every_traced_function():
    # The tracer patches the modules in sys.modules once ``import cell24.cli``
    # returns; the lazily registered ones run when it looks them up.
    proc = python("-c", TRACER_PROBE, str(TRACER))
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == []


def test_every_submodule_is_registered():
    # A module left out would be missing from sys.modules when the tracer
    # patches, until some other module imports it.
    from cell24.cli import SUBMODULES

    package = Path(cell24.__file__).parent
    assert sorted(SUBMODULES) == sorted(
        p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "cli")
    )
