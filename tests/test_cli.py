import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import cell24
from cell24 import census, cover, cusps, flat3, groups, kirby, stages
from cell24.cli import main
from cell24.polytope import Polytope24


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "146928")
    assert code == 0
    assert "PASS" in out


def test_validate_usage_error(capsys):
    code, _, err = run(capsys, "validate", "ZZZ")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("text", ["１４６９２８", "١٤٦٩٢٨"])
def test_validate_non_ascii_digits_are_a_usage_error(capsys, text):
    code, out, err = run(capsys, "validate", text)
    assert code == 2 and out == ""
    assert "usage error" in err and "hex digits" in err


def test_validate_uppercase_hex(capsys):
    code, out, _ = run(capsys, "validate", "EF276C")
    assert code == 0
    assert out == run(capsys, "validate", "ef276c")[1].replace("ef276c", "EF276C")


def test_validate_domain_error(capsys):
    code, out, _ = run(capsys, "validate", "046928")
    assert code == 1
    assert "FAIL" in out


def test_pairings(capsys):
    code, out, _ = run(capsys, "pairings", "146928")
    assert code == 0
    assert "a: A   -> A'" in out
    assert "reversing" in out


def test_cycles_text(capsys):
    code, out, _ = run(capsys, "cycles", "146928")
    assert code == 0
    assert "24 ridge cycles" in out
    assert "A∩C -[a]-> A'∩D -[d]-> A'∩D' -[(a)⁻¹]-> A∩C' -[(c)⁻¹]-> A∩C" in out


def test_cycles_json(capsys):
    code, out, _ = run(capsys, "cycles", "146928", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 24
    assert doc[0]["relator"]


def test_presentation(capsys):
    code, out, _ = run(capsys, "presentation", "146928")
    assert code == 0
    assert out.startswith("gens: a,b,c,d,e,f,g,h,i,j,k,l ;")
    code, out, _ = run(capsys, "presentation", "146928", "--fill")
    assert code == 0
    assert out.count(",") >= 11


def test_cusps(capsys):
    code, out, _ = run(capsys, "cusps", "146928")
    assert code == 0
    assert "5 cusps" in out
    assert "label B2" in out
    assert "published alternate translation j" in out


def test_cover(capsys):
    code, out, _ = run(capsys, "cover", "146928")
    assert code == 0
    assert "46 boundary sides" in out
    assert "g⁻¹e: E -> E'-" in out


def test_invariants_stage(capsys):
    code, out, _ = run(capsys, "invariants", "146928", "--stage", "filled")
    assert code == 0
    assert "H1 = Z/2 + Z/2" in out
    assert "order = 4" in out


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "146928", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["stage"] for r in doc] == list(
        ("base", "cover", "filled", "filled_cover", "degree2_of_filled_cover")
    )
    assert doc[-1]["euler_characteristic"] == 4


def test_kirby_text(capsys):
    code, out, _ = run(capsys, "kirby", "146928", "--cover", "--fill")
    assert code == 0
    assert "1-handles: 24" in out


def test_kirby_json(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "kirby", "146928", "--cover", "--fill", "--format", "json",
        "-o", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["one_handles"]) == 24


def test_kirby_svg_panel(capsys, tmp_path):
    path = tmp_path / "p.svg"
    code, _, _ = run(
        capsys, "kirby", "146928", "--cover", "--fill", "--format", "svg",
        "--panel", "xz", "-o", str(path),
    )
    assert code == 0
    assert path.read_text().startswith("<?xml")


def test_kirby_svg_report_dir(capsys, tmp_path):
    outdir = tmp_path / "report"
    code, out, _ = run(
        capsys, "kirby", "146928", "--cover", "--fill", "--format", "svg",
        "--panel", "all", "-o", str(outdir),
    )
    assert code == 0
    names = sorted(os.listdir(outdir))
    assert names == ["diagram.json", "off.svg", "xy.svg", "xz.svg", "yz.svg"]


def test_trace(capsys):
    code, out, _ = run(capsys, "trace", "146928", "--script", "m35-cover-fill")
    assert code == 0
    assert "final: gens: g⁻¹e ; rels: (g⁻¹e)⁻¹(g⁻¹e)⁻¹" in out


def test_trace_unknown_script(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "146928", "--script", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_report_directory_needs_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kirby", "146928", "--cover", "--fill", "--format", "svg", "--panel", "all"])
    assert exc.value.code == 2
    assert "--panel all needs --output DIR" in capsys.readouterr().err


def test_report_directory_on_stdout_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # -o - means stdout everywhere, so --panel all has no directory to write.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["kirby", "146928", "--cover", "--fill", "--format", "svg", "--panel", "all",
              "-o", "-"])
    assert exc.value.code == 2
    assert "--panel all needs --output DIR" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["kirby", "146928", "--cover", "--alpha", "g"],
    ["trace", "146928", "--script", "m35-cover-fill", "--alpha", "g"],
])
def test_alpha_only_on_cover_and_invariants(capsys, argv):
    # kirby and trace glue along the default letter, g whenever it reverses
    # orientation, so they take no --alpha.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha g" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "validate", "146928", "-o", str(missing))
    assert code == 2 and out == ""
    assert err == f"usage error: cannot write {missing}: No such file or directory\n"


def test_report_directory_over_a_file_is_a_usage_error(capsys, tmp_path):
    existing = tmp_path / "report"
    existing.write_text("kept\n")
    code, _, err = run(
        capsys, "kirby", "146928", "--cover", "--fill", "--format", "svg",
        "--panel", "all", "-o", str(existing),
    )
    assert code == 2
    assert err.startswith(f"usage error: cannot write {existing}: ")
    assert existing.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["invariants", "146928", "--max-cosets", "0"],
    ["invariants", "146928", "--stage", "base", "--max-cosets", "-5"],
])
def test_max_cosets_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --max-cosets: must be at least 1" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["cycles"])  # missing code
    assert exc.value.code == 2


def test_validate_rejects_non_manifold(capsys):
    code, out, _ = run(capsys, "validate", "a5e164")
    assert code == 1
    assert "[FAIL] edge-face orbits" in out


def test_cusps_computes_each_move_table_once(capsys, monkeypatch, reset_tables):
    # cusps traces the gluing, the vertex classes and each cusp's stabilizer
    # through the same 24 moves, and the cover, invariants, kirby and trace
    # commands build the cover over them; from fresh tables each command
    # computes each move's action once, into the code's family records.
    # pairings reads no move.
    action, calls = Polytope24.action, []
    monkeypatch.setattr(
        Polytope24, "action", lambda self, *key: calls.append(key) or action(self, *key)
    )
    for argv, moves in (
        (["pairings", "146928"], 0),
        (["cusps", "146928"], 24),
        (["cover", "146928"], 24),
        (["invariants", "146928"], 24),
        (["kirby", "146928", "--cover", "--fill"], 24),
        (["trace", "146928", "--script", "m35-cover-fill"], 24),
    ):
        reset_tables()
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == len(set(calls)) == moves, argv


def count_calls(monkeypatch, functions):
    """Patch each (module, name) of ``functions`` to count its calls by name."""
    calls = Counter()
    for module, name in functions:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=original, _n=name, **k: calls.update([_n]) or _f(*a, **k)
        )
    return calls


def test_cusps_builds_each_cusp_group_once(capsys, monkeypatch):
    # Each stabilizer generator's affine part and its inverse's are computed
    # once, and each of the five cusps closes its holonomy once.
    calls = count_calls(monkeypatch, ((flat3, "holonomy_closure"), (cusps, "affine_parts")))
    assert run(capsys, "cusps", "146928")[0] == 0
    assert calls == {"holonomy_closure": 5, "affine_parts": 106}


def test_cover_builds_its_generator_names_once(capsys, monkeypatch):
    # The Reidemeister-Schreier name table is built once per double cover
    # (kept on DoubleCover.names) and once per rewritten presentation: an
    # invariants call builds one cover for its five stages and rewrites the
    # filled cover's presentation once.
    name = "double_cover_generator_names"
    calls = count_calls(monkeypatch, ((groups, name), (cover, name)))
    assert run(capsys, "invariants", "146928")[0] == 0
    assert calls[name] == 2
    calls.clear()
    assert run(capsys, "kirby", "146928", "--cover", "--fill")[0] == 0
    assert calls[name] == 1


def test_invariants_build_each_shared_stage_once(capsys, monkeypatch):
    # The five stages of one invariants call read the pairings, the gluing
    # checks, the cusp classes, the published fillings and each stage's
    # domain, cycles, presentation and lifted fillings off one per-code object.
    shared = ((census, "build_pairings"), (census, "require_manifold"),
              (cusps, "vertex_classes"), (cusps, "canonical_fillings"),
              (census, "base_domain"), (census, "presentation"),
              (cover, "build_double_cover"), (cover, "cover_ridge_cycles"),
              (cover, "cover_presentation"), (cover, "lift_filling_words"))
    calls = count_calls(monkeypatch, shared)
    assert run(capsys, "invariants", "146928")[0] == 0
    assert calls == dict.fromkeys((name for _module, name in shared), 1)


@pytest.mark.parametrize("argv, want", [
    ("kirby 146928", {"domain_cycles": 0, "domain_orbits": 0}),
    ("kirby 146928 --cover --fill", {"cover_ridge_cycles": 1, "cover_presentation": 0}),
    ("trace 146928 --script m35-cover-fill", {"cover_ridge_cycles": 1, "cover_presentation": 0}),
    ("cover 146928", {"domain_orbits": 0, "cover_presentation": 0}),
])
def test_subcommands_read_only_the_stage_parts_they_print(capsys, monkeypatch, argv, want):
    # A diagram reads its stage's cycles and orbits, the base's off the
    # census tables, and no subcommand builds a part its output omits.
    calls = count_calls(monkeypatch, ((census if name.startswith("domain") else cover, name)
                                      for name in want))
    assert run(capsys, *argv.split())[0] == 0
    assert {name: calls[name] for name in want} == want


def test_cover_diagram_for_any_gluing_letter(capsys, monkeypatch):
    # ef276c glues its cover along c: its cover diagram is laid out, and
    # trace fails only for want of filling words, before the cover is built.
    code, out, err = run(capsys, "kirby", "ef276c", "--cover")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "cover diagram for ef276c"
    calls = count_calls(monkeypatch, [(cover, "build_double_cover")])
    assert run(capsys, "trace", "ef276c", "--script", "m35-cover-fill") == (
        1, "", "error: no published filling words for code ef276c\n")
    assert calls == {}


def test_cusp_geometry_error_is_a_domain_error(capsys, monkeypatch):
    # eca824 is not a manifold; past the gluing check its cusp point groups
    # have no supported structure, which must end in a one-line error, not a
    # traceback.
    monkeypatch.setattr(census, "require_manifold", lambda pairings: None)
    code, out, err = run(capsys, "cusps", "eca824")
    assert code == 1
    assert out == ""
    assert err == "error: unexpected cusp point group structure\n"


def test_cover_non_reversing_alpha_is_a_usage_error(capsys):
    code, _, err = run(capsys, "cover", "146928", "--alpha", "a")
    assert code == 2
    assert err.startswith("usage error: the gluing letter must be orientation reversing")
    assert run(capsys, "cover", "146928", "--alpha", "z")[0] == 2


@pytest.mark.parametrize("stage", ["base", "filled", "cover", None])
@pytest.mark.parametrize("alpha", ["a", "z"])
def test_every_stage_rejects_a_non_reversing_alpha(capsys, stage, alpha):
    # A given letter is checked once per code, so the stages that never
    # read the cover reject it too.
    argv = ["invariants", "146928", "--alpha", alpha] + (["--stage", stage] if stage else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: the gluing letter must be orientation reversing, got {alpha!r}\n"


def test_cusps_names_failed_gluing_condition(capsys):
    code, out, err = run(capsys, "cusps", "eca824")
    assert code == 1
    assert out == ""
    assert err == (
        "error: not a manifold gluing: the edge-face orbits check fails "
        "(15 orbits (3-handles), sizes [4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8])\n"
    )
    # The subcommands built on the gluing run the same checks first; the
    # diagnostics (cycles, pairings) still print.
    for argv in (
        ["cover", "a5e164"],
        ["presentation", "a5e164"],
        ["kirby", "a5e164"],
        ["kirby", "a5e164", "--cover"],
        ["trace", "a5e164", "--script", "m35-cover-fill"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == (
            "error: not a manifold gluing: the edge-face orbits check fails "
            "(13 orbits (3-handles), sizes [4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8])\n"
        ), argv
    for sub in ("cycles", "pairings"):
        code, out, _ = run(capsys, sub, "a5e164")
        assert code == 0 and out, sub


def test_code_outside_the_low_bit_region(capsys):
    # Digit c of family gh flips coordinate 2 before its support coordinate
    # 3, which now carries the pairing sources.
    code, out, _ = run(capsys, "validate", "2bec36")
    assert code == 0
    assert out.startswith("code 2bec36: PASS")
    code, out, _ = run(capsys, "cusps", "2bec36")
    assert code == 0
    assert out.startswith("5 cusps for code 2bec36")
    labels = [line.rsplit(" ", 1)[1] for line in out.splitlines() if "label" in line]
    assert labels == ["B1", "B4", "B4", "B4", "B3"]


def test_reference_only_fillings_on_another_code(capsys):
    # ef276c is a manifold gluing with no published filling data: the
    # subcommands that do not fill run, and a filling request says so.
    code, out, _ = run(capsys, "invariants", "ef276c", "--stage", "base")
    assert code == 0
    assert out.startswith("stage base: chi = 1, H1 = Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z,")
    code, out, _ = run(capsys, "cusps", "ef276c")
    assert code == 0
    assert out.startswith("5 cusps for code ef276c")
    assert "published alternate" not in out
    code, out, err = run(capsys, "presentation", "ef276c", "--fill")
    assert code == 1
    assert out == ""
    assert err == "error: no published filling words for code ef276c\n"


def test_cover_fill_without_published_words(capsys):
    # 2bec36 is a manifold, so its cover diagram is laid out; it has no
    # published filling words, so filling it, on the base or on the cover,
    # is a one-line domain error.
    for argv in ("kirby 2bec36 --cover --fill", "trace 2bec36 --script m35-cover-fill",
                 "kirby 2bec36 --fill"):
        assert run(capsys, *argv.split()) == (
            1, "", "error: no published filling words for code 2bec36\n"), argv


def test_default_alpha_from_the_code(capsys):
    # g preserves orientation on ef276c; its first reversing letter is c.
    code, out, _ = run(capsys, "cover", "ef276c")
    assert code == 0
    assert out.startswith("double cover of ef276c glued along c: 46 boundary sides")
    assert run(capsys, "cover", "ef276c", "--alpha", "c")[1] == out
    code, out, _ = run(capsys, "invariants", "ef276c", "--stage", "cover")
    assert code == 0
    assert out.startswith("stage cover: chi = 2,")
    code, out, _ = run(capsys, "cover", "146928")
    assert run(capsys, "cover", "146928", "--alpha", "g")[1] == out


def test_default_alpha_api_matches_cli(capsys):
    # The API and the CLI pick the same default gluing letter (c on ef276c).
    code, out, _ = run(capsys, "invariants", "ef276c", "--stage", "cover")
    assert code == 0
    assert out == kirby.invariant_report("cover", stages.CodeStages("ef276c")).render() + "\n"
    pairings = census.build_pairings(census.parse_code("ef276c"))
    dc = cover.build_double_cover(pairings, census.orientation_character(pairings))
    assert dc.alpha == "c"


def test_svg_and_panel_only_on_kirby(capsys):
    subcommands = (["validate"], ["pairings"], ["cycles"], ["presentation"], ["cusps"],
                   ["cover"], ["invariants"], ["trace", "--script", "m35-cover-fill"])
    for sub, *extra in subcommands:
        for flags in (["--format", "svg"], ["--panel", "xy"]):
            with pytest.raises(SystemExit) as exc:
                main([sub, "146928", *extra, *flags])
            assert exc.value.code == 2, (sub, flags)
            assert "usage:" in capsys.readouterr().err


def test_no_reversing_letter_is_a_usage_error(capsys):
    # Every letter of 112124 preserves orientation.
    for argv in (["cover", "112124"], ["invariants", "112124", "--stage", "cover"],
                 ["kirby", "112124", "--cover"], ["trace", "112124", "--script", "m35-cover-fill"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            "usage error: the code has no orientation-reversing letter to glue "
            "the double cover along\n"
        )


def test_invariants_require_a_manifold(capsys):
    # 112124 has ridge cycles of length 2: its base report names the failed
    # gluing check instead of printing invariants of a non-manifold.
    code, out, err = run(capsys, "invariants", "112124", "--stage", "base")
    assert code == 1
    assert out == ""
    assert err == (
        "error: not a manifold gluing: the ridge cycles check fails "
        "(32 cycles, lengths {2: 16, 4: 16}, ridges partitioned)\n"
    )


def test_cold_import_skips_dataclasses():
    # The records need no generated code, so a fresh CLI process never
    # pays for dataclasses and the inspect/ast/dis/tokenize it imports.
    # Modules the interpreter loaded at start-up (a site .pth may import
    # inspect) are not the CLI's doing.
    src = os.path.dirname(os.path.dirname(cell24.__file__))
    probe = (
        "import sys; started = set(sys.modules); import cell24.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - started)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"
