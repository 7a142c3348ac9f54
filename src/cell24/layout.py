"""Published reference data, kept apart from the algorithms: the filling
words of the reference code's cusps, the stage and panel names, and the
shipped cancellation script.  The handle pictures' 1-handle positions are
not data: ``cover.position`` computes them from the side centres.

The module imports nothing, so the CLI parser can read the vocabularies
without running the engine.
"""

# Filling words by code and cusp representative (as ``cusps.point_text``
# prints it), as strings (upper case = inverse) that ``cusps`` validates at
# use: the filling word, then published alternates.  The cover diagram
# fills along the alternate j, which keeps its attaching circles in
# coordinate planes.
FILLINGS = {
    "146928": {
        "(1,0,0,0)": ("c",),
        "(0,1,0,0)": ("a",),
        "(0,0,1,0)": ("k",),
        "(0,0,0,1)": ("i", "j"),
        "(1/2,1/2,1/2,1/2)": ("EheH",),
    },
}

# Stages of the construction, in order (see kirby.invariant_report).
STAGES = ("base", "cover", "filled", "filled_cover", "degree2_of_filled_cover")
# Panels of a diagram: the three coordinate planes, and an oblique view of
# the 2-handles on none of them.
PANELS = ("xy", "xz", "yz", "off")


def _ridge_sel(sheet, a, b):
    return {"sheet": sheet, "sides": [a, b]}


# The published cancellation order for the filled double cover of the
# reference code: ridge handles are addressed by a ridge they attach along.
SHIPPED_SCRIPTS = {
    "m35-cover-fill": [
        {"op": "cancel", "one": "g⁻¹g", "two": "killing"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "a", "two": "fill-a"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "c", "two": "fill-c"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "b", "two": _ridge_sel(0, "A", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹bg", "two": _ridge_sel(0, "A", "F")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹ag", "two": _ridge_sel(1, "A", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "d", "two": _ridge_sel(0, "A", "C")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹dg", "two": _ridge_sel(0, "C", "H")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹cg", "two": _ridge_sel(1, "C", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "j", "two": "fill-j"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "k", "two": "fill-k"},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "l", "two": _ridge_sel(0, "D", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹kg", "two": _ridge_sel(1, "E", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹lg", "two": _ridge_sel(0, "E", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹ig", "two": _ridge_sel(0, "H", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "i", "two": _ridge_sel(0, "I", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹jg", "two": _ridge_sel(1, "H", "J")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹h", "two": _ridge_sel(0, "G", "K")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "hg", "two": _ridge_sel(0, "B", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "gg", "two": _ridge_sel(1, "A", "G")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "fg", "two": _ridge_sel(0, "E", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "g⁻¹f", "two": _ridge_sel(1, "E", "I")},
        {"op": "delete_trivial"},
        {"op": "cancel", "one": "eg", "two": _ridge_sel(0, "D", "E")},
        {"op": "delete_trivial"},
    ]
}
