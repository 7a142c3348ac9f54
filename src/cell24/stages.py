"""The stages of one side-pairing code, each built once, on first use.

The paper's chain (cusped base, filling, orientable double cover, filled
cover, its degree-2 cover) builds each stage from the one before.
``CodeStages`` keeps the geometry they share, for one code only; the
presentations are cheap reads off it.
"""

from __future__ import annotations

from functools import cached_property

from . import census, cover as cover_mod, cusps


class CodeStages:
    """A code's pairings and orientation character, with a given gluing
    letter checked against them, and its later stages as properties.  A
    code with no default letter fails at ``cover``, before the gluing
    checks that every later stage makes."""

    def __init__(self, code: str, alpha: str | None = None):
        self.pairings = census.build_pairings(census.parse_code(code))
        self.eps = census.orientation_character(self.pairings)
        if alpha is not None:
            cover_mod.gluing_letter(self.eps, alpha)
        self.alpha = alpha

    @cached_property
    def manifold(self):
        """The checked ridge cycles and edge-face orbits."""
        return census.require_manifold(self.pairings)

    @cached_property
    def classes(self):
        self.manifold  # the gluing checks
        return cusps.vertex_classes(self.pairings)

    @cached_property
    def fillings(self):
        """The published filling words, one per cusp class."""
        return [f.word for f in cusps.canonical_fillings(self.pairings, self.classes)]

    @cached_property
    def cover(self):
        dc = cover_mod.build_double_cover(self.pairings, self.eps, self.alpha)
        self.manifold  # the gluing checks, after the default letter's
        return dc

    @cached_property
    def cover_cycles(self):
        return cover_mod.cover_ridge_cycles(self.cover)

    @cached_property
    def cover_orbits(self):
        return census.domain_orbits(self.cover.domain)
