"""The stages of one side-pairing code, each built once, on first use.

The paper's chain (cusped base, filling, orientable double cover, filled
cover, its degree-2 cover) reads two domains, the code's one-sheet base
domain and its two-sheet double cover.  ``CodeStages`` keeps a ``Stage`` of
each for one code; the CLI handlers, invariant reports and diagrams read
their parts off it, so no part is built twice or for an output that omits it.
"""

from __future__ import annotations

from functools import cached_property

from . import census, cover as cover_mod, cusps


class Stage:
    """A domain, its checked ridge cycles and edge-face orbits (one form on
    every domain), the presentation read off them and the filling words
    over its generators: each part is built by its function on first read."""

    def __init__(self, **parts):
        self._parts = parts

    def __getattr__(self, name):  # reached only for a part not yet built
        if name not in self.__dict__.get("_parts", ()):
            raise AttributeError(name)
        value = self.__dict__[name] = self._parts[name]()
        return value


class CodeStages:
    """A code's pairings and orientation character, with a given gluing
    letter checked against them, its ``base`` and ``cover`` stages, and the
    steps they share as properties.  A code with no default letter fails at
    ``double_cover``, before the gluing checks that every later stage makes."""

    def __init__(self, code: str, alpha: str | None = None):
        self.pairings = census.build_pairings(census.parse_code(code))
        self.eps = census.orientation_character(self.pairings)
        if alpha is not None:
            cover_mod.gluing_letter(self.eps, alpha)
        self.alpha = alpha
        pairings, dc = self.pairings, lambda: self.double_cover
        self.base = Stage(
            domain=lambda: census.base_domain(pairings),
            cycles=lambda: self.manifold[0],
            orbits=lambda: self.manifold[1],
            presentation=lambda: census.presentation(pairings, self.base.cycles),
            fillings=lambda: [f.word for f in cusps.canonical_fillings(pairings, self.classes)],
        )
        self.cover = Stage(
            domain=lambda: dc().domain,
            cycles=lambda: cover_mod.cover_ridge_cycles(dc()),
            orbits=lambda: census.domain_orbits(dc().domain),
            presentation=lambda: cover_mod.cover_presentation(dc(), self.cover.cycles),
            fillings=lambda: cover_mod.lift_filling_words(self.base.fillings, dc()),
        )

    @cached_property
    def manifold(self):
        """The gluing checks: the base's checked cycles and orbits."""
        return census.require_manifold(self.pairings)

    @cached_property
    def classes(self):
        self.manifold  # the gluing checks
        return cusps.vertex_classes(self.pairings)

    @cached_property
    def double_cover(self):
        dc = cover_mod.build_double_cover(self.pairings, self.eps, self.alpha)
        self.manifold  # the gluing checks, after the default letter's
        return dc
