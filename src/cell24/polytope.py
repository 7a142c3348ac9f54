"""Combinatorics of the ideal right-angled 24-cell in the conformal ball model.

The model is normalised so that every side sphere has radius 1 and its centre
is a lattice vector of squared norm 2 (the orthogonality identity
|c|^2 = 1 + R^2 makes those spheres orthogonal to S^3).  The 24 ideal
vertices lie on S^3: the 8 unit vectors +-e_i and the 16 half-integer points
(+-1/2, +-1/2, +-1/2, +-1/2).

In the hyperboloid model (see moebius) the side with centre c is the
integer vector n = (c, 1) of Lorentz norm 1 and the ideal vertex v is the
light ray of u = ``light_vector(v)``.  Incidences are Lorentz
orthogonalities: v lies on the side n exactly when <u, n> = 0 (v . c = 1),
and two sides meet in a right-angled ridge exactly when <n, n'> = 0
(c . c' = 1).  A side pairing's Lorentz matrix acts on sides, vertices and
edge faces by integer lookups, tabulated once per (side, matrix).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .moebius import lorentz_apply, lorentz_dot, light_vector, primitive

# Side labels in table order.  The primed side of each letter pair is the
# image of the unprimed one under the reference pairing code (146928), which
# is the labelling the published tables use; the labels are fixed data here.
SIDE_ORDER = (
    "A", "A'", "B", "B'", "C", "C'", "D", "D'", "E", "E'", "F", "F'",
    "G", "G'", "H", "H'", "I", "I'", "J", "J'", "K", "K'", "L", "L'",
)

SIDE_CENTERS = {
    "A": (1, 1, 0, 0),
    "A'": (-1, 1, 0, 0),
    "B": (1, -1, 0, 0),
    "B'": (-1, -1, 0, 0),
    "C": (1, 0, 1, 0),
    "C'": (1, 0, -1, 0),
    "D": (-1, 0, 1, 0),
    "D'": (-1, 0, -1, 0),
    "E": (0, 1, 1, 0),
    "E'": (0, -1, -1, 0),
    "F": (0, 1, -1, 0),
    "F'": (0, -1, 1, 0),
    "G": (1, 0, 0, 1),
    "G'": (-1, 0, 0, -1),
    "H": (1, 0, 0, -1),
    "H'": (-1, 0, 0, 1),
    "I": (0, 1, 0, 1),
    "I'": (0, -1, 0, 1),
    "J": (0, 1, 0, -1),
    "J'": (0, -1, 0, -1),
    "K": (0, 0, 1, 1),
    "K'": (0, 0, 1, -1),
    "L": (0, 0, -1, 1),
    "L'": (0, 0, -1, -1),
}

SIDE_INDEX = {label: i for i, label in enumerate(SIDE_ORDER)}


class Side(NamedTuple):
    label: str
    center: tuple


class Ridge(NamedTuple):
    """Codimension-2 face: intersection of two adjacent sides."""

    sides: frozenset  # two side labels
    vertices: tuple   # the three ideal vertices on it


class EdgeFace(NamedTuple):
    """Codimension-3 face: common intersection of three mutually adjacent
    sides, spanning two ideal vertices."""

    vertices: frozenset  # two ideal vertices
    sides: frozenset     # the side labels containing both
    ends: tuple          # indices of the two vertices, ascending


class Polytope24:
    def __init__(self):
        self.sides = {label: Side(label, c) for label, c in SIDE_CENTERS.items()}
        self.side_vectors = {label: c + (1,) for label, c in SIDE_CENTERS.items()}
        if any(lorentz_dot(n, n) != 1 for n in self.side_vectors.values()):
            raise AssertionError("side centre must have squared norm 2")
        self._side_by_vector = {n: lab for lab, n in self.side_vectors.items()}

        units = [
            tuple(Fraction(s if j == i else 0) for j in range(4))
            for i in range(4)
            for s in (1, -1)
        ]
        halves = [
            tuple(Fraction(s, 2) for s in signs)
            for signs in itertools.product((1, -1), repeat=4)
        ]
        self.vertices = tuple(sorted(units + halves, reverse=True))
        self.vertex_vectors = tuple(light_vector(v) for v in self.vertices)
        if any(lorentz_dot(u, u) != 0 for u in self.vertex_vectors):
            raise AssertionError("ideal vertices must lie on S^3")
        self._vertex_by_vector = {u: i for i, u in enumerate(self.vertex_vectors)}
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}

        # Side sets by vertex index: the loops below run over indices, so
        # no vertex (a tuple of Fractions) is hashed more than once.
        sides_at = self.sides_at = [
            frozenset(lab for lab, n in self.side_vectors.items() if lorentz_dot(u, n) == 0)
            for u in self.vertex_vectors
        ]
        self.vertex_sides = dict(zip(self.vertices, sides_at))
        self.side_vertex_indices = {
            lab: tuple(i for i, at in enumerate(sides_at) if lab in at)
            for lab in SIDE_ORDER
        }
        self.side_vertices = {
            lab: tuple(self.vertices[i] for i in indices)
            for lab, indices in self.side_vertex_indices.items()
        }

        ridges = []
        for la, lb in itertools.combinations(SIDE_ORDER, 2):
            if lorentz_dot(self.side_vectors[la], self.side_vectors[lb]) == 0:
                verts = tuple(
                    self.vertices[i] for i in self.side_vertex_indices[la]
                    if lb in sides_at[i]
                )
                ridges.append(Ridge(frozenset((la, lb)), verts))
        self.ridges = tuple(ridges)
        self.ridge_by_sides = {r.sides: r for r in self.ridges}

        faces = []
        for ia, ib in itertools.combinations(range(len(sides_at)), 2):
            common = sides_at[ia] & sides_at[ib]
            if len(common) >= 3:
                pair = frozenset((self.vertices[ia], self.vertices[ib]))
                faces.append(EdgeFace(pair, common, (ia, ib)))
        self.edge_faces = tuple(faces)
        self.edge_face_by_vertices = {f.vertices: f for f in self.edge_faces}
        self.edge_face_at = {frozenset(f.ends): i for i, f in enumerate(faces)}

        self.neighbours = {lab: set() for lab in SIDE_ORDER}
        for r in self.ridges:
            la, lb = r.sides
            self.neighbours[la].add(lb)
            self.neighbours[lb].add(la)

        # (side label, Lorentz matrix) -> action tables, filled by ``action``.
        self.actions = {}

    def side_of_vector(self, w):
        """Label of the side whose Lorentz vector is +-w, or None.

        A Lorentz matrix sends the side sphere (c, 1) to the sphere of its
        image vector; a miss means that sphere is not a side (a plane, or a
        sphere of another centre or radius).
        """
        if w[4] < 0:
            w = tuple(-x for x in w)
        return self._side_by_vector.get(w)

    def vertex_of_vector(self, w):
        """Index of the ideal vertex on the light ray of the integer vector
        w, or None."""
        return self._vertex_by_vector.get(primitive(w))

    def side_image(self, matrix, label):
        """Label of the side an integer Lorentz matrix carries side
        ``label`` onto, or None."""
        return self.side_of_vector(lorentz_apply(matrix, self.side_vectors[label]))

    def vertex_image(self, matrix, v):
        """The ideal vertex an integer Lorentz matrix carries vertex v to,
        or None."""
        i = self.vertex_index_image(matrix, self.vertex_index[v])
        return None if i is None else self.vertices[i]

    def vertex_index_image(self, matrix, i):
        """Index of the image of the ideal vertex of index i, or None."""
        return self.vertex_of_vector(lorentz_apply(matrix, self.vertex_vectors[i]))

    def action(self, label, matrix):
        """Exact action of an integer Lorentz matrix on the faces at side
        ``label``: (sides, vertices, faces), where ``sides`` maps each side
        meeting it in a ridge to its image side label, ``vertices`` each
        index of an ideal vertex on it to the index of its image, and
        ``faces`` each index of an edge face on it (ascending) to the index
        of its image face; None marks an image that is not a side, vertex
        or edge face.

        The tables depend on nothing but (label, matrix), so each is
        computed once and shared by every caller: they must not be mutated.
        The key is the exact matrix, so a word that differs in any entry
        gets its own tables.
        """
        key = (label, matrix)
        tables = self.actions.get(key)
        if tables is None:
            tables = self.actions[key] = self._action(label, matrix)
        return tables

    def _action(self, label, matrix):
        sides = {nb: self.side_image(matrix, nb) for nb in self.neighbours[label]}
        vertices = {
            i: self.vertex_index_image(matrix, i) for i in self.side_vertex_indices[label]
        }
        faces = {}
        for i, f in enumerate(self.edge_faces):
            if label in f.sides:
                faces[i] = self.edge_face_at.get(frozenset(vertices[v] for v in f.ends))
        return sides, vertices, faces

    def adjacent(self, la: str, lb: str) -> bool:
        return lb in self.neighbours[la]


@lru_cache(maxsize=1)
def build_polytope() -> Polytope24:
    return Polytope24()
