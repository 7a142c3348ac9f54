"""Combinatorics of the ideal right-angled 24-cell in the conformal ball model.

The model is normalised so that every side sphere has radius 1 and its centre
is a lattice vector of squared norm 2 (the orthogonality identity
|c|^2 = 1 + R^2 makes those spheres orthogonal to S^3).  The 24 ideal
vertices lie on S^3: the 8 unit vectors +-e_i and the 16 half-integer points
(+-1/2, +-1/2, +-1/2, +-1/2).  A vertex v lies on the side with centre c
exactly when v . c = 1.

In the hyperboloid model (see moebius) the side with centre c is the
integer spacelike vector (c, 1) and the ideal vertex v is the light ray of
the primitive integer vector of (2v, 2), so a side pairing's Lorentz matrix
acts on sides and vertices by integer lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .moebius import Sphere, lorentz_apply, vdot, vec

# Side labels in table order.  The primed side of each letter pair is the
# image of the unprimed one under the reference pairing code (146928), which
# is the labelling the published tables use; the labels are fixed data here.
SIDE_ORDER = (
    "A", "A'", "B", "B'", "C", "C'", "D", "D'", "E", "E'", "F", "F'",
    "G", "G'", "H", "H'", "I", "I'", "J", "J'", "K", "K'", "L", "L'",
)

SIDE_CENTERS = {
    "A": vec(1, 1, 0, 0),
    "A'": vec(-1, 1, 0, 0),
    "B": vec(1, -1, 0, 0),
    "B'": vec(-1, -1, 0, 0),
    "C": vec(1, 0, 1, 0),
    "C'": vec(1, 0, -1, 0),
    "D": vec(-1, 0, 1, 0),
    "D'": vec(-1, 0, -1, 0),
    "E": vec(0, 1, 1, 0),
    "E'": vec(0, -1, -1, 0),
    "F": vec(0, 1, -1, 0),
    "F'": vec(0, -1, 1, 0),
    "G": vec(1, 0, 0, 1),
    "G'": vec(-1, 0, 0, -1),
    "H": vec(1, 0, 0, -1),
    "H'": vec(-1, 0, 0, 1),
    "I": vec(0, 1, 0, 1),
    "I'": vec(0, -1, 0, 1),
    "J": vec(0, 1, 0, -1),
    "J'": vec(0, -1, 0, -1),
    "K": vec(0, 0, 1, 1),
    "K'": vec(0, 0, 1, -1),
    "L": vec(0, 0, -1, 1),
    "L'": vec(0, 0, -1, -1),
}

SIDE_INDEX = {label: i for i, label in enumerate(SIDE_ORDER)}


@dataclass(frozen=True)
class Side:
    label: str
    center: tuple
    sphere: Sphere


@dataclass(frozen=True)
class Ridge:
    """Codimension-2 face: intersection of two adjacent sides."""

    sides: frozenset  # two side labels
    vertices: tuple   # the three ideal vertices on it


@dataclass(frozen=True)
class EdgeFace:
    """Codimension-3 face: common intersection of three mutually adjacent
    sides, spanning two ideal vertices."""

    vertices: frozenset  # two ideal vertices
    sides: frozenset     # the side labels containing both
    ends: tuple          # indices of the two vertices, ascending


class Polytope24:
    def __init__(self):
        self.sides = {
            label: Side(label, c, Sphere(c, Fraction(1)))
            for label, c in SIDE_CENTERS.items()
        }
        for side in self.sides.values():
            if vdot(side.center, side.center) != 2:
                raise AssertionError("side centre must have squared norm 2")

        units = []
        for i in range(4):
            for s in (1, -1):
                units.append(vec(*(s if j == i else 0 for j in range(4))))
        halves = [
            tuple(Fraction(s, 2) for s in signs)
            for signs in itertools.product((1, -1), repeat=4)
        ]
        self.vertices = tuple(sorted(units + halves, reverse=True))
        if any(vdot(v, v) != 1 for v in self.vertices):
            raise AssertionError("ideal vertices must lie on S^3")

        self.vertex_sides = {
            v: frozenset(
                lab for lab, s in self.sides.items() if vdot(v, s.center) == 1
            )
            for v in self.vertices
        }
        self.side_vertices = {
            lab: tuple(v for v in self.vertices if lab in self.vertex_sides[v])
            for lab in SIDE_ORDER
        }

        ridges = []
        for la, lb in itertools.combinations(SIDE_ORDER, 2):
            if vdot(self.sides[la].center, self.sides[lb].center) == 1:
                verts = tuple(
                    v for v in self.side_vertices[la]
                    if lb in self.vertex_sides[v]
                )
                ridges.append(Ridge(frozenset((la, lb)), verts))
        self.ridges = tuple(ridges)
        self.ridge_by_sides = {r.sides: r for r in self.ridges}

        faces = []
        for (ia, va), (ib, vb) in itertools.combinations(enumerate(self.vertices), 2):
            common = self.vertex_sides[va] & self.vertex_sides[vb]
            if len(common) >= 3:
                faces.append(EdgeFace(frozenset((va, vb)), common, (ia, ib)))
        self.edge_faces = tuple(faces)
        self.edge_face_by_vertices = {f.vertices: f for f in self.edge_faces}
        self.edge_face_at = {frozenset(f.ends): i for i, f in enumerate(faces)}

        self.neighbours = {lab: set() for lab in SIDE_ORDER}
        for r in self.ridges:
            la, lb = r.sides
            self.neighbours[la].add(lb)
            self.neighbours[lb].add(la)

        self.side_vectors = {
            lab: tuple(int(x) for x in s.center) + (1,)
            for lab, s in self.sides.items()
        }
        self._side_by_vector = {w: lab for lab, w in self.side_vectors.items()}
        self.vertex_vectors = tuple(
            _primitive(tuple(int(2 * x) for x in v) + (2,)) for v in self.vertices
        )
        self._vertex_by_vector = {w: i for i, w in enumerate(self.vertex_vectors)}
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.side_vertex_indices = {
            lab: tuple(self.vertex_index[v] for v in vs)
            for lab, vs in self.side_vertices.items()
        }

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
        return self._vertex_by_vector.get(_primitive(w))

    def side_image(self, matrix, label):
        """Label of the side an integer Lorentz matrix carries side
        ``label`` onto, or None."""
        return self.side_of_vector(lorentz_apply(matrix, self.side_vectors[label]))

    def vertex_image(self, matrix, v):
        """The ideal vertex an integer Lorentz matrix carries vertex v to,
        or None."""
        w = lorentz_apply(matrix, self.vertex_vectors[self.vertex_index[v]])
        i = self.vertex_of_vector(w)
        return None if i is None else self.vertices[i]

    def action(self, label, matrix):
        """Exact action of an integer Lorentz matrix on the faces at side
        ``label``: (sides, vertices), where ``sides`` maps each side meeting
        it in a ridge to its image side label and ``vertices`` each index of
        an ideal vertex on it to the index of its image; None marks an image
        that is not a side or not a vertex."""
        sides = {nb: self.side_image(matrix, nb) for nb in self.neighbours[label]}
        vertices = {
            i: self.vertex_of_vector(lorentz_apply(matrix, self.vertex_vectors[i]))
            for i in self.side_vertex_indices[label]
        }
        return sides, vertices

    def adjacent(self, la: str, lb: str) -> bool:
        return lb in self.neighbours[la]


def _primitive(w):
    g = gcd(*w)
    return tuple(x // g for x in w)


@lru_cache(maxsize=1)
def build_polytope() -> Polytope24:
    return Polytope24()
