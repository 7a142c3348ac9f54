from fractions import Fraction

from cell24.moebius import lorentz_dot
from cell24.polytope import SIDE_ORDER, build_polytope


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def ridge_vertices(poly, ridge):
    """The ideal vertices on a ridge: those whose sides include both of its."""
    return {v for v, at in zip(poly.vertices, poly.sides_at) if ridge.sides <= at}


def test_counts():
    poly = build_polytope()
    assert len(poly.sides) == 24
    assert len(poly.vertices) == 24
    assert len(poly.ridges) == 96
    assert len(poly.edge_faces) == 96


def test_ridge_ac_vertices():
    poly = build_polytope()
    ridge = next(r for r in poly.ridges if r.sides == frozenset(("A", "C")))
    expected = {
        (1, 0, 0, 0),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
    }
    assert ridge_vertices(poly, ridge) == expected
    # brute-force oracle over the 24 vertices
    brute = {
        v
        for v in poly.vertices
        if dot(v, poly.sides["A"].center) == 1 and dot(v, poly.sides["C"].center) == 1
    }
    assert brute == expected


def test_ridges_per_side():
    poly = build_polytope()
    for label in SIDE_ORDER:
        n = sum(1 for r in poly.ridges if label in r.sides)
        assert n == 8
    assert sum(1 for r in poly.ridges for _ in r.sides) == 2 * 96


def test_vertex_side_incidence():
    poly = build_polytope()
    assert len(poly.sides_at) == len(poly.vertices)
    for sides in poly.sides_at:
        assert len(sides) == 6
    for label in SIDE_ORDER:
        assert len(poly.side_vertex_indices[label]) == 6


def test_face_shapes():
    poly = build_polytope()
    for r in poly.ridges:
        assert len(ridge_vertices(poly, r)) == 3
    for f in poly.edge_faces:
        assert len(f.vertices) == 2
        assert len(f.sides) == 3


def test_side_of_sphere():
    # A sphere orthogonal to S^3 with centre c and radius r is the Lorentz
    # vector (c, 1)/r, up to sign.
    poly = build_polytope()
    assert poly.side_of_vector((-1, 0, 1, 0, 1)) == "D"
    assert poly.side_of_vector((1, 0, -1, 0, -1)) == "D"
    # centre 0, radius 1: S^3 itself, a timelike vector
    assert poly.side_of_vector((0, 0, 0, 0, 1)) is None
    # centre (1,1,0,0), radius 2
    half = Fraction(1, 2)
    assert poly.side_of_vector((half, half, 0, 0, half)) is None
    for side in poly.sides.values():
        assert poly.side_of_vector(tuple(side.center) + (1,)) == side.label


def test_orthogonality_normalisation():
    # |c|^2 = 1 + R^2 with R = 1 for every side sphere, so they meet S^3 at
    # right angles; equivalently the vector (c, 1) has Lorentz norm 1.
    poly = build_polytope()
    for s in poly.sides.values():
        assert dot(s.center, s.center) == 1 + 1
        assert lorentz_dot(poly.side_vectors[s.label], poly.side_vectors[s.label]) == 1
