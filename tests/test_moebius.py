import itertools
import random
from fractions import Fraction

import pytest

import moebius_oracle as oracle
from cell24 import census
from cell24.groups import word_from_str
from cell24.moebius import (
    IDENTITY_CLASS,
    LORENTZ_IDENTITY,
    OTHER_PARABOLIC_OR_ELLIPTIC,
    TRANSLATION,
    MoebiusWord,
    classify_parabolic,
    diagonal,
    light_vector,
    lorentz_apply,
    lorentz_dot,
    lorentz_mul,
    reflection,
)
from cell24.polytope import build_polytope

HALF = Fraction(1, 2)


def test_sign_flip_point():
    k = (-1, 1, 1, 1)
    assert oracle.flip(k, (1, 1, 0, 0)) == (-1, 1, 0, 0)
    assert oracle.flip(k, oracle.INF) == oracle.INF
    # diag(k, 1) carries side A = (1,1,0,0) onto A' = (-1,1,0,0)
    poly = build_polytope()
    assert poly.side_image(diagonal(k), "A") == "A'"


def test_inversion_center_and_fixed_point():
    c = (1, 1, 0, 0)
    assert oracle.invert(c, 1, c) == oracle.INF
    assert oracle.invert(c, 1, oracle.INF) == c
    # (1,0,0,0) is on the sphere, hence fixed
    assert oracle.invert(c, 1, (1, 0, 0, 0)) == (1, 0, 0, 0)
    # and the reflection in (c, 1) fixes its light vector
    u = light_vector((1, 0, 0, 0))
    assert lorentz_apply(reflection(c + (1,)), u) == u


def test_pairing_a_moves_side_spheres(pairings):
    poly = build_polytope()
    a = next(p for p in pairings if p.letter == "a")
    assert poly.side_image(a.word.lorentz(), "C") == "D"
    assert poly.side_image(a.word.lorentz(), "E") == "E"
    for side, image in (("C", "D"), ("E", "E")):
        points = [oracle.pairing_point(a, v) for v in poly.side_vertices[side]]
        assert oracle.side_of_points(points, poly) == image
    assert poly.side_image(MoebiusWord().lorentz(), "K") == "K"


def test_atomic_involutions():
    rng = random.Random(3)
    atoms = [
        lambda p: oracle.invert((1, 0, 0, 1), 1, p),
        lambda p: oracle.invert((0, 2, 0, 0), 3, p),
        lambda p: oracle.flip((-1, 1, -1, 1), p),
    ]
    for atom in atoms:
        for _ in range(100):
            p = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4))
            assert atom(atom(p)) == p
    poly = build_polytope()
    for n in poly.side_vectors.values():
        assert lorentz_mul(reflection(n), reflection(n)) == LORENTZ_IDENTITY
    k = diagonal((-1, 1, -1, 1))
    assert lorentz_mul(k, k) == LORENTZ_IDENTITY


def test_sphere_point_compatibility(pairings):
    # p on s iff w(p) on w(s), for random words in the pairing letters: the
    # oracle's image point lies on the sphere of the matrix's image vector.
    rng = random.Random(5)
    poly = build_polytope()
    letters = [p.letter for p in pairings]
    for _ in range(50):
        word = tuple(
            (rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))
        )
        m = census.word_isometry(word, pairings).lorentz()
        label = rng.choice(list(poly.sides))
        p = rng.choice(poly.side_vertices[label])
        assert oracle.on_sphere(poly.sides[label].center, p)
        image = oracle.word_point(word, pairings, p)
        assert lorentz_dot(image + (1,), lorentz_apply(m, poly.side_vectors[label])) == 0


def test_inversion_nondegeneracy_on_census_sides():
    poly = build_polytope()
    centers = [s.center for s in poly.sides.values()]
    for c1, c2 in itertools.combinations(centers, 2):
        d = [a - b for a, b in zip(c1, c2)]
        q = oracle.dot(d, d) - 1
        assert q in (1, 3, 5, 7)


def test_is_identity_basics(pairings):
    assert MoebiusWord().is_identity()
    r = MoebiusWord(reflection((1, 1, 0, 0, 1)))
    assert (r * r).is_identity()
    assert not r.is_identity()
    a = pairings[0].word
    assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()


def test_cycle_relator_identity_with_vertex_oracle(pairings, cycles):
    # The first cycle's relator fixes all 24 ideal vertices, an independent
    # check of the Lorentz-matrix certificate.
    poly = build_polytope()
    relator = cycles[0].relator
    assert all(oracle.word_point(relator, pairings, v) == v for v in poly.vertices)
    assert census.cycle_moebius_word(cycles[0], pairings).is_identity()


def test_is_identity_conjugation_invariant(pairings):
    a = next(p for p in pairings if p.letter == "a").word
    e = next(p for p in pairings if p.letter == "e").word
    w = a * e * a.inverse() * e.inverse()
    conj = e * w * e.inverse()
    assert w.is_identity() == conj.is_identity()


def test_conjugate_to_infinity():
    # Inversion in the unit sphere centred at a point v of S^3 sends v to
    # infinity and -v to v/2.
    v = (1, 0, 0, 0)
    assert oracle.invert(v, 1, v) == oracle.INF
    assert oracle.invert(v, 1, (-1, 0, 0, 0)) == (HALF, 0, 0, 0)


def test_conjugated_sphere_points_are_coplanar():
    # Images of generic S^3 points under that inversion all satisfy
    # x . v = 1/2 (exact coplanarity oracle via rank).
    v = (HALF, HALF, HALF, HALF)
    pts = [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (HALF, -HALF, HALF, HALF)]
    images = [oracle.invert(v, 1, p) for p in pts]
    for q in images:
        assert oracle.dot(q, v) == HALF
    rows = [[a - b for a, b in zip(q, images[0])] for q in images[1:]]
    assert oracle.rank(rows) <= 3


def test_classify_parabolic(pairings):
    a = next(p for p in pairings if p.letter == "a")
    assert classify_parabolic(a.word, (0, 1, 0, 0)) == TRANSLATION
    word = census.word_isometry(word_from_str("EheH"), pairings)
    assert classify_parabolic(word, (-HALF, HALF, HALF, HALF)) == TRANSLATION
    assert classify_parabolic(MoebiusWord(), (0, 1, 0, 0)) == IDENTITY_CLASS
    with pytest.raises(ValueError):
        classify_parabolic(a.word, (1, 0, 0, 0))


def test_classify_detects_rotation(pairings, eps, stabilizers):
    # Every cusp here is non-orientable, so each stabilizer contains an
    # orientation-reversing element, which can never classify as a pure
    # translation.
    found = 0
    for stab in stabilizers:
        for word, moebius in stab.generators:
            if census.eps_of_word(word, eps) == -1:
                kind = classify_parabolic(moebius, stab.cusp.representative)
                assert kind == OTHER_PARABOLIC_OR_ELLIPTIC
                found += 1
                break
    assert found == len(stabilizers)
