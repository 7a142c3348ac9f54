import itertools
import random
from fractions import Fraction

import pytest

from cell24.exact import rat_rank
from cell24.moebius import (
    INF,
    IDENTITY_CLASS,
    OTHER_PARABOLIC_OR_ELLIPTIC,
    TRANSLATION,
    Inversion,
    MoebiusWord,
    Plane,
    PlaneReflect,
    SignFlip,
    Sphere,
    classify_parabolic,
    conjugate_to_infinity,
    vdot,
    vec,
    vsub,
)
from cell24.polytope import build_polytope
from cell24 import census
from cell24.groups import word_from_str


def test_sign_flip_point():
    m = SignFlip((-1, 1, 1, 1))
    assert m.point(vec(1, 1, 0, 0)) == vec(-1, 1, 0, 0)
    assert m.point(INF) is INF


def test_inversion_center_and_fixed_point():
    inv = Inversion(Sphere(vec(1, 1, 0, 0), Fraction(1)))
    assert inv.point(vec(1, 1, 0, 0)) is INF
    assert inv.point(INF) == vec(1, 1, 0, 0)
    # (1,0,0,0) is on the sphere, hence fixed
    assert inv.point(vec(1, 0, 0, 0)) == vec(1, 0, 0, 0)


def test_pairing_a_moves_side_spheres(pairings):
    poly = build_polytope()
    a = next(p for p in pairings if p.letter == "a")
    assert a.word.gensphere(poly.sides["C"].sphere) == poly.sides["D"].sphere
    assert a.word.gensphere(poly.sides["E"].sphere) == poly.sides["E"].sphere
    s = poly.sides["K"].sphere
    assert MoebiusWord(()).gensphere(s) == s


def test_atomic_involutions():
    rng = random.Random(3)
    atoms = [
        Inversion(Sphere(vec(1, 0, 0, 1), Fraction(1))),
        Inversion(Sphere(vec(0, 2, 0, 0), Fraction(3))),
        SignFlip((-1, 1, -1, 1)),
        PlaneReflect(Plane(vec(1, 2, 0, 0), Fraction(1))),
    ]
    for atom in atoms:
        for _ in range(100):
            p = vec(*(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)))
            w = MoebiusWord((atom, atom))
            assert w.point(p) == p


def test_sphere_point_compatibility(pairings):
    # p on s iff w(p) on w(s), for random words in the pairing letters
    rng = random.Random(5)
    poly = build_polytope()
    words = [p.word for p in pairings]
    for _ in range(50):
        w = MoebiusWord(())
        for _ in range(rng.randint(1, 6)):
            factor = rng.choice(words)
            if rng.random() < 0.5:
                factor = factor.inverse()
            w = w * factor
        side = poly.sides[rng.choice(list(poly.sides))]
        p = rng.choice(poly.side_vertices[side.label])
        assert side.sphere.contains(p)
        image_sphere = w.gensphere(side.sphere)
        assert image_sphere.contains(w.point(p))


def test_inversion_nondegeneracy_on_census_sides():
    poly = build_polytope()
    centers = [s.center for s in poly.sides.values()]
    for c1, c2 in itertools.combinations(centers, 2):
        d = vsub(c1, c2)
        q = vdot(d, d) - 1
        assert q in (1, 3, 5, 7)


def test_is_identity_basics(pairings):
    assert MoebiusWord(()).is_identity()
    inv = Inversion(Sphere(vec(1, 1, 0, 0), Fraction(1)))
    assert MoebiusWord((inv, inv)).is_identity()
    assert not MoebiusWord((inv,)).is_identity()


def test_cycle_relator_identity_with_vertex_oracle(pairings, cycles):
    # The first cycle's composed word fixes all 24 ideal vertices, an
    # independent check of the Lorentz-matrix certificate.
    poly = build_polytope()
    word = census.cycle_moebius_word(cycles[0], pairings)
    assert all(word.point(v) == v for v in poly.vertices)
    assert word.is_identity()


def test_is_identity_conjugation_invariant(pairings):
    a = next(p for p in pairings if p.letter == "a").word
    e = next(p for p in pairings if p.letter == "e").word
    w = a * e * a.inverse() * e.inverse()
    conj = e * w * e.inverse()
    assert w.is_identity() == conj.is_identity()


def test_conjugate_to_infinity():
    v = vec(1, 0, 0, 0)
    sigma = conjugate_to_infinity(v)
    assert sigma.point(v) is INF
    assert sigma.point(vec(-1, 0, 0, 0)) == vec(Fraction(1, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        conjugate_to_infinity(vec(1, 1, 0, 0))


def test_conjugated_sphere_points_are_coplanar():
    # Images of generic S^3 points under the conjugation all satisfy
    # x . v = 1/2 (exact coplanarity oracle via rank).
    v = vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    sigma = conjugate_to_infinity(v)
    pts = [
        vec(1, 0, 0, 0),
        vec(0, -1, 0, 0),
        vec(0, 0, 1, 0),
        vec(Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
    ]
    images = [sigma.point(p) for p in pts]
    for q in images:
        assert vdot(q, v) == Fraction(1, 2)
    rows = [list(vsub(q, images[0])) for q in images[1:]]
    assert rat_rank(rows) <= 3


def test_classify_parabolic(pairings):
    a = next(p for p in pairings if p.letter == "a")
    assert classify_parabolic(a.word, vec(0, 1, 0, 0)) == TRANSLATION
    word = census.word_isometry(word_from_str("EheH"), pairings)
    fixed = vec(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert classify_parabolic(word, fixed) == TRANSLATION
    assert classify_parabolic(MoebiusWord(()), vec(0, 1, 0, 0)) == IDENTITY_CLASS
    with pytest.raises(ValueError):
        classify_parabolic(a.word, vec(1, 0, 0, 0))


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


def test_word_text_form(pairings):
    a = next(p for p in pairings if p.letter == "a")
    text = str(a.word)
    assert "Inv[" in text and "Diag[" in text
