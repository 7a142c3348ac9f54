"""The integer Lorentz matrices against direct Moebius evaluation.

The move tables and the identity certificate are read off Lorentz
matrices; these tests check them against the Fraction point and sphere
maps, and against the six-point certificate the engine used before.
"""

import random
from fractions import Fraction

import pytest

from cell24 import census
from cell24.exact import rat_rank
from cell24.moebius import (
    INF,
    LORENTZ_FORM,
    Inversion,
    MoebiusWord,
    Plane,
    PlaneReflect,
    SignFlip,
    Sphere,
    conjugate_to_infinity,
    lorentz_apply,
    vdot,
    vec,
)
from cell24.polytope import build_polytope

# Six rational points of S^3 on no common 2-sphere.  A ball-preserving
# Moebius map fixing all six is the identity: conjugating the first to
# infinity leaves a similarity of the image hyperplane fixing four affinely
# independent points, and preserving the half-space rules out the normal
# reflection.
CERTIFICATE = (
    vec(1, 0, 0, 0),
    vec(0, 1, 0, 0),
    vec(0, 0, 1, 0),
    vec(0, 0, 0, 1),
    vec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    vec(Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
)


def certificate_identity(word):
    return all(word.point(p) == p for p in CERTIFICATE)


def test_certificate_is_valid():
    # No common 2-sphere is exactly rank([v | -1]) = 5.
    assert rat_rank([list(p) + [Fraction(-1)] for p in CERTIFICATE]) == 5
    assert all(vdot(p, p) == 1 for p in CERTIFICATE)


def oracle_codes(sample_codes):
    return ["146928"] + sample_codes[:50]


def sphere_points(rng, count):
    """Rational points of S^3: inverse stereographic images of rational
    points of R^3."""
    out = []
    for _ in range(count):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        n = sum(x * x for x in p)
        out.append(tuple(2 * x / (n + 1) for x in p) + ((n - 1) / (n + 1),))
    return out


def ball_point(m, v):
    """The ideal point of the light ray M (v, 1)."""
    w = lorentz_apply(m, tuple(v) + (1,))
    return tuple(Fraction(x) / w[4] for x in w[:4])


def test_atom_matrices_match_point_action():
    rng = random.Random(11)
    atoms = [
        Inversion(Sphere(vec(1, 0, 0, 1), Fraction(1))),
        Inversion(Sphere(vec(0, 2, 0, 0), Fraction(3))),
        SignFlip((-1, 1, -1, 1)),
        PlaneReflect(Plane(vec(1, 2, 0, 0), Fraction(0))),
    ]
    words = [MoebiusWord((a,)) for a in atoms]
    words.append(MoebiusWord(tuple(rng.choice(atoms) for _ in range(7))))
    for word in words:
        m = word.lorentz()
        for v in sphere_points(rng, 20):
            image = word.point(v)
            if image is INF:
                continue
            assert ball_point(m, v) == image


def test_lorentz_rejects_maps_off_the_ball():
    with pytest.raises(ValueError):
        conjugate_to_infinity(vec(1, 0, 0, 0)).lorentz()
    with pytest.raises(ValueError):
        MoebiusWord((PlaneReflect(Plane(vec(1, 0, 0, 0), Fraction(1))),)).lorentz()
    with pytest.raises(ValueError):
        conjugate_to_infinity(vec(0, 1, 0, 0)).is_identity()


def test_pairing_matrices_preserve_the_form(sample_codes):
    for code in oracle_codes(sample_codes):
        for p in census.build_pairings(census.parse_code(code)):
            for m in (p.word.lorentz(), p.word.inverse().lorentz()):
                assert all(isinstance(x, int) for row in m for x in row)
                mtjm = tuple(
                    tuple(
                        sum(m[k][i] * LORENTZ_FORM[k] * m[k][j] for k in range(5))
                        for j in range(5)
                    )
                    for i in range(5)
                )
                assert mtjm == tuple(
                    tuple(LORENTZ_FORM[i] if i == j else 0 for j in range(5))
                    for i in range(5)
                )


def test_move_tables_match_moebius_evaluation(sample_codes):
    poly = build_polytope()
    side_of_sphere = {s.sphere: s.label for s in poly.sides.values()}
    for code in oracle_codes(sample_codes):
        moves = census.moves_by_side(census.build_pairings(census.parse_code(code)))
        for label, mv in moves.items():
            assert mv.sides == {
                nb: side_of_sphere.get(mv.word.gensphere(poly.sides[nb].sphere))
                for nb in poly.neighbours[label]
            }
            assert mv.vertices == {
                poly.vertex_index[v]: poly.vertex_index.get(mv.word.point(v))
                for v in poly.side_vertices[label]
            }


def test_is_identity_agrees_with_six_point_certificate(sample_codes):
    verdicts = set()
    for code in oracle_codes(sample_codes):
        pairings = census.build_pairings(census.parse_code(code))
        for c in census.ridge_cycles(pairings):
            word = census.cycle_moebius_word(c, pairings)
            verdict = word.is_identity()
            assert verdict == certificate_identity(word)
            verdicts.add(verdict)
    assert verdicts == {True, False}
