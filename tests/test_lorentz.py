"""The integer Lorentz matrices against the point-level Moebius oracle.

The move tables, the identity certificate and the cusp geometry are read
off Lorentz matrices; these tests check them against exact rational point
maps (tests/moebius_oracle.py) and against a six-point certificate.
"""

import random
from fractions import Fraction

import pytest

import moebius_oracle as oracle
from cell24 import census
from cell24.moebius import (
    LORENTZ_FORM,
    LORENTZ_IDENTITY,
    MoebiusWord,
    affine_parts,
    diagonal,
    lorentz_apply,
    lorentz_mul,
    reflection,
)
from cell24.polytope import build_polytope

HALF = Fraction(1, 2)

# Six rational points of S^3 on no common 2-sphere.  A ball-preserving
# Moebius map fixing all six is the identity: conjugating the first to
# infinity leaves a similarity of the image hyperplane fixing four affinely
# independent points, and preserving the half-space rules out the normal
# reflection.
CERTIFICATE = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (HALF, HALF, HALF, HALF),
    (HALF, -HALF, HALF, -HALF),
)


def certificate_identity(word, pairings):
    return all(oracle.word_point(word, pairings, p) == p for p in CERTIFICATE)


def test_certificate_is_valid():
    # No common 2-sphere is exactly rank([v | -1]) = 5.
    assert oracle.rank([list(p) + [-1] for p in CERTIFICATE]) == 5
    assert all(oracle.dot(p, p) == 1 for p in CERTIFICATE)


def test_oracle_rank_and_solve():
    assert oracle.rank([[1, 2], [2, 4]]) == 1
    assert oracle.solver([(2, 0), (0, 3)])((4, 9)) == [2, 3]
    with pytest.raises(ValueError):
        oracle.solver([(1, 1)])((0, 1))
    with pytest.raises(ValueError):
        oracle.solver([(1, 1), (2, 2)])


def oracle_codes(sample_codes):
    return ["146928"] + sample_codes[:50]


def ball_point(m, v):
    """The ideal point of the light ray M (v, 1)."""
    w = lorentz_apply(m, tuple(v) + (1,))
    return tuple(Fraction(x) / w[4] for x in w[:4])


def test_atom_matrices_match_point_action(pairings):
    rng = random.Random(11)
    poly = build_polytope()
    points = oracle.sphere_points(rng, 20)
    for label, side in poly.sides.items():
        m = reflection(poly.side_vectors[label])
        for v in points:
            image = oracle.invert(side.center, 1, v)
            if image != oracle.INF:
                assert ball_point(m, v) == image
    for k in ((-1, 1, -1, 1), (1, -1, -1, -1)):
        assert all(ball_point(diagonal(k), v) == oracle.flip(k, v) for v in points)
    letters = [p.letter for p in pairings]
    for _ in range(10):
        word = tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(7))
        m = census.word_isometry(word, pairings).lorentz()
        for v in points:
            assert ball_point(m, v) == oracle.word_point(word, pairings, v)


def test_lorentz_rejects_maps_off_the_ball(pairings):
    # Only norm-1 integer vectors (spheres of radius 1 orthogonal to S^3)
    # give integer reflections; the cusp geometry needs a fixed point.
    for n in ((0, 0, 0, 0, 1), (2, 0, 0, 0, 1), (1, 0, 0, 0, 1)):
        with pytest.raises(ValueError):
            reflection(n)
    a = next(p for p in pairings if p.letter == "a")
    with pytest.raises(ValueError):
        affine_parts(a.word, (1, 0, 0, 0))


def test_pairing_matrices_preserve_the_form(sample_codes):
    for code in oracle_codes(sample_codes):
        for p in census.build_pairings(census.parse_code(code)):
            m, inv = p.word.lorentz(), p.word.inverse().lorentz()
            assert lorentz_mul(m, inv) == LORENTZ_IDENTITY
            for m in (m, inv):
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
    # A side's six ideal vertices determine its sphere among those
    # orthogonal to S^3, so a table entry holds when the oracle's images of
    # the six lie on the entry's sphere, and None when they lie on no side.
    poly = build_polytope()
    for code in oracle_codes(sample_codes):
        pairings = census.build_pairings(census.parse_code(code))
        by_letter = {p.letter: p for p in pairings}
        for label, mv in census.moves_by_side(pairings).items():
            images = {}

            def image(v):
                if v not in images:
                    images[v] = oracle.pairing_point(by_letter[mv.letter], v, mv.sign)
                return images[v]

            assert set(mv.sides) == poly.neighbours[label]
            for nb, entry in mv.sides.items():
                points = [image(v) for v in poly.side_vertices[nb]]
                if entry is None:
                    assert oracle.side_of_points(points, poly) is None
                else:
                    assert all(oracle.on_sphere(poly.sides[entry].center, p) for p in points)
            assert mv.vertices == {
                poly.vertex_index[v]: poly.vertex_index.get(image(v))
                for v in poly.side_vertices[label]
            }


def test_is_identity_agrees_with_six_point_certificate(sample_codes):
    verdicts = set()
    for code in oracle_codes(sample_codes):
        pairings = census.build_pairings(census.parse_code(code))
        for c in census.ridge_cycles(pairings):
            verdict = census.cycle_moebius_word(c, pairings).is_identity()
            assert verdict == certificate_identity(c.relator, pairings)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert MoebiusWord().is_identity()
