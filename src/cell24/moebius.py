"""Exact isometries of hyperbolic 4-space as integer Lorentz matrices.

The hyperboloid model is R^5 with the form J = diag(1, 1, 1, 1, -1); an
isometry is a matrix M in O+(4,1) with M^T J M = J.  The ideal point v of
S^3 is the light ray of (v, 1).  Inversion in a sphere with centre c and
radius 1 orthogonal to S^3 (|c|^2 = 2, the side spheres of the ideal
24-cell) is the reflection I - 2 n n^T J in the integer vector n = (c, 1)
of norm 1, and a sign-diagonal map k is diag(k, 1).  So every side pairing
and every word in the pairings is one matrix in O+(4,1; Z): words compose
by matrix multiplication, invert as J M^T J, and are the identity exactly
when the matrix is I.

Convention (fixed once, used everywhere): words act on the left, so
``f * g`` is the map f o g.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .flat3 import I3

LORENTZ_FORM = (1, 1, 1, 1, -1)  # the diagonal of J
LORENTZ_IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def lorentz_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3] - u[4] * v[4]


def lorentz_apply(m, v):
    v0, v1, v2, v3, v4 = v
    return tuple([
        r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4
        for r0, r1, r2, r3, r4 in m
    ])


def lorentz_mul(a, b):
    # Unrolled: the relator certificates spend most of their time here.
    (
        (b00, b01, b02, b03, b04),
        (b10, b11, b12, b13, b14),
        (b20, b21, b22, b23, b24),
        (b30, b31, b32, b33, b34),
        (b40, b41, b42, b43, b44),
    ) = b
    return tuple([
        (
            r0 * b00 + r1 * b10 + r2 * b20 + r3 * b30 + r4 * b40,
            r0 * b01 + r1 * b11 + r2 * b21 + r3 * b31 + r4 * b41,
            r0 * b02 + r1 * b12 + r2 * b22 + r3 * b32 + r4 * b42,
            r0 * b03 + r1 * b13 + r2 * b23 + r3 * b33 + r4 * b43,
            r0 * b04 + r1 * b14 + r2 * b24 + r3 * b34 + r4 * b44,
        )
        for r0, r1, r2, r3, r4 in a
    ])


def reflection(n):
    """I - 2 n n^T J: the reflection in an integer vector n of norm 1."""
    if lorentz_dot(n, n) != 1:
        raise ValueError("reflection vector must have Lorentz norm 1")
    return tuple(
        tuple(int(i == j) - 2 * n[i] * n[j] * LORENTZ_FORM[j] for j in range(5))
        for i in range(5)
    )


def diagonal(signs):
    """diag(signs, 1): the sign-diagonal map of R^4 on the ball."""
    diag = tuple(signs) + (1,)
    return tuple(tuple(diag[i] if i == j else 0 for j in range(5)) for i in range(5))


def primitive(w):
    """The primitive integer vector on the ray of the integer vector w."""
    g = gcd(*w)
    return tuple(x // g for x in w)


def light_vector(v):
    """The primitive integer vector on the light ray of (v, 1), for a point
    v of S^3 with coordinates in Z/2."""
    return primitive(tuple(int(2 * x) for x in v) + (2,))


class MoebiusWord(NamedTuple):
    """An isometry of H^4: one integer Lorentz matrix."""

    matrix: tuple = LORENTZ_IDENTITY

    def __mul__(self, other):
        return MoebiusWord(lorentz_mul(self.matrix, other.matrix))

    def inverse(self):
        """J M^T J."""
        m, j = self.matrix, LORENTZ_FORM
        return MoebiusWord(tuple(
            tuple(j[r] * m[c][r] * j[c] for c in range(5)) for r in range(5)
        ))

    def is_identity(self) -> bool:
        """True iff the isometry is the identity, i.e. its matrix is I."""
        return self.matrix == LORENTZ_IDENTITY


# ---------------------------------------------------------------------------
# Cusp geometry at an ideal fixed point
# ---------------------------------------------------------------------------

IDENTITY_CLASS = "identity"
TRANSLATION = "translation"
OTHER_PARABOLIC_OR_ELLIPTIC = "other"


def affine_parts(w: MoebiusWord, v):
    """Integer affine action (Q, t) of an isometry fixing the ideal point v,
    acting as x -> Q x + t on the horosphere lattice at v.

    With u = ``light_vector(v)``, the isometries fixing u act on the affine
    space {x : <x, u> = 1} / R u, whose translations are u^perp / <u>.
    The origin is w0 = u_i e_i, so <w0, u> = 1 (i < 4 the first index with
    u_i = +-1); a vector y of u^perp is the sum over j != i of
    y_j p(e_j), p(e_j) = e_j - <e_j, u> w0, and reducing modulo u drops
    coordinate d (the next index with u_d = +-1).  Origin and basis are
    integral, so Q is in GL(3, Z) and t in Z^3.  Raises ValueError when w
    does not fix v.
    """
    m = w.matrix
    u = light_vector(v)
    if lorentz_apply(m, u) != u:
        raise ValueError("word does not fix the given ideal point")
    i, d = [k for k in range(5) if u[k] in (1, -1)][:2]
    keep = [k for k in range(5) if k not in (i, d)]
    mw0 = [u[i] * m[r][i] for r in range(5)]  # M w0

    def coords(y):
        return tuple(y[k] - y[d] * u[d] * u[k] for k in keep)

    t = coords(mw0)  # the origin w0 has coordinates 0
    cols = [
        coords([m[r][j] - LORENTZ_FORM[j] * u[j] * mw0[r] for r in range(5)])
        for j in keep
    ]
    return tuple(tuple(col[r] for col in cols) for r in range(3)), t


def classify_parabolic(w: MoebiusWord, v) -> str:
    """Classify a word fixing the ideal point v: identity, pure translation
    of the horosphere at v, or anything else (rotation part present)."""
    q, t = affine_parts(w, v)
    if q != I3:
        return OTHER_PARABOLIC_OR_ELLIPTIC
    return TRANSLATION if any(t) else IDENTITY_CLASS
