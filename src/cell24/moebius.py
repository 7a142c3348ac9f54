"""Exact Moebius geometry of the conformal ball model of H^4.

Points live on R^4 together with a point at infinity; the maps we need are
generated by inversions in spheres, reflections in hyperplanes, and
sign-diagonal linear maps.  All of these are involutions, so a word is
inverted by reversing its atom sequence.

A map that preserves the unit ball is also an exact Lorentz matrix in
O+(4,1) acting on R^5 with the form J = diag(1, 1, 1, 1, -1) (the
hyperboloid model).  The ideal point v of S^3 is the light ray of (v, 1),
and inversion in a sphere with centre c and radius r orthogonal to S^3
(|c|^2 = 1 + r^2) is the reflection R = I - 2 n n^T J / <n, n> in the
spacelike vector n = (c, 1).  This correspondence is a group isomorphism,
so a word is the identity exactly when its matrix is I.  Every side pairing
of the ideal 24-cell has an integer matrix.

Convention (fixed once, used everywhere): words act on the left, the atom
sequence is applied right-to-left, i.e. ``MoebiusWord((f, g))`` is the map
f o g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm

from .exact import rat_rank, rat_solve, rat_str

Vec = tuple  # tuple of Fraction, length 4


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def vdot(u: Vec, v: Vec) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def vec_str(v: Vec) -> str:
    return "(" + ",".join(rat_str(c) for c in v) + ")"


# ---------------------------------------------------------------------------
# Lorentz matrices: 5x5 tuples of ints (Fractions only where not integral)
# ---------------------------------------------------------------------------

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
    cols = tuple(zip(*b))
    return tuple([
        tuple([
            r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4
            for c0, c1, c2, c3, c4 in cols
        ])
        for r0, r1, r2, r3, r4 in a
    ])


def _reflection(n):
    """I - 2 n n^T J / <n, n>: the Lorentz reflection in the spacelike
    rational vector n, with integer entries wherever they are integral."""
    scale = lcm(*(Fraction(x).denominator for x in n))
    n = tuple(int(x * scale) for x in n)
    q = lorentz_dot(n, n)
    if q <= 0:
        raise ValueError("reflection vector must be spacelike")
    rows = []
    for i in range(5):
        row = []
        for j in range(5):
            num = (q if i == j else 0) - 2 * n[i] * n[j] * LORENTZ_FORM[j]
            row.append(num // q if num % q == 0 else Fraction(num, q))
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class Sphere:
    """Round sphere in R^4: centre and squared radius (radius_sq > 0)."""

    center: Vec
    radius_sq: Fraction

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise ValueError("sphere needs positive squared radius")

    def contains(self, p) -> bool:
        if p is INF:
            return False
        d = vsub(p, self.center)
        return vdot(d, d) == self.radius_sq


def _plane_canonical(normal: Vec, offset: Fraction):
    # Scale so the normal is a primitive integer vector with positive leading
    # entry; planes are equal up to scalar, so this is the canonical form.
    denoms = [c.denominator for c in normal] + [offset.denominator]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in normal]
    off = offset * lcm
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        raise ValueError("plane needs a nonzero normal")
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        g = -g
    return tuple(Fraction(c, g) for c in ints), off / g


@dataclass(frozen=True)
class Plane:
    """Hyperplane { x : normal . x = offset }, stored in canonical form."""

    normal: Vec
    offset: Fraction

    def __post_init__(self):
        n, d = _plane_canonical(self.normal, Fraction(self.offset))
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", d)

    def contains(self, p) -> bool:
        if p is INF:
            return True
        return vdot(self.normal, p) == self.offset


# ---------------------------------------------------------------------------
# Atomic maps (all involutions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inversion:
    sphere: Sphere

    def point(self, p):
        c = self.sphere.center
        if p is INF:
            return c
        d = vsub(p, c)
        n = vdot(d, d)
        if n == 0:
            return INF
        return vadd(c, vscale(self.sphere.radius_sq / n, d))

    def gensphere(self, s):
        a = self.sphere.center
        r2 = self.sphere.radius_sq
        if isinstance(s, Sphere):
            d = vsub(s.center, a)
            t = vdot(d, d) - s.radius_sq
            if t == 0:
                # Sphere through the inversion centre maps to a hyperplane.
                return Plane(d, vdot(a, d) + r2 / 2)
            f = r2 / t
            return Sphere(vadd(a, vscale(f, d)), f * f * s.radius_sq)
        # Plane input.
        h = s.offset - vdot(a, s.normal)
        if h == 0:
            return s
        f = r2 / (2 * h)
        return Sphere(vadd(a, vscale(f, s.normal)), f * f * vdot(s.normal, s.normal))

    @cached_property
    def matrix(self):
        """Lorentz matrix: the reflection in (c, 1).  Only spheres orthogonal
        to S^3 preserve the ball."""
        c = self.sphere.center
        if vdot(c, c) != 1 + self.sphere.radius_sq:
            raise ValueError("inversion sphere is not orthogonal to S^3")
        return _reflection(tuple(c) + (1,))

    def __str__(self):
        return f"Inv[{vec_str(self.sphere.center)};{rat_str(self.sphere.radius_sq)}]"


@dataclass(frozen=True)
class SignFlip:
    signs: tuple  # entries in {-1, +1}

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("sign vector entries must be +-1")
        if all(s == 1 for s in self.signs):
            raise ValueError("identity sign flip is not an atom")

    def _flip(self, v: Vec) -> Vec:
        return tuple(s * c for s, c in zip(self.signs, v))

    def point(self, p):
        if p is INF:
            return INF
        return self._flip(p)

    def gensphere(self, s):
        if isinstance(s, Sphere):
            return Sphere(self._flip(s.center), s.radius_sq)
        return Plane(self._flip(s.normal), s.offset)

    @cached_property
    def matrix(self):
        """Lorentz matrix: diag(signs, 1)."""
        diag = tuple(self.signs) + (1,)
        return tuple(
            tuple(diag[i] if i == j else 0 for j in range(5)) for i in range(5)
        )

    def __str__(self):
        return "Diag[" + "".join("+" if s == 1 else "-" for s in self.signs) + "]"


@dataclass(frozen=True)
class PlaneReflect:
    plane: Plane

    def point(self, p):
        if p is INF:
            return INF
        n = self.plane.normal
        f = 2 * (vdot(p, n) - self.plane.offset) / vdot(n, n)
        return vsub(p, vscale(f, n))

    def gensphere(self, s):
        if isinstance(s, Sphere):
            return Sphere(self.point(s.center), s.radius_sq)
        m = self.plane.normal
        nn = vsub(s.normal, vscale(2 * vdot(s.normal, m) / vdot(m, m), m))
        # Offset via the image of one point of the plane: p0 = (offset/|n|^2) n.
        p0 = vscale(s.offset / vdot(s.normal, s.normal), s.normal)
        return Plane(nn, vdot(self.point(p0), nn))

    @cached_property
    def matrix(self):
        """Lorentz matrix: the reflection in (normal, 0).  Only planes
        through the origin preserve the ball."""
        if self.plane.offset != 0:
            raise ValueError("reflection plane does not pass through the origin")
        return _reflection(tuple(self.plane.normal) + (0,))

    def __str__(self):
        return f"Refl[{vec_str(self.plane.normal)}={rat_str(self.plane.offset)}]"


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


class MoebiusWord:
    """Composable sequence of atomic maps, applied right-to-left."""

    __slots__ = ("atoms", "_lorentz")

    def __init__(self, atoms=()):
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "_lorentz", None)

    def __setattr__(self, *args):
        raise AttributeError("MoebiusWord is immutable")

    def __mul__(self, other):
        return MoebiusWord(self.atoms + other.atoms)

    def inverse(self):
        # Every atom is an involution.
        return MoebiusWord(tuple(reversed(self.atoms)))

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        return isinstance(other, MoebiusWord) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def point(self, p):
        for atom in reversed(self.atoms):
            p = atom.point(p)
        return p

    def gensphere(self, s):
        for atom in reversed(self.atoms):
            s = atom.gensphere(s)
        return s

    def lorentz(self):
        """The exact Lorentz matrix of the word: the product of its atoms'
        matrices, computed once per word.  Raises ValueError when an atom
        does not preserve the ball."""
        m = self._lorentz
        if m is None:
            matrices = [atom.matrix for atom in self.atoms] or [LORENTZ_IDENTITY]
            m = reduce(lorentz_mul, matrices)
            object.__setattr__(self, "_lorentz", m)
        return m

    def is_identity(self) -> bool:
        """True iff the word is the identity map, i.e. its Lorentz matrix
        is I."""
        return self.lorentz() == LORENTZ_IDENTITY

    def __str__(self):
        if not self.atoms:
            return "Id"
        return " o ".join(str(a) for a in self.atoms)

    def __repr__(self):
        return f"MoebiusWord({self.atoms!r})"


# ---------------------------------------------------------------------------
# Parabolic classification at an ideal fixed point
# ---------------------------------------------------------------------------

IDENTITY_CLASS = "identity"
TRANSLATION = "translation"
OTHER_PARABOLIC_OR_ELLIPTIC = "other"


def conjugate_to_infinity(v: Vec) -> MoebiusWord:
    """Inversion in the unit sphere centred at v in S^3; sends v to infinity
    and S^3 to the hyperplane { x . v = 1/2 }."""
    if vdot(v, v) != 1:
        raise ValueError("conjugation point must lie on S^3")
    return MoebiusWord((Inversion(Sphere(v, Fraction(1))),))


def horoplane_frame(v: Vec):
    """Exact affine frame (p0, p1, p2, p3) spanning the image hyperplane
    { x . v = 1/2 } of S^3 under ``conjugate_to_infinity(v)``."""
    p0 = vscale(Fraction(1, 2), v)
    basis = []
    for i in range(4):
        e = tuple(Fraction(1 if j == i else 0) for j in range(4))
        u = vsub(e, vscale(vdot(e, v), v))
        if rat_rank([list(b) for b in basis] + [list(u)]) > len(basis):
            basis.append(u)
        if len(basis) == 3:
            break
    if len(basis) != 3:
        raise AssertionError("failed to span the horoplane")
    return p0, tuple(basis)


def classify_parabolic(w: MoebiusWord, v: Vec) -> str:
    """Classify a word fixing the ideal point v: identity, pure translation of
    the conjugated horoplane, or anything else (rotation part present)."""
    if w.point(v) != v:
        raise ValueError("word does not fix the given ideal point")
    sigma = conjugate_to_infinity(v)
    conj = sigma * w * sigma
    p0, basis = horoplane_frame(v)
    q0 = conj.point(p0)
    if q0 is INF:
        raise AssertionError("conjugated word must fix infinity")
    translates = True
    for b in basis:
        pi = vadd(p0, b)
        qi = conj.point(pi)
        if qi is INF or vsub(qi, q0) != b:
            translates = False
            break
    if not translates:
        return OTHER_PARABOLIC_OR_ELLIPTIC
    return IDENTITY_CLASS if q0 == p0 else TRANSLATION


def affine_parts(w: MoebiusWord, v: Vec):
    """Exact affine form of the conjugated action on the horoplane at v.

    Returns (Q, t): a 3x3 Fraction matrix and a length-3 translation vector,
    both in the ``horoplane_frame`` basis, with w acting as x -> Q x + t.
    """
    if w.point(v) != v:
        raise ValueError("word does not fix the given ideal point")
    sigma = conjugate_to_infinity(v)
    conj = sigma * w * sigma
    p0, basis = horoplane_frame(v)
    cols = [list(b) for b in basis]
    a_rows = [[cols[j][i] for j in range(3)] for i in range(4)]

    def coords(x):
        return rat_solve(a_rows, list(x))

    q0 = conj.point(p0)
    t = coords(vsub(q0, p0))
    q_cols = []
    for b in basis:
        qi = conj.point(vadd(p0, b))
        q_cols.append(coords(vsub(qi, q0)))
    q = tuple(tuple(q_cols[j][i] for j in range(3)) for i in range(3))
    return q, tuple(t)
