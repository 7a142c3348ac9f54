"""Independent point-level oracle for the integer Lorentz matrices.

Side pairings are evaluated as Moebius maps of R^4 with a point at
infinity, on exact rational points: the inversion in the target side's
unit sphere after the sign flip of the pairing's k-part.  A word over
pairing letters acts on the left (its last letter first).  Nothing here
reads a Lorentz matrix; the small exact Gaussian elimination serves the
tests that need a rank or the coordinates of a vector in a basis.
"""

from fractions import Fraction

INF = "inf"


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def invert(center, radius_sq, p):
    """Inversion in the sphere |x - center|^2 = radius_sq."""
    if p == INF:
        return tuple(Fraction(c) for c in center)
    d = [a - c for a, c in zip(p, center)]
    n = dot(d, d)
    if n == 0:
        return INF
    return tuple(c + Fraction(radius_sq) * x / n for c, x in zip(center, d))


def flip(signs, p):
    return p if p == INF else tuple(s * x for s, x in zip(signs, p))


def on_sphere(center, p):
    """Whether p lies on the unit sphere about center (a side sphere)."""
    if p == INF:
        return False
    d = [a - c for a, c in zip(p, center)]
    return dot(d, d) == 1


def pairing_point(pairing, p, sign=1):
    """A side pairing (sign 1) or its inverse (sign -1) on a point; both
    atoms are involutions, so the inverse applies them in reverse order."""
    center = pairing.target.center
    if sign == 1:
        return invert(center, 1, flip(pairing.kpart, p))
    return flip(pairing.kpart, invert(center, 1, p))


def word_point(word, pairings, p):
    """A word over pairing letters on a point, last letter applied first."""
    by_letter = {q.letter: q for q in pairings}
    for letter, sign in reversed(word):
        p = pairing_point(by_letter[letter], p, sign)
    return p


def side_of_points(points, poly):
    """The side whose sphere holds every point, or None.  The six ideal
    vertices of a side determine the sphere among those orthogonal to S^3."""
    hits = [
        label for label, side in poly.sides.items()
        if all(on_sphere(side.center, p) for p in points)
    ]
    return hits[0] if len(hits) == 1 else None


def sphere_points(rng, count):
    """Rational points of S^3: inverse stereographic images of rational
    points of R^3."""
    out = []
    for _ in range(count):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        n = sum(x * x for x in p)
        out.append(tuple(2 * x / (n + 1) for x in p) + ((n - 1) / (n + 1),))
    return out


def _eliminate(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def solver(columns):
    """For independent columns, the map b -> the coefficients x with
    sum_j x_j columns[j] = b; it raises ValueError for b outside their span.
    One elimination of [A | I] serves every b."""
    n, size = len(columns), len(columns[0])
    m, pivots = _eliminate(
        [[c[i] for c in columns] + [int(i == j) for j in range(size)] for i in range(size)]
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("columns are dependent")

    def coefficients(b):
        x = [dot(row[n:], b) for row in m]
        if any(x[n:]):
            raise ValueError("vector outside the span")
        return x[:n]

    return coefficients
