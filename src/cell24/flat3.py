"""Reference data and invariants for the ten closed flat 3-manifolds.

A cusp cross-section of a cusped hyperbolic 4-manifold is a closed flat
3-manifold; its fundamental group is a rank-3 Bieberbach group, an extension
of a finite point group (the linear holonomy) by the translation lattice.
Given integer affine generators (Q, t) of such a group and their inverses
(Q in GL(3, Z), t in Z^3), ``bieberbach_h1`` computes, from one closure:

  * the holonomy group, as the keys of a transversal (``holonomy_closure``:
    linear part -> one lift),
  * the translation lattice (Schreier generators of the kernel read off the
    transversal, then their echelon basis B from ``groups.row_basis``),
  * a minimal generating set of the point group with its lifts, and
  * the abelianization, via the standard presentation of the extension
    (lattice basis + one lift per holonomy generator; relations are the
    conjugation action and the lifted point-group relators), in
    ``extension_h1``.

Everything stays in integers: lattice coordinates B^-1 x are the numerators
adj(B) x over det(B), so lift translations are integer vectors over one
denominator and a relator's translation is divided by it exactly.

The decision table below stores the ten standard groups by the same recipe
(holonomy matrices acting on Z^3 plus lift translations over a
denominator), so runtime cusps and reference types are classified by one
code path.  Tuples that match no reference entry come back as "ambiguous".
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import abelian_invariants, row_basis
from .moebius import I3


def mat_mul(a, b):
    # Unrolled, as moebius.lorentz_mul: the translation search spends most
    # of its time in these products.
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
    )


def mat_vec(a, v):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    v0, v1, v2 = v
    return (
        a00 * v0 + a01 * v1 + a02 * v2,
        a10 * v0 + a11 * v1 + a12 * v2,
        a20 * v0 + a21 * v1 + a22 * v2,
    )


def det3(q):
    return (
        q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
        - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
        + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0])
    )


def adjugate(q):
    """adj(q), so that adj(q) q = det(q) I."""
    return tuple(
        tuple(
            q[(j + 1) % 3][(i + 1) % 3] * q[(j + 2) % 3][(i + 2) % 3]
            - q[(j + 1) % 3][(i + 2) % 3] * q[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )


def affine_mul(f, g):
    """(Q1, t1) o (Q2, t2), acting as x -> Q1(Q2 x + t2) + t1."""
    (q1, (s0, s1, s2)), (q2, t2) = f, g
    x, y, z = mat_vec(q1, t2)
    return mat_mul(q1, q2), (x + s0, y + s1, z + s2)


AFFINE_ID = (I3, (0, 0, 0))


def holonomy_closure(affines):
    """Transversal of the holonomy quotient of the group generated by the
    integer affine maps ``affines`` (closed under inverses): linear part ->
    the first lift of it reached breadth-first.  Its keys are the holonomy
    group, which is finite for a Bieberbach group; a finite subgroup of
    GL(3, Z) has at most 48 elements."""
    reps = {I3: AFFINE_ID}
    frontier = [AFFINE_ID]
    while frontier:
        nxt = []
        for f in frontier:
            for g in affines:
                h = affine_mul(f, g)
                if h[0] not in reps:
                    reps[h[0]] = h
                    nxt.append(h)
                    if len(reps) > 48:
                        raise ValueError("holonomy group is infinite")
        frontier = nxt
    return reps


def mat_order(m, cap=24):
    p = m
    for n in range(1, cap + 1):
        if p == I3:
            return n
        p = mat_mul(p, m)
    raise ValueError("matrix order exceeded cap")


UNEXPECTED_POINT_GROUP = "unexpected cusp point group structure"


def _point_group_relators(gens):
    """(order, defining relators as words of generator indices) of the point
    group generated by ``gens``, for the generating sets of rank-3 lattice
    point groups used here: none (trivial), one element (cyclic), or two
    commuting involutions (Klein four)."""
    if not gens:
        return 1, []
    if len(gens) == 1:
        n = mat_order(gens[0])
        return n, [(0,) * n]
    if (
        len(gens) == 2
        and [mat_order(g) for g in gens] == [2, 2]
        and mat_mul(*gens) == mat_mul(*reversed(gens))
    ):
        return 4, [(0, 0), (1, 1), (0, 1, 0, 1)]
    raise ValueError(UNEXPECTED_POINT_GROUP)


def extension_h1(hol_gens, lifts, denominator=1):
    """Abelianization of a Bieberbach extension from explicit data.

    hol_gens: integer 3x3 matrices generating the point group in lattice
    coordinates (none, one generator of a cyclic group, or two commuting
    involutions); lifts: the translation part of one chosen lift per
    generator, in lattice coordinates, as integer numerators over
    ``denominator``.  Numerators compose like the lifts themselves, since
    the linear parts are integral.  Returns (torsion, rank,
    holonomy_order), the order read off the point-group relators.
    """
    order, relators = _point_group_relators(hol_gens)
    k = len(hol_gens)
    rows = []
    for g in hol_gens:
        for j in range(3):
            col = tuple(g[i][j] - (1 if i == j else 0) for i in range(3))
            rows.append(list(col) + [0] * k)
    for word in relators:
        q, t = AFFINE_ID
        for idx in word:
            q, t = affine_mul((q, t), (hol_gens[idx], lifts[idx]))
        if q != I3:
            raise ValueError("point-group relator does not lift to a translation")
        if any(x % denominator for x in t):
            raise ValueError("relator translation is not a lattice vector")
        rows.append([-(x // denominator) for x in t] + [word.count(i) for i in range(k)])
    return (*abelian_invariants(rows, 3 + k), order)


def bieberbach_h1(affines):
    """(holonomy order, H1 torsion, H1 rank) of the rank-3 Bieberbach group
    generated by the integer affine maps ``affines`` (closed under inverses).

    The holonomy transversal gives the translation lattice: r g and the
    representative of its linear part share that part, so the Schreier
    translation r g back^-1 is the difference of their translations.  The
    point group is generated by one element of maximal order when that
    element generates it, else by its first two nontrivial elements (a
    Klein four-group); each generator is lifted by its transversal entry.
    """
    reps = holonomy_closure(affines)
    vectors = []
    for r in reps.values():
        for g in affines:
            q, t = affine_mul(r, g)
            vectors.append(tuple(a - b for a, b in zip(t, reps[q][1])))
    basis = row_basis(vectors)
    if len(basis) != 3:
        raise ValueError("cusp translation lattice must have rank 3")
    # Lattice coordinates B^-1 x = adj(B) x / det(B), B the basis as columns.
    bmat = tuple(tuple(b[i] for b in basis) for i in range(3))
    adj, det = adjugate(bmat), det3(bmat)

    def conjugated(m):
        out = mat_mul(adj, mat_mul(m, bmat))
        if any(x % det for row in out for x in row):
            raise ValueError("holonomy does not preserve the lattice")
        return tuple(tuple(x // det for x in row) for row in out)

    elems = sorted(m for m in reps if m != I3)
    gens = [max(elems, key=mat_order)] if elems else []
    if gens and mat_order(gens[0]) < len(reps):
        gens = elems[:2]
    torsion, rank, order = extension_h1(
        [conjugated(g) for g in gens], [mat_vec(adj, reps[g][1]) for g in gens], det
    )
    if order != len(reps):
        raise ValueError(UNEXPECTED_POINT_GROUP)
    return order, torsion, rank


class FlatType(NamedTuple):
    name: str
    orientable: bool
    hol_gens: tuple
    lifts: tuple             # integer lift translations over the denominator
    denominator: int = 1

    def invariants(self):
        return extension_h1(self.hol_gens, self.lifts, self.denominator)


def _fix_e1(e2_to, e3_to):
    """Matrix fixing e1 with prescribed images of e2 and e3 (as columns)."""
    cols = [(1, 0, 0), e2_to, e3_to]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


FLAT_TYPES = (
    FlatType("G1", True, (), ()),
    FlatType("G2", True, (((1, 0, 0), (0, -1, 0), (0, 0, -1)),), ((1, 0, 0),), 2),
    FlatType("G3", True, (_fix_e1((0, 0, 1), (0, -1, -1)),), ((1, 0, 0),), 3),
    FlatType("G4", True, (_fix_e1((0, 0, 1), (0, -1, 0)),), ((1, 0, 0),), 4),
    FlatType("G5", True, (_fix_e1((0, 0, 1), (0, -1, 1)),), ((1, 0, 0),), 6),
    FlatType(
        "G6",
        True,
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((-1, 0, 0), (0, 1, 0), (0, 0, -1))),
        ((1, 1, 0), (0, 1, 1)),
        2,
    ),
    FlatType("B1", False, (((1, 0, 0), (0, 1, 0), (0, 0, -1)),), ((1, 0, 0),), 2),
    FlatType("B2", False, (((1, 0, 0), (0, 0, 1), (0, 1, 0)),), ((1, 0, 0),), 2),
    FlatType(
        "B3",
        False,
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
        ((1, 0, 0), (0, 1, 0)),
        2,
    ),
    FlatType(
        "B4",
        False,
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
        ((1, 0, 0), (0, 1, 1)),
        2,
    ),
)


@lru_cache(maxsize=None)
def reference_table():
    """(orientable, holonomy order, torsion, rank) -> standard label; the
    ten reference types have ten distinct keys."""
    return {(t.orientable, order, torsion, rank): t.name
            for t in FLAT_TYPES for torsion, rank, order in [t.invariants()]}


def classify_flat(orientable, holonomy_order, torsion, rank) -> str:
    key = (bool(orientable), holonomy_order, tuple(torsion), rank)
    return reference_table().get(key, "ambiguous")
