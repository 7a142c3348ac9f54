"""Reference data and invariants for the ten closed flat 3-manifolds.

A cusp cross-section of a cusped hyperbolic 4-manifold is a closed flat
3-manifold; its fundamental group is a rank-3 Bieberbach group, an extension
of a finite point group (the linear holonomy) by the translation lattice.
Given integer affine generators (Q, t) of such a group (Q in GL(3, Z), t in
Z^3) we compute:

  * the holonomy group (closure of the linear parts),
  * the translation lattice (Schreier generators of the kernel, then an
    integer row basis B),
  * the abelianization, via the standard presentation of the extension
    (lattice basis + one lift per holonomy generator; relations are the
    conjugation action and the lifted point-group relators).

Everything stays in integers: lattice coordinates B^-1 x are the numerators
adj(B) x over det(B), so lift translations are integer vectors over one
denominator and a relator's translation is divided by it exactly.

The decision table below stores the ten standard groups by the same recipe
(holonomy matrices acting on Z^3 plus lift translations over a
denominator), so runtime cusps and reference types are classified by one
code path.  Tuples that match no reference entry, or more than one, come
back as "ambiguous".
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import smith_normal_form

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


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
    q1, t1 = f
    q2, t2 = g
    return mat_mul(q1, q2), tuple(a + b for a, b in zip(mat_vec(q1, t2), t1))


AFFINE_ID = (I3, (0, 0, 0))


def integer_row_basis(vectors):
    """Basis of the Z-span of integer 3-vectors.

    Euclidean row reduction column by column; the selected pivots have
    strictly increasing leading column, hence form a basis of the span.
    """
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(3):
        while True:
            pool = [r for r in rows if r[col] != 0]
            if len(pool) <= 1:
                break
            pool.sort(key=lambda r: abs(r[col]))
            small = pool[0]
            for r in pool[1:]:
                q = r[col] // small[col]
                for j in range(3):
                    r[j] -= q * small[j]
            rows = [r for r in rows if any(r)]
        pool = [r for r in rows if r[col] != 0]
        if pool:
            piv = pool[0]
            if piv[col] < 0:
                piv[:] = [-x for x in piv]
            basis.append(piv)
            rows = [r for r in rows if r is not piv]
    return [tuple(b) for b in basis]


def holonomy_closure(mats, cap=256):
    elems = {I3}
    frontier = [I3]
    while frontier:
        nxt = []
        for f in frontier:
            for g in mats:
                h = mat_mul(f, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
                    if len(elems) > cap:
                        raise ValueError("holonomy closure exceeded cap")
        frontier = nxt
    return elems


def mat_order(m, cap=24):
    p = m
    for n in range(1, cap + 1):
        if p == I3:
            return n
        p = mat_mul(p, m)
    raise ValueError("matrix order exceeded cap")


def _point_group_relators(gens):
    """Defining relators (as words of generator indices) for the point
    groups that occur on rank-3 lattices: trivial, cyclic, Klein four."""
    if not gens:
        return []
    orders = [mat_order(g) for g in gens]
    if len(gens) == 1:
        return [(0,) * orders[0]]
    if len(gens) == 2 and orders == [2, 2]:
        return [(0, 0), (1, 1), (0, 1, 0, 1)]
    raise ValueError("unsupported point-group generating set")


def extension_h1(hol_gens, lifts, denominator=1):
    """Abelianization of a Bieberbach extension from explicit data.

    hol_gens: integer 3x3 matrices generating the point group in lattice
    coordinates (must be a minimal generating set: one generator for a
    cyclic group, two involutions for Klein four); lifts: the translation
    part of one chosen lift per generator, in lattice coordinates, as
    integer numerators over ``denominator``.  Numerators compose like the
    lifts themselves, since the linear parts are integral.  Returns
    (torsion, rank, holonomy_order).
    """
    order = len(holonomy_closure(hol_gens))
    k = len(hol_gens)
    rows = []
    for g in hol_gens:
        for j in range(3):
            col = tuple(g[i][j] - (1 if i == j else 0) for i in range(3))
            rows.append(list(col) + [0] * k)
    for word in _point_group_relators(hol_gens):
        q, t = AFFINE_ID
        for idx in word:
            q, t = affine_mul((q, t), (hol_gens[idx], lifts[idx]))
        if q != I3:
            raise ValueError("point-group relator does not lift to a translation")
        if any(x % denominator for x in t):
            raise ValueError("relator translation is not a lattice vector")
        rows.append([-(x // denominator) for x in t] + [word.count(i) for i in range(k)])
    if not rows:
        return (), 3, 1
    diag = smith_normal_form(rows)
    torsion = tuple(d for d in diag if d > 1)
    rank = (3 + k) - sum(1 for d in diag if d != 0)
    return torsion, rank, order


@dataclass(frozen=True)
class FlatType:
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

_TABLE = None


def reference_table():
    """(orientable, holonomy order, torsion, rank) -> standard label.

    Keys that collide between reference types are dropped, so lookups on
    them classify as ambiguous.
    """
    global _TABLE
    if _TABLE is None:
        table = {}
        collided = set()
        for t in FLAT_TYPES:
            torsion, rank, order = t.invariants()
            key = (t.orientable, order, torsion, rank)
            if key in table:
                collided.add(key)
            table[key] = t.name
        for key in collided:
            del table[key]
        _TABLE = table
    return _TABLE


def classify_flat(orientable, holonomy_order, torsion, rank) -> str:
    key = (bool(orientable), holonomy_order, tuple(torsion), rank)
    return reference_table().get(key, "ambiguous")
