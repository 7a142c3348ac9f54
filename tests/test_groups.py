import math
import random
from itertools import combinations

import pytest

from cell24 import census, groups
from cell24.groups import (
    GroupError,
    Presentation,
    abelianization,
    add_relations,
    cyclic_reduce,
    free_reduce,
    rs_double_cover,
    smith_normal_form,
    tietze_simplify,
    todd_coxeter,
    word_from_str,
    word_inverse,
    word_str,
)


def w(text):
    return word_from_str(text)


def test_free_reduce_examples():
    assert free_reduce(w("xX")) == ()
    assert free_reduce(w("xyYx")) == w("xx")
    assert free_reduce(w("xyz")) == w("xyz")


def test_free_reduce_idempotent_random():
    rng = random.Random(23)
    alphabet = "abc"
    for _ in range(300):
        word = tuple(
            (rng.choice(alphabet), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
        )
        once = free_reduce(word)
        assert free_reduce(once) == once


def test_cyclic_reduce():
    assert cyclic_reduce(w("xyX")) == w("y")
    assert cyclic_reduce(w("xyxY")) == w("xyxY")


def test_word_text():
    assert word_str(w("aBc")) == "aBc"
    assert word_str(()) == "1"
    assert word_inverse(w("ab")) == w("BA")


def test_presentation_normalisation():
    p = Presentation(("x", "y"), (w("xyY"), (), w("yxY")))
    assert p.relators == (w("x"), w("x"))
    with pytest.raises(GroupError):
        Presentation(("x",), (w("xy"),))


# -- Reidemeister-Schreier ----------------------------------------------------


def test_rs_z2_kernel():
    p = Presentation(("x",), (w("xx"),))
    cover = rs_double_cover(p, {"x": -1}, "x")
    assert cover.generators == ("xx",)
    assert len(cover.relators) == 2
    assert abelianization(cover) == ((), 0)  # trivial group
    assert todd_coxeter(cover) == 1


def test_rs_free_group():
    p = Presentation(("x",), ())
    cover = rs_double_cover(p, {"x": -1}, "x")
    assert cover.generators == ("xx",)
    assert cover.relators == ()
    assert abelianization(cover) == ((), 1)  # Z


def test_rs_errors():
    p = Presentation(("x", "y"), (w("xx"),))
    with pytest.raises(GroupError):
        rs_double_cover(p, {"x": 1, "y": 1}, "y")  # alpha not reversing
    q = Presentation(("x", "y"), (w("xy"),))
    with pytest.raises(GroupError):
        # character with eps(xy) = -1 does not kill the relator
        rs_double_cover(q, {"x": -1, "y": 1}, "x")


def test_rs_subgroup_of_a_3_cycle():
    # x moves sheet s to s + 1 mod 3, with transversal (1, x, xx): the lifts
    # x⁻¹x and x⁻¹x⁻¹xx are walls, and the stabiliser of <x | x³> is trivial.
    p = Presentation(("x",), (w("xxx"),))
    sub = groups.rs_subgroup(p, {"x": (1, 2, 0)}, ((), w("x"), w("xx")))
    assert sub.generators == ("xxx",)
    assert sub.relators == ((("xxx", 1),),) * 3
    assert todd_coxeter(sub) == 1


def test_rs_missing_generator_is_a_group_error():
    p = Presentation(("x", "y"), ())
    with pytest.raises(GroupError, match="generator 'y'"):
        rs_double_cover(p, {"x": -1}, "x")
    with pytest.raises(GroupError, match="generator 'y'"):
        groups.rs_subgroup(p, {"x": (1, 0)}, ((), w("x")))


def test_rs_transversal_must_reach_its_sheet():
    p = Presentation(("x",), (w("xxx"),))
    with pytest.raises(GroupError, match="transversal word x does not take sheet 0 to sheet 2"):
        groups.rs_subgroup(p, {"x": (1, 2, 0)}, ((), w("x"), w("x")))


def test_rs_relators_must_act_trivially():
    p = Presentation(("x",), (w("xx"),))
    with pytest.raises(GroupError, match="relator xx does not act trivially"):
        groups.rs_subgroup(p, {"x": (1, 2, 0)}, ((), w("x"), w("xx")))


def test_rs_double_cover_keeps_its_messages():
    with pytest.raises(GroupError, match="^transversal letter must be orientation reversing$"):
        rs_double_cover(Presentation(("x",), ()), {"x": 1}, "x")
    with pytest.raises(GroupError, match="^character does not kill every relator$"):
        rs_double_cover(Presentation(("x", "y"), (w("xy"),)), {"x": -1, "y": 1}, "x")


def test_rs_reference_counts(base_presentation, eps):
    cover = rs_double_cover(base_presentation, eps, "g")
    assert len(cover.generators) == 23
    assert len(cover.relators) == 48


def test_rs_output_relators_in_kernel(base_presentation, eps):
    # Mapped back to the base generators, every rewritten relator must have
    # trivial character.
    cover = rs_double_cover(base_presentation, eps, "g")
    back = {"gg": w("gg")}
    for x in base_presentation.generators:
        if x == "g":
            continue
        if eps[x] == 1:
            back[x], back[f"g⁻¹{x}g"] = w(x), word_from_str("G" + x + "g")
        else:
            back[f"{x}g"], back[f"g⁻¹{x}"] = word_from_str(x + "g"), word_from_str("G" + x)
    assert set(back) == set(cover.generators)
    for rel in cover.relators:
        base_word = ()
        for sym, sign in rel:
            part = back[sym]
            base_word += part if sign == 1 else word_inverse(part)
        assert census.eps_of_word(base_word, eps) == 1


# -- relations and abelianization ---------------------------------------------


def test_add_relations(base_presentation):
    fills = [w("c"), w("a"), w("k"), w("i"), w("EheH")]
    filled = add_relations(base_presentation, fills)
    assert len(filled.relators) == 29
    assert add_relations(base_presentation, []) == base_presentation
    with pytest.raises(GroupError):
        add_relations(base_presentation, [(("nope", 1),)])


def test_add_relation_trivialising():
    p = Presentation(("x",), ())
    q = add_relations(p, [w("x")])
    assert todd_coxeter(q) == 1


def test_abelianization_examples():
    zz = Presentation(("e", "g"), (w("ee"), w("gg"), w("egEG")))
    assert abelianization(zz) == ((2, 2), 0)
    assert abelianization(Presentation(("x",), ())) == ((), 1)


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    # oracle: |det| = 8 preserved, gcd of entries = 2
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[1]]) == [1]
    assert smith_normal_form([[6, 10], [15, 25]]) == [1, 0]


def _minor_gcd_oracle(matrix, k):
    """gcd of all k x k minors (classic determinantal-divisor oracle)."""
    rows = len(matrix)
    cols = len(matrix[0])
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            sub = [[matrix[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, round(_det(sub)))
    return g


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_smith_normal_form_against_minor_oracle():
    rng = random.Random(31)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m)
        # divisibility chain
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # determinantal divisors: prod(d_1..d_k) = gcd of k x k minors
        prod = 1
        for k, d in enumerate(diag, 1):
            oracle = _minor_gcd_oracle(m, k)
            prod *= d
            assert prod == oracle


# -- coset enumeration ----------------------------------------------------------


def test_todd_coxeter_small_groups():
    assert todd_coxeter(Presentation(("x",), (w("x"),))) == 1
    zz = Presentation(("e", "g"), (w("ee"), w("gg"), w("egEG")))
    assert todd_coxeter(zz) == 4
    s3 = Presentation(("a", "b"), (w("aa"), w("bb"), w("ababab")))
    assert todd_coxeter(s3) == 6
    q8 = Presentation(("a", "b"), (w("aaaa"), w("aabb"), w("abaB")))
    assert todd_coxeter(q8) == 8
    a5 = Presentation(("a", "b"), (w("aa"), w("bbb"), w("ababababab")))
    assert todd_coxeter(a5) == 60
    cyclic = Presentation(("x",), (w("x" * 7),))
    assert todd_coxeter(cyclic) == 7


def test_todd_coxeter_exceeded():
    z = Presentation(("x",), ())
    assert todd_coxeter(z, max_cosets=50) is None
    with pytest.raises(GroupError):
        todd_coxeter(z, max_cosets=0)


def test_todd_coxeter_filled_reference(base_presentation):
    fills = [w("c"), w("a"), w("k"), w("i"), w("EheH")]
    filled = add_relations(base_presentation, fills)
    assert todd_coxeter(filled) == 4
    assert abelianization(filled) == ((2, 2), 0)


def test_order_consistent_with_h1(base_presentation):
    fills = [w("c"), w("a"), w("k"), w("i"), w("EheH")]
    filled = add_relations(base_presentation, fills)
    order = todd_coxeter(filled)
    torsion, rank = abelianization(filled)
    assert rank == 0
    h1_order = 1
    for t in torsion:
        h1_order *= t
    assert order % h1_order == 0


# -- Tietze ----------------------------------------------------------------------


def test_tietze_examples():
    p = Presentation(("x", "y"), (w("y"),))
    q = tietze_simplify(p)
    assert q.generators == ("x",)
    assert q.relators == ()


def test_tietze_reference(base_presentation):
    fills = [w("c"), w("a"), w("k"), w("i"), w("EheH")]
    filled = add_relations(base_presentation, fills)
    simple = tietze_simplify(filled)
    assert len(simple.generators) <= 3
    assert abelianization(simple) == ((2, 2), 0)
    assert todd_coxeter(simple) == 4


def _random_presentation(rng):
    ngens = rng.randint(1, 4)
    gens = tuple("abcd"[:ngens])
    rels = []
    for _ in range(rng.randint(0, 5)):
        rels.append(
            tuple(
                (rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 6))
            )
        )
    return Presentation(gens, tuple(rels))


def test_tietze_preserves_abelianization_random():
    rng = random.Random(41)
    for _ in range(50):
        p = _random_presentation(rng)
        q = tietze_simplify(p)
        assert abelianization(q) == abelianization(p)
