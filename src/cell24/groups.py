"""Finitely presented group toolkit.

Words are tuples of (generator, sign) pairs read left to right with the
leftmost letter acting last (left action, matching the Moebius word
convention).  Generator names are arbitrary strings; single-letter lowercase
names print compactly with capitals for inverses.

Contents: free/cyclic reduction, index-2 Reidemeister-Schreier rewriting,
relation adjunction, Smith normal form and abelianization, HLT coset
enumeration, and a deterministic Tietze simplifier.
"""

from __future__ import annotations

from collections import namedtuple

Word = tuple  # of (symbol, +-1)


class GroupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


def free_reduce(word) -> Word:
    out = []
    for sym, sign in word:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def cyclic_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def word_inverse(word) -> Word:
    return tuple((sym, -sign) for sym, sign in reversed(word))


def word_mul(*words) -> Word:
    out = ()
    for w in words:
        out = free_reduce(out + tuple(w))
    return out


def word_sort_key(word):
    """Deterministic word order: by symbol, positive letters before inverses."""
    return tuple((sym, 0 if sign == 1 else 1) for sym, sign in word)


def word_from_str(text: str) -> Word:
    """Compact form: lowercase letter = generator, uppercase = its inverse."""
    out = []
    for ch in text:
        if ch.islower():
            out.append((ch, 1))
        elif ch.isupper():
            out.append((ch.lower(), -1))
        else:
            raise ValueError(f"cannot parse word character {ch!r}")
    return tuple(out)


def word_str(word) -> str:
    if not word:
        return "1"
    parts = []
    compact = all(len(sym) == 1 and sym.islower() for sym, _ in word)
    for sym, sign in word:
        if compact:
            parts.append(sym if sign == 1 else sym.upper())
        else:
            parts.append(sym if sign == 1 else f"({sym})⁻¹")
    return "".join(parts)


def h1_text(torsion, rank) -> str:
    """H1 as text: "Z/2 + Z/4 + Z + Z", or "0" for the trivial group."""
    return " + ".join([f"Z/{t}" for t in torsion] + ["Z"] * rank) or "0"


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


class Presentation(namedtuple("Presentation", "generators relators")):
    """Generators plus relators, stored freely and cyclically reduced with
    empty relators dropped (duplicates kept)."""

    __slots__ = ()

    def __new__(cls, generators, relators):
        gens = tuple(generators)
        rels = []
        for r in relators:
            r = cyclic_reduce(r)
            for sym, _ in r:
                if sym not in gens:
                    raise GroupError(f"relator uses unknown generator {sym!r}")
            if r:
                rels.append(r)
        return super().__new__(cls, gens, tuple(rels))

    def render(self) -> str:
        gens = ",".join(self.generators)
        rels = ", ".join(word_str(r) for r in self.relators)
        return f"gens: {gens} ; rels: {rels}"


def add_relations(p: Presentation, words) -> Presentation:
    return Presentation(p.generators, p.relators + tuple(tuple(w) for w in words))


# ---------------------------------------------------------------------------
# Index-2 Reidemeister-Schreier
# ---------------------------------------------------------------------------


def double_cover_generator_names(generators, eps, alpha: str) -> dict:
    """Names of the kernel generators for the index-2 subgroup cut out by the
    character eps, with transversal {1, alpha^-1}.

    For an eps-preserving x the two lifts are x and alpha^-1 x alpha; for an
    eps-reversing x they are x alpha and alpha^-1 x, except that the pair of
    alpha itself degenerates to the single generator alpha alpha.  Keys are
    (transversal_index, base_letter); the degenerate entry maps to None.
    """
    names = {}
    inv = f"{alpha}⁻¹"
    for x in generators:
        if x == alpha:
            names[(0, x)] = f"{alpha}{alpha}"
            names[(1, x)] = None  # rho(alpha^-1 alpha) = 1, dropped
        elif eps[x] == 1:
            names[(0, x)] = x
            names[(1, x)] = f"{inv}{x}{alpha}"
        else:
            names[(0, x)] = f"{x}{alpha}"
            names[(1, x)] = f"{inv}{x}"
    return names


def double_cover_generators(names) -> tuple:
    """The 2n - 1 kernel generator names of the table ``names`` (from
    ``double_cover_generator_names``): its non-degenerate entries, whose
    insertion order is the lifts of each base generator in transversal
    order."""
    return tuple(name for name in names.values() if name is not None)


def rs_rewrite(word, eps, alpha: str, names) -> Word:
    """Rewrite a word of the eps-kernel over the double-cover generators
    ``names`` (from ``double_cover_generator_names``).

    Scans the word left to right tracking the coset of each prefix; raises
    GroupError if the word is not in the kernel.
    """
    out = []
    sheet = 0  # 0 = trivial coset, 1 = coset of alpha^-1
    for sym, sign in word:
        flips = eps[sym] == -1
        if sign == 1:
            name = names[(sheet, sym)]
            if name is not None:
                out.append((name, 1))
            if flips:
                sheet ^= 1
        else:
            if flips:
                sheet ^= 1
            name = names[(sheet, sym)]
            if name is not None:
                out.append((name, -1))
    if sheet != 0:
        raise GroupError("word is not in the kernel of the character")
    return free_reduce(tuple(out))


def rs_double_cover(p: Presentation, eps: dict, alpha: str) -> Presentation:
    """Index-2 Reidemeister-Schreier: presentation of the kernel of eps.

    Generators: both lifts of every base generator minus the one degenerate
    lift of alpha (2n - 1 in total).  Relators: each base relator and its
    alpha^-1-conjugate, rewritten (2r in total).
    """
    if eps.get(alpha) != -1:
        raise GroupError("transversal letter must be orientation reversing")
    for r in p.relators:
        if any(sym not in eps for sym, _ in r):
            raise GroupError("character must be defined on all generators")
        value = 1
        for sym, _ in r:
            value *= eps[sym]
        if value != 1:
            raise GroupError("character does not kill every relator")
    names = double_cover_generator_names(p.generators, eps, alpha)
    relators = []
    t = ((alpha, -1),)
    for r in p.relators:
        relators.append(rs_rewrite(r, eps, alpha, names))
        conj = word_mul(t, r, word_inverse(t))
        relators.append(rs_rewrite(conj, eps, alpha, names))
    return Presentation(double_cover_generators(names), tuple(relators))


# ---------------------------------------------------------------------------
# Smith normal form and abelianization
# ---------------------------------------------------------------------------


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns a list of length min(rows, cols): nonnegative entries with each
    dividing the next, zeros trailing.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # Find a nonzero pivot of least absolute value.
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            pivot = m[top][top]
            done = True
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // pivot
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // pivot
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        done = False
                        break
            if done:
                break
        # Pivot must divide the rest of the matrix; absorb a bad row if not.
        pivot = abs(m[top][top])
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        diag.append(pivot)
        top += 1
    diag += [0] * (min(rows, cols) - len(diag))
    return diag


def abelianization(p: Presentation):
    """Invariant factors of the abelianized group: (torsion, free_rank)."""
    index = {g: i for i, g in enumerate(p.generators)}
    matrix = []
    for r in p.relators:
        row = [0] * len(p.generators)
        for sym, sign in r:
            row[index[sym]] += sign
        matrix.append(row)
    if not matrix:
        return (), len(p.generators)
    diag = smith_normal_form(matrix)
    torsion = tuple(d for d in diag if d > 1)
    rank = len(p.generators) - sum(1 for d in diag if d != 0)
    return torsion, rank


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT, trivial subgroup)
# ---------------------------------------------------------------------------


def todd_coxeter(p: Presentation, max_cosets: int = 100_000):
    """Order of the presented group by HLT coset enumeration over the trivial
    subgroup, or None when the bound is exceeded (inconclusive).

    Fill order is deterministic: cosets in definition order, relators in
    presentation order.
    """
    if max_cosets < 1:
        raise GroupError("max_cosets must be at least 1")
    gens = list(p.generators)
    index = {g: i for i, g in enumerate(gens)}
    ngen = len(gens)

    def col(sym, sign):
        return 2 * index[sym] + (0 if sign == 1 else 1)

    relators = [[col(sym, sign) for sym, sign in r] for r in p.relators]
    table = [[None] * (2 * ngen)]
    parent = [0]

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge(a, b, queue):
        a, b = find(a), find(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        while queue:
            dead = queue.pop(0)
            row = table[dead]
            table[dead] = None
            for c, delta in enumerate(row):
                if delta is None:
                    continue
                # Remove the mirror edge into the dead coset, then re-install
                # this edge between the current representatives.
                if table[delta] is not None:
                    table[delta][c ^ 1] = None
                mu = find(dead)
                nu = find(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c], queue)
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1], queue)
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def define(a, c):
        if len(table) >= max_cosets:
            return None
        b = len(table)
        table.append([None] * (2 * ngen))
        parent.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a
        return b

    def scan_and_fill(a, rel):
        """Scan relator rel from coset a, defining cosets as needed.
        Returns False only when the coset bound is hit."""
        a = find(a)
        f = a
        i = 0
        b = a
        j = len(rel) - 1
        while True:
            while i <= j and table[f][rel[i]] is not None:
                f = find(table[f][rel[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][rel[j] ^ 1] is not None:
                b = find(table[b][rel[j] ^ 1])
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if j == i:
                # Deduction: the single gap is forced.
                table[f][rel[i]] = b
                table[b][rel[i] ^ 1] = f
                return True
            if define(f, rel[i]) is None:
                return False

    changed = True
    while changed:
        changed = False
        alive = 0
        while alive < len(table):
            if table[alive] is None or find(alive) != alive:
                alive += 1
                continue
            dead_mid_scan = False
            for rel in relators:
                if not scan_and_fill(alive, rel):
                    return None
                if table[alive] is None or find(alive) != alive:
                    dead_mid_scan = True
                    break
            if not dead_mid_scan:
                for c in range(2 * ngen):
                    if table[alive][c] is None:
                        if define(alive, c) is None:
                            return None
                        changed = True
            alive += 1
        # A second pass only runs if the final fill introduced fresh cosets
        # after their scan window; normally everything closes in one pass.
        if changed:
            changed = any(
                table[a] is not None and find(a) == a and None in table[a]
                for a in range(len(table))
            )

    live = [a for a in range(len(table)) if find(a) == a and table[a] is not None]
    # Closed table: verify every relator closes at every live coset.
    for a in live:
        for rel in relators:
            c = a
            for x in rel:
                c = find(table[c][x])
            if c != a:
                raise GroupError("coset table failed to close consistently")
    return len(live)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------


def solve_relator(rel, k) -> Word:
    """The word w such that rel = 1 says exactly (generator of rel[k]) = w;
    the generator must occur in rel only at k."""
    sign = rel[k][1]
    # rel = before . sym^sign . after = 1  =>  sym^sign = before^-1 after^-1
    solved = word_mul(word_inverse(rel[:k]), word_inverse(rel[k + 1:]))
    return solved if sign == 1 else word_inverse(solved)


def substitute(word, sym, replacement) -> Word:
    """Replace every occurrence of sym in word by replacement (inverted for
    sym^-1), freely reduced."""
    out = []
    inv = word_inverse(replacement)
    for s, sign in word:
        if s == sym:
            out.extend(replacement if sign == 1 else inv)
        else:
            out.append((s, sign))
    return free_reduce(tuple(out))


def _dedupe_relators(relators):
    seen = set()
    out = []
    for r in relators:
        r = cyclic_reduce(r)
        if not r:
            continue
        forms = set()
        for k in range(len(r)):
            rot = r[k:] + r[:k]
            forms.add(rot)
            forms.add(word_inverse(rot))
        if not (forms & seen):
            out.append(r)
        seen |= forms
    return out


def tietze_simplify(p: Presentation) -> Presentation:
    """Eliminate generators by Tietze moves only.

    Strategy: repeatedly pick the shortest relator containing some generator
    exactly once (ties by generator name), solve for that generator, and
    substitute everywhere; relators are kept freely and cyclically reduced
    and deduplicated up to rotation and inversion.  The presented group is
    unchanged by construction.  Each elimination removes a generator, so
    there are at most as many eliminations as generators.
    """
    gens = list(p.generators)
    relators = _dedupe_relators(p.relators)
    for _ in range(len(gens)):
        candidate = None
        for r in sorted(relators, key=len):
            counts = {}
            for sym, _ in r:
                counts[sym] = counts.get(sym, 0) + 1
            once = sorted(sym for sym, n in counts.items() if n == 1)
            if once:
                candidate = (r, once[0])
                break
        if candidate is None:
            break
        rel, sym = candidate
        k = next(i for i, (s, _) in enumerate(rel) if s == sym)
        replacement = solve_relator(rel, k)
        gens.remove(sym)
        relators = _dedupe_relators(
            [substitute(r, sym, replacement) for r in relators if r is not rel]
        )
    return Presentation(tuple(gens), tuple(relators))
