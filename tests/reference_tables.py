"""Published reference tables for code 146928, transcribed verbatim.

Row format: whitespace-separated tokens alternating nodes and arrows,
`node arrow node arrow node arrow node arrow node` (the last node is the
printed terminus).  Nodes are `ACTIVE.PASSIVE` where a trailing `-` marks
the transformed copy of the doubled domain; arrows are pairing names with
an optional `^-1` suffix.

Rows are transcribed as printed, including the handful of typos in the
source tables; KNOWN_TYPOS lists where the printed rows disagree with the
exact recomputation.
"""

BASE_CYCLE_ROWS = [
    "A.C a A'.D d A'.D' a^-1 A.C' c^-1 A.C",
    "A.E a A'.E e B'.E' b^-1 B.E' e^-1 A.E",
    "A.F a A'.F f B'.F' b^-1 B.F' f^-1 A.F",
    "A.G a A'.H' h^-1 A.H a A'.G' g^-1 A.G",
    "A.I a A'.I i B'.I' b^-1 B.I' i^-1 A.I",
    "A.J a A'.J j B'.J' b^-1 B.J' j^-1 A.J",
    "B.C b B'.D d B'.D' b^-1 B.C' c^-1 B.C",
    "B.G b B'.H' h^-1 B.H b B'.G' g^-1 B.G",
    "C.E c C'.F f C.F' c C'.E' e^-1 C.E",
    "C.G c C'.G g D'.G' d^-1 D.G' g^-1 C.G",
    "C.H c C'.H h D'.H' d^-1 D.H' h^-1 C.H",
    "C.K c C'.L l C'.L' c^-1 C.K' k^-1 C.K",
    "D.E d D'.F f D.F' d D'.E' e^-1 D.E",
    "D.K d D'.L l D'.L' d^-1 D.K' k^-1 D.K",
    "E.I e E'.I' i^-1 F.I f F'.I' i^-1 E.I",
    "E.J e E'.J' j^-1 F.J f F'.J' j^-1 E.J",
    "E.K e E'.L l E'.L' e^-1 E.K' k^-1 E.K",
    "F.L f F'.K k F'.K' f^-1 F.L' l^-1 F.L",
    "G.I g G'.J j G'.J' g^-1 G.I' i^-1 G.I",
    "G.K g G'.K' k^-1 H'.K h^-1 H.K' k^-1 G.I'",
    "G.L g G'.L' l^-1 H'.L h^-1 H.L' l^-1 G.L",
    "H.J h H'.I i H'.I' h^-1 H.J' j^-1 H.J",
    "I.K i I'.K k J'.K' j^-1 J.K' k^-1 I.K",
    "I.L i I'.L l J'.L' j^-1 J.L' l^-1 J.L",
]

COVER_CYCLE_ROWS = [
    "A.C a A'.D d A'.D' a^-1 A.C' c^-1 A.C",
    "A.E a A'.E g⁻¹e B'-.E'- g⁻¹bg^-1 B-.E'- g⁻¹e^-1 A.E",
    "A.F a A'.F g⁻¹f B'-.F'- g⁻¹bg^-1 B-.F'- g⁻¹f^-1 A.F",
    "A.G a A'.H' hg^-1 A-.H- g⁻¹ag A'-.G'- g⁻¹g^-1 A.G",
    "A.I a A'.I i B'.I' b^-1 B.I' i^-1 A.I",
    "A.J a A'.J j B'.J' b^-1 B.J' j^-1 A.J",
    "B.C b B'.D d B'.D' b^-1 B.C' c^-1 B.C",
    "B.G b B'.H' hg^-1 B-.H- g⁻¹bg B'-.G'- g⁻¹g^-1 B.G",
    "C.E c C'.F g⁻¹f C-.F'- g⁻¹cg C'-.E'- g⁻¹e^-1 C.E",
    "C.G c C'.G g⁻¹g D'-.G'- g⁻¹dg^-1 D-.G'- g⁻¹g^-1 C.G",
    "C.H c C'.H g⁻¹h D'-.H'- g⁻¹dg^-1 D-.H'- g⁻¹h^-1 C.H",
    "C.K c C'.L l C'.L' c^-1 C.K' k^-1 C.K",
    "D.E d D'.F g⁻¹f D-.F'- g⁻¹dg D'-.E'- g⁻¹e^-1 D.E",
    "D.K d D'.L l D'.L' d^-1 D.K' k^-1 D.K",
    "E.I g⁻¹e E'-.I'- g⁻¹ig^-1 F-.I- fg F'.I' i^-1 E.I",
    "E.J g⁻¹e E'-.J'- g⁻¹jg^-1 F-.J- fg F'.J' j^-1 E.J",
    "E.K g⁻¹e E'-.L- g⁻¹lg E'-.L'- g⁻¹e^-1 E.K' k^-1 E.K",
    "F.L g⁻¹f F'-.K- g⁻¹kg F'-.K'- g⁻¹f^-1 F.L' l^-1 F.L",
    "G.I g⁻¹g G'-.J- g⁻¹jg G'-.J'- g⁻¹g^-1 G.I' i^-1 G.I",
    "G.K g⁻¹g G'-.K'- g⁻¹kg^-1 H'-.K- g⁻¹h^-1 H.K' k^-1 G.K",
    "G.L g⁻¹g G'-.L'- g⁻¹lg^-1 H'-.L- g⁻¹h^-1 H.L' l^-1 G.L",
    "H.J g⁻¹h H'-.I- g⁻¹ig H'-.I'- g⁻¹h^-1 H.J' j^-1 H.J",
    "I.K i I'.K k J'.K' j^-1 J.K' k^-1 I.K",
    "I.L i I'.L l J'.L' j^-1 J.L' l^-1 I.L",
    "A-.C- g⁻¹ag A'-.D- g⁻¹dg A'-.D'- g⁻¹ag^-1 A-.C'- g⁻¹cg^-1 A-.C-",
    "A-.E- g⁻¹ag A'-.E- eg B'.E' b^-1 B.E' eg^-1 A-.E-",
    "A-.F- g⁻¹ag A'-.F- fg B'.F' b^-1 B.F' fg^-1 A-.F-",
    "A-.G- g⁻¹ag A'-.H'- g⁻¹h^-1 A.H a A'.G' gg^-1 gA.gG",
    "A-.I- g⁻¹ag A'-.I- g⁻¹ig B'-.I'- g⁻¹bg^-1 B-.I'- g⁻¹ig^-1 A-.I-",
    "A-.J- g⁻¹ag A'-.J- g⁻¹jg B'-.J'- g⁻¹bg^-1 B-.J'- g⁻¹jg^-1 A-.J-",
    "B-.C- g⁻¹bg B'-.D- g⁻¹dg B'-.D'- g⁻¹bg^-1 B-.C'- g⁻¹cg^-1 B-.C-",
    "B-.G- g⁻¹bg B'-.H'- g⁻¹h^-1 B.H b B'.G' gg^-1 B-.G-",
    "C-.E- g⁻¹cg C'-.F- fg C.F' c C'.E' eg^-1 C-.E-",
    "C-.G- g⁻¹cg C'-.G- gg D'.G' d^-1 D.G' gg^-1 C-.G-",
    "C-.H- g⁻¹cg C'-.H- hg D'.H' d^-1 D.H' hg^-1 C-.H-",
    "C-.K- g⁻¹cg C'-.L- g⁻¹lg C'-.L'- g⁻¹cg^-1 C-.K'- g⁻¹kg^-1 C-.K-",
    "D-.E- g⁻¹dg D'-.F- fg D.F' d D'.E' eg^-1 D-.E-",
    "D-.K- g⁻¹dg D'-.L- g⁻¹lg D'-.L'- g⁻¹dg^-1 D-.K'- g⁻¹kg^-1 D-.K-",
    "E-.I- eg E'.I' i^-1 F.I g⁻¹f F'-.I'- g⁻¹ig^-1 E-.I-",
    "E-.J- eg E'.J' j^-1 F.J g⁻¹f F'-.J'- g⁻¹jg^-1 E-.J-",
    "E-.K- eg E'.L l E'.L' eg^-1 E-.K'- g⁻¹kg^-1 E-.K-",
    "F-.L- fg F'.K k F'.K' fg^-1 F-.L'- g⁻¹lg^-1 F-.L-",
    "G-.I- gg G'.J j G'.J' gg^-1 G-.I'- g⁻¹ig^-1 G-.I-",
    "G-.K- gg G'.K' k^-1 H'.K hg H-.K'- g⁻¹kg^-1 G-.K-",
    "G-.L- gg G'.L' l^-1 H'.L hg^-1 H-.L'- g⁻¹lg^-1 G-.L-",
    "H-.J- hg H'.I i H'.I' hg H-.J'- g⁻¹jg^-1 H-.J-",
    "I-.K- g⁻¹ig I'-.K- g⁻¹kg J'-.K'- g⁻¹jg^-1 J-.K'- g⁻¹kg^-1 I-.K-",
    "I-.L- g⁻¹ig I'-.L- g⁻¹lg J'-.L'- g⁻¹jg^-1 J-.L'- g⁻¹lg^-1 I-.L-",
]

# Where the printed tables disagree with exact recomputation.
KNOWN_TYPOS = {
    ("base", 20): "terminus printed G.I' (recomputation closes at G.K)",
    ("base", 24): "terminus printed J.L (recomputation closes at I.L)",
    ("cover", 28): "terminus printed gA.gG (recomputation closes at A-.G-)",
    ("cover", 44): "third arrow printed hg (recomputation needs hg^-1)",
    ("cover", 46): "third arrow printed hg (recomputation needs hg^-1)",
}

# The twelve pairing arrows: letter, source centre, sign-diagonal, target.
PAIRING_DISPLAY = [
    ("a", (1, 1, 0, 0), (-1, 1, 1, 1), (-1, 1, 0, 0)),
    ("b", (1, -1, 0, 0), (-1, 1, 1, 1), (-1, -1, 0, 0)),
    ("c", (1, 0, 1, 0), (1, 1, -1, 1), (1, 0, -1, 0)),
    ("d", (-1, 0, 1, 0), (1, 1, -1, 1), (-1, 0, -1, 0)),
    ("e", (0, 1, 1, 0), (1, -1, -1, 1), (0, -1, -1, 0)),
    ("f", (0, 1, -1, 0), (1, -1, -1, 1), (0, -1, 1, 0)),
    ("g", (1, 0, 0, 1), (-1, 1, 1, -1), (-1, 0, 0, -1)),
    ("h", (1, 0, 0, -1), (-1, 1, 1, -1), (-1, 0, 0, 1)),
    ("i", (0, 1, 0, 1), (1, -1, 1, 1), (0, -1, 0, 1)),
    ("j", (0, 1, 0, -1), (1, -1, 1, 1), (0, -1, 0, -1)),
    ("k", (0, 0, 1, 1), (1, 1, 1, -1), (0, 0, 1, -1)),
    ("l", (0, 0, -1, 1), (1, 1, 1, -1), (0, 0, -1, -1)),
]

# Side table: label -> (sphere centre, layout coordinate).  Layout entries
# are (a, b) pairs meaning a + b*sqrt(2) per coordinate.
def _c(a=0, b=0):
    return (a, b)


SIDE_TABLE = {
    "A": ((1, 1, 0, 0), (_c(0, "1/2"), _c(0, "1/2"), _c())),
    "A'": ((-1, 1, 0, 0), (_c(0, "-1/2"), _c(0, "1/2"), _c())),
    "B": ((1, -1, 0, 0), (_c(0, "1/2"), _c(0, "-1/2"), _c())),
    "B'": ((-1, -1, 0, 0), (_c(0, "-1/2"), _c(0, "-1/2"), _c())),
    "C": ((1, 0, 1, 0), (_c(0, "1/2"), _c(), _c(0, "1/2"))),
    "C'": ((1, 0, -1, 0), (_c(0, "1/2"), _c(), _c(0, "-1/2"))),
    "D": ((-1, 0, 1, 0), (_c(0, "-1/2"), _c(), _c(0, "1/2"))),
    "D'": ((-1, 0, -1, 0), (_c(0, "-1/2"), _c(), _c(0, "-1/2"))),
    "E": ((0, 1, 1, 0), (_c(), _c(0, "1/2"), _c(0, "1/2"))),
    "E'": ((0, -1, -1, 0), (_c(), _c(0, "-1/2"), _c(0, "-1/2"))),
    "F": ((0, 1, -1, 0), (_c(), _c(0, "1/2"), _c(0, "-1/2"))),
    "F'": ((0, -1, 1, 0), (_c(), _c(0, "-1/2"), _c(0, "1/2"))),
    "G": ((1, 0, 0, 1), (_c(1, 1), _c(), _c())),
    "G'": ((-1, 0, 0, -1), (_c(1, -1), _c(), _c())),
    "H": ((1, 0, 0, -1), (_c(-1, 1), _c(), _c())),
    "H'": ((-1, 0, 0, 1), (_c(-1, -1), _c(), _c())),
    "I": ((0, 1, 0, 1), (_c(), _c(1, 1), _c())),
    "I'": ((0, -1, 0, 1), (_c(), _c(-1, -1), _c())),
    "J": ((0, 1, 0, -1), (_c(), _c(-1, 1), _c())),
    "J'": ((0, -1, 0, -1), (_c(), _c(1, -1), _c())),
    "K": ((0, 0, 1, 1), (_c(), _c(), _c(1, 1))),
    "K'": ((0, 0, 1, -1), (_c(), _c(), _c(-1, 1))),
    "L": ((0, 0, -1, 1), (_c(), _c(), _c(-1, -1))),
    "L'": ((0, 0, -1, -1), (_c(), _c(), _c(1, -1))),
}

# Cusp filling table: ideal vertex class (by any member) -> translation word.
FILLING_TABLE = [
    (((1, 0, 0, 0), (-1, 0, 0, 0)), "c"),
    (((0, 1, 0, 0), (0, -1, 0, 0)), "a"),
    (((0, 0, 1, 0), (0, 0, -1, 0)), "k"),
    (((0, 0, 0, 1), (0, 0, 0, -1)), "i"),
    ("halves", "EheH"),
]


# -- row parsing and matching -------------------------------------------------


def parse_side_token(tok):
    """'A' -> (0, 'A'); \"B'-\" -> (1, \"B'\"); unparseable tokens -> None."""
    sheet = 0
    if tok.endswith("-"):
        sheet = 1
        tok = tok[:-1]
    if tok and tok[0].isupper() and tok.rstrip("'").isalpha() and len(tok.rstrip("'")) == 1:
        return (sheet, tok)
    return None


def parse_arrow_token(tok):
    if tok.endswith("^-1"):
        return (tok[:-3], -1)
    return (tok, 1)


def parse_row(text):
    tokens = text.split()
    nodes = []
    arrows = []
    for i, tok in enumerate(tokens):
        if i % 2 == 0:
            a, p = tok.split(".")
            nodes.append((parse_side_token(a), parse_side_token(p)))
        else:
            arrows.append(parse_arrow_token(tok))
    return nodes, arrows


def compare_row(printed_text, traced_nodes, traced_arrows):
    """Token-by-token comparison of a printed row against a recomputed
    traversal started at the printed row's start ridge.  Returns a list of
    discrepancy strings (empty = literal match)."""
    nodes, arrows = parse_row(printed_text)
    computed_nodes = list(traced_nodes) + [traced_nodes[0]]
    issues = []
    for i, (printed, computed) in enumerate(zip(nodes, computed_nodes)):
        if printed != computed:
            issues.append(f"node {i}: printed {printed} vs computed {computed}")
    for i, (printed, computed) in enumerate(zip(arrows, traced_arrows)):
        if printed != computed:
            issues.append(f"arrow {i}: printed {printed} vs computed {computed}")
    return issues


def check_table(rows, domain):
    """Compare every printed row against its recomputation on ``domain``
    from the printed start; returns {row_number: [discrepancies]} for rows
    that fail to match."""
    from cell24 import census

    mismatches = {}
    for number, text in enumerate(rows, 1):
        nodes, _ = parse_row(text)
        issues = compare_row(text, *census.trace_cycle_from(nodes[0], domain))
        if issues:
            mismatches[number] = issues
    return mismatches


def check_base_table(pairings):
    from cell24 import census

    return check_table(BASE_CYCLE_ROWS, census.base_domain(pairings))


def check_cover_table(cover_obj):
    return check_table(COVER_CYCLE_ROWS, cover_obj.domain)
