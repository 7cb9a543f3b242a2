"""Concrete Kirillov-Reshetikhin crystals.

Type A B^{r,s} is realized on rectangular semistandard tableaux with the
classical operators given by the signature rule on the column reading
word and the affine operators conjugated through Schutzenberger
promotion.  Type C supplies the one-box crystal B^{1,1} for any rank and
the two C_2 crystals transcribed from the paper-figure fixtures.
"""

from functools import lru_cache, reduce

from .cartan import build_cartan, vec_add
from .crystals import CrystalGraph, explore, DEFAULT_NODE_CAP
from .errors import InvariantError, UnsupportedFactorError

# ---------------------------------------------------------------------------
# rectangular semistandard tableaux (tuples of row tuples)


def rect_tableaux(n, r, s):
    """All SSYT of shape r x s over the alphabet 1..n+1, generated column
    by column in lexicographic order."""
    from itertools import combinations
    cols = [c for c in combinations(range(1, n + 2), r)]
    out = []

    def extend(prefix):
        if len(prefix) == s:
            rows = tuple(tuple(col[i] for col in prefix) for i in range(r))
            out.append(rows)
            return
        last = prefix[-1] if prefix else None
        for col in cols:
            if last is None or all(x >= y for x, y in zip(col, last)):
                extend(prefix + [col])

    extend([])
    return out


def is_rect_ssyt(t, n):
    rows = len(t)
    cols = len(t[0]) if rows else 0
    for row in t:
        if len(row) != cols:
            return False
        if any(not 1 <= x <= n + 1 for x in row):
            return False
        if any(row[j] > row[j + 1] for j in range(cols - 1)):
            return False
    for i in range(rows - 1):
        if any(t[i][j] >= t[i + 1][j] for j in range(cols)):
            return False
    return True


def reading_order(r, s):
    """Column reading: bottom-to-top within a column, columns left to right."""
    return [(i, j) for j in range(s) for i in range(r - 1, -1, -1)]


def _tableau_signature(t, i):
    """Surviving '-' and '+' cell positions for color i on the reading word."""
    r, s = len(t), len(t[0])
    minus, plus = [], []
    for pos in reading_order(r, s):
        x = t[pos[0]][pos[1]]
        if x == i:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
        elif x == i + 1:
            plus.append(pos)
    return minus, plus


def tableau_f(t, i):
    minus, _ = _tableau_signature(t, i)
    if not minus:
        return None
    a, b = minus[-1]
    rows = [list(row) for row in t]
    rows[a][b] = i + 1
    return tuple(tuple(row) for row in rows)


def tableau_e(t, i):
    _, plus = _tableau_signature(t, i)
    if not plus:
        return None
    a, b = plus[0]
    rows = [list(row) for row in t]
    rows[a][b] = i
    return tuple(tuple(row) for row in rows)


def promotion(t, n):
    """Schutzenberger promotion on a rectangular tableau over 1..n+1.

    Entries n+1 (necessarily in the last row) are vacated, the holes are
    slid to the upper-left by reverse jeu de taquin (largest of the
    above/left neighbors moves, ties to above), remaining entries are
    incremented and holes become 1.
    """
    r = len(t)
    grid = [list(row) for row in t]
    holes = [j for j in range(len(t[0])) if grid[r - 1][j] == n + 1]
    if any(x > n for row in grid[:-1] for x in row):
        raise InvariantError("entry n+1 outside the last row")
    for j in holes:
        grid[r - 1][j] = None
    for j in holes:
        i, k = r - 1, j
        while True:
            above = grid[i - 1][k] if i > 0 else None
            left = grid[i][k - 1] if k > 0 else None
            if above is None and left is None:
                break
            if above is not None and (left is None or above >= left):
                grid[i][k] = above
                grid[i - 1][k] = None
                i -= 1
            else:
                grid[i][k] = left
                grid[i][k - 1] = None
                k -= 1
    out = tuple(tuple(1 if x is None else x + 1 for x in row) for row in grid)
    if not is_rect_ssyt(out, n):
        raise InvariantError("promotion left the tableau family")
    return out


def tableau_weight(t, n):
    counts = [0] * (n + 2)
    for row in t:
        for x in row:
            counts[x] += 1
    return tuple(counts[k] - counts[k + 1] for k in range(1, n + 1))


def tableau_repr(t):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in t) + "]"


class TypeAKR:
    """Implicit affine crystal on rectangular tableaux: classical operators
    from the reading word, f_0 = pr^{-1} . f_1 . pr (orientation pinned by
    the weight rule wt(f_0 b) = wt(b) + theta).

    pr is computed once per tableau of B^{r,s}, into a table built at the
    first 0-arrow query, and pr^{-1} is read from the inverse map."""

    def __init__(self, n, r, s):
        self.n, self.r, self.s = n, r, s
        self.colors = tuple(range(0, n + 1))
        self.tableaux = rect_tableaux(n, r, s)
        self._pr = self._pr_inv = None

    def weight(self, t):
        return tableau_weight(t, self.n)

    def repr_of(self, t):
        return tableau_repr(t)

    def _conjugate(self, op, t):
        """pr^{-1} . op_1 . pr at t, or None."""
        if self._pr is None:
            pr = {b: promotion(b, self.n) for b in self.tableaux}
            inv = {img: b for b, img in pr.items()}
            if len(inv) != len(pr):
                raise InvariantError("promotion is not a bijection of B^{%d,%d}"
                                     % (self.r, self.s))
            self._pr, self._pr_inv = pr, inv
        img = op(self._pr[t], 1)
        return None if img is None else self._pr_inv[img]

    def f(self, t, color):
        if color != 0:
            return tableau_f(t, color)
        return self._conjugate(tableau_f, t)

    def e(self, t, color):
        if color != 0:
            return tableau_e(t, color)
        return self._conjugate(tableau_e, t)


@lru_cache(maxsize=None)
def kr_typeA(n, r, s, node_cap=DEFAULT_NODE_CAP):
    """The type A_n KR crystal B^{r,s} as an explored graph."""
    if not 1 <= r <= n:
        raise UnsupportedFactorError("type A%d has no node r=%d" % (n, r))
    if s < 1:
        raise UnsupportedFactorError("B^{r,s} needs s >= 1")
    cartan = build_cartan("A", n)
    source = TypeAKR(n, r, s)
    return explore(cartan, source, source.tableaux, node_cap,
                   affine_complete=True)


# ---------------------------------------------------------------------------
# type C one-box crystal (Kashiwara-Nakashima letters)


def kn_letters(n):
    """1 < 2 < ... < n < nbar < ... < 1bar; barred letters are negative ints."""
    return list(range(1, n + 1)) + [-k for k in range(n, 0, -1)]


def kn_weight(letter, n):
    k = abs(letter)
    w = [0] * n
    w[k - 1] = 1
    if k >= 2:
        w[k - 2] = -1
    if letter < 0:
        w = [-x for x in w]
    return tuple(w)


@lru_cache(maxsize=None)
def kr_C_onebox(n):
    """The type C_n KR crystal B^{1,1}: the 2n letters in kn_letters order
    on one path, with f_i: i -> i+1 and (i+1)bar -> ibar for 0 < i < n,
    f_n: n -> nbar, and f_0: 1bar -> 1 closing the path."""
    if n < 2:
        raise ValueError("type C_n needs n >= 2")
    letters = kn_letters(n)
    size = len(letters)
    fs = {c: [None] * size for c in range(n + 1)}
    for k in range(size - 1):  # colors 1, ..., n, ..., 1 along the path
        fs[min(k + 1, size - 1 - k)][k] = k + 1
    fs[0][size - 1] = 0
    return CrystalGraph(build_cartan("C", n), range(n + 1), letters, fs,
                        [kn_weight(b, n) for b in letters], map(str, letters),
                        affine_complete=True)


# ---------------------------------------------------------------------------
# the two C_2 crystals transcribed from the paper figure

_TENSOR11_NODES = [
    (1, 1), (1, 2), (1, -2), (1, -1),
    (2, 1), (2, 2), (2, -2), (2, -1),
    (-2, 1), (-2, 2), (-2, -2), (-2, -1),
    (-1, 1), (-1, 2), (-1, -2), (-1, -1),
]

_TENSOR11_EDGES = [
    (7, 2, 11), (2, 1, 3), (1, 1, 5), (6, 2, 10), (8, 1, 9), (1, 2, 2),
    (4, 2, 8), (12, 0, 0), (13, 2, 14), (11, 1, 15), (9, 1, 13), (0, 1, 1),
    (10, 1, 11), (5, 2, 6), (3, 1, 7),
]

_B12_NODES = [
    (), (1, 1), (1, 2), (1, -2), (1, -1), (2, 2),
    (2, -2), (2, -1), (-2, -2), (-2, -1), (-1, -1),
]

_B12_EDGES = [
    (2, 2, 3), (4, 1, 7), (9, 1, 10), (8, 1, 9), (1, 1, 2), (0, 0, 1),
    (3, 1, 4), (7, 2, 9), (2, 1, 5), (5, 2, 6), (6, 2, 8),
]


@lru_cache(maxsize=None)
def fixture_C2(which):
    """The two C_2 crystals of the paper figure, transcribed verbatim:
    'tensor11' is the level-1 Demazure filtration of B^{1,1} (x) B^{1,1},
    'B12' the one of B^{1,2}."""
    cartan = build_cartan("C", 2)
    if which == "tensor11":
        nodes = list(_TENSOR11_NODES)
        edges = _TENSOR11_EDGES
        reprs = ["%d (x) %d" % b for b in nodes]
    elif which == "B12":
        nodes = list(_B12_NODES)
        edges = _B12_EDGES
        reprs = ["[[" + ",".join(str(x) for x in b) + "]]" if b else "[]"
                 for b in nodes]
    else:
        raise ValueError("unknown fixture %r" % (which,))
    weights = [reduce(vec_add, (kn_weight(x, 2) for x in b), (0, 0))
               for b in nodes]
    fs = {c: [None] * len(nodes) for c in (0, 1, 2)}
    for src, c, dst in edges:
        fs[c][src] = dst
    graph = CrystalGraph(cartan, (0, 1, 2), nodes, fs, weights, reprs,
                         affine_complete=False)
    return graph
