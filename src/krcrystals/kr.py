"""Concrete Kirillov-Reshetikhin crystals.

Type A B^{r,s} is tabulated over the rectangular semistandard tableaux:
one signature pass on the column reading word per tableau and classical
color gives both f_i and e_i, and the affine operators are read off the
color-1 tables through Schutzenberger promotion.  A factor over the node
cap is refused from its count before any tableau is made, and an image
outside its own index is an InvariantError.  Type C supplies the
one-box crystal B^{1,1} for any rank and the two C_2 crystals transcribed
from the paper-figure fixtures.
"""

from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from operator import ge

from .cartan import build_cartan, vec_add
from .crystals import CrystalGraph, DEFAULT_NODE_CAP
from .errors import (InvariantError, ResourceLimitError,
                     UnsupportedFactorError)

# ---------------------------------------------------------------------------
# rectangular semistandard tableaux (tuples of row tuples)


def rect_tableaux(n, r, s, limit=float("inf")):
    """All SSYT of shape r x s over the alphabet 1..n+1, generated column
    by column in lexicographic order by a stack of column iterators, not
    by recursion; the largest column, the only one that may follow itself,
    fills the rest at once.  UnsupportedFactorError for s < 1, and
    ResourceLimitError before any column is made when there are more than
    limit of them, by MacMahon's box formula: the count is the product of
    (h+s)/h over h = i+j, 1 <= i <= r, 0 <= j <= n-r (Stanley, EC2 7.21)."""
    if s < 1:
        raise UnsupportedFactorError("B^{r,s} needs s >= 1")
    box = [i + j for i in range(1, r + 1) for j in range(n + 1 - r)]
    if prod(h + s for h in box) // prod(box) > limit:
        raise ResourceLimitError(
            "tableaux of B^{%d,%d} exceed node cap %d" % (r, s, limit))
    cols = list(combinations(range(1, n + 2), r))
    follow = {}     # col -> the columns that may stand right of it, in order
    out, prefix, stack = [], [], [iter(cols)]
    while stack:
        col = next(stack[-1], None)
        if col is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        if (right := follow.get(col)) is None:
            right = follow[col] = [c for c in cols if all(map(ge, c, col))]
        if len(prefix) + 1 < s and len(right) > 1:
            prefix.append(col)
            stack.append(iter(right))
            continue
        out.append(tuple(zip(*prefix, *[col] * (s - len(prefix)))))
    return out


@lru_cache(maxsize=None)
def _column_reading(r, s):
    """The cells of an r x s rectangle in column reading order: bottom to
    top within a column, columns left to right."""
    return tuple((a, b) for b in range(s) for a in range(r - 1, -1, -1))


def _replaced(t, cell, x):
    """The tableau t with the entry at cell set to x."""
    a, b = cell
    return t[:a] + (t[a][:b] + (x,) + t[a][b + 1:],) + t[a + 1:]


def tableau_ops(t, i):
    """(f_i(t), e_i(t)), None where an operator vanishes, from one signature
    pass on the column reading word: an i after an unpaired i+1 pairs with
    it, f_i changes the rightmost unpaired i and e_i the leftmost unpaired
    i+1."""
    minus, plus = [], []
    for cell in _column_reading(len(t), len(t[0])):
        x = t[cell[0]][cell[1]]
        if x == i:
            if plus:
                plus.pop()
            else:
                minus.append(cell)
        elif x == i + 1:
            plus.append(cell)
    return (_replaced(t, minus[-1], i + 1) if minus else None,
            _replaced(t, plus[0], i) if plus else None)


def promotion(t, n):
    """Schutzenberger promotion on a rectangular tableau over 1..n+1.

    Entries n+1 (necessarily in the last row) are vacated, the holes are
    slid to the upper-left by reverse jeu de taquin (largest of the
    above/left neighbors moves, ties to above), remaining entries are
    incremented and holes become 1.  The holes slid before a hole are the
    first cells of the top row (its 1s), so a hole that reaches the top row
    joins them in one move past every entry left of it.
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
        while i:
            above = grid[i - 1][k]
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
        if i == 0:
            grid[0].insert(0, grid[0].pop(k))
    return tuple(tuple(1 if x is None else x + 1 for x in row) for row in grid)


def tableau_weight(t, n):
    counts = [0] * (n + 2)
    for row in t:
        for x in row:
            counts[x] += 1
    return tuple(counts[k] - counts[k + 1] for k in range(1, n + 1))


def tableau_repr(t):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in t) + "]"


@lru_cache(maxsize=None)
def kr_typeA(n, r, s, node_cap=DEFAULT_NODE_CAP):
    """The type A_n KR crystal B^{r,s}, its nodes rect_tableaux(n, r, s) in
    order.  f_i and e_i for i >= 1 come from one tableau_ops call per
    tableau and color; f_0 = pr^{-1} . f_1 . pr and e_0 likewise are read
    off the color-1 tables through one promotion per tableau (orientation
    pinned by the weight rule wt(f_0 b) = wt(b) + theta).  A factor of
    more than node_cap tableaux is refused from its count before any is
    made, an image outside the index of the tableaux is an InvariantError,
    and CrystalGraph checks that every e table inverts its f table."""
    if not 1 <= r <= n:
        raise UnsupportedFactorError("type A%d has no node r=%d" % (n, r))
    tableaux = rect_tableaux(n, r, s, node_cap)
    ids = list(range(len(tableaux)))  # every edge entry is one of these
    index = dict(zip(tableaux, ids))
    fs, es = {}, {}
    try:
        for i in range(1, n + 1):
            fc, ec = fs[i], es[i] = [], []
            for t in tableaux:
                f, e = tableau_ops(t, i)
                fc.append(None if f is None else index[f])
                ec.append(None if e is None else index[e])
        pr = [index[promotion(t, n)] for t in tableaux]
    except KeyError as err:
        raise InvariantError("image %r is not a tableau of B^{%d,%d}"
                             % (err.args[0], r, s)) from None
    inv = [None] * len(pr)
    for k, img in zip(ids, pr):
        inv[img] = k
    if None in inv:
        raise InvariantError("promotion is not a bijection of B^{%d,%d}"
                             % (r, s))
    for table in (fs, es):
        one = table[1]
        table[0] = [None if (x := one[p]) is None else inv[x] for p in pr]
    return CrystalGraph(build_cartan("A", n), range(n + 1), tableaux, fs,
                        [tableau_weight(t, n) for t in tableaux],
                        map(tableau_repr, tableaux), affine_complete=True,
                        es=es)


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
