"""Independent oracles shared by the test modules.

Everything here recomputes results from first principles (alcove-walk
geometry with exact Fractions, reflection matrices on simple-root
coordinates, inversion counting, subword products, the lifting property
of Bruhat order, the semistandard test and the hook-content count of
rectangular tableaux, promotion powers, the per-node and the closed-form
two-factor signature rule on the fundamental crystals of types A and C2,
Stembridge's local axioms, the pairwise dominance scan over the Fraction
inverse Cartan matrix, the similarity-map conditions of column
replication, the per-node BFS closure of seeds under a payload-level
source, Demazure subsets of B(lambda) by strings of e_i^max read off
a reduced word, with the highest weight node found one e call per node
and color, the height profile of one color by its own scan of the folded
chain, and f and e read off that profile, every walked color's walk of a
folded chain by one scan of its positions, and f_p, e_p and phi_0 of any
subset, folded afresh and read by the library's rule),
deliberately avoiding the package's own code paths wherever a statement
is being checked against it.
"""

import io
import itertools
import json
import math
import re
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from krcrystals import alcove
from krcrystals.alcove import Folding, fold, hw_crystal
from krcrystals.cartan import (identity_matrix, mat_vec, vec_add, vec_neg,
                               vec_scale, vec_sub)
from krcrystals.crystals import (DEFAULT_NODE_CAP, CrystalGraph, components,
                                 explore_tensor, iso_check)
from krcrystals.errors import (AmbiguousAnchorError, InvariantError,
                               ResourceLimitError, UnsupportedFactorError)
from krcrystals.kr import kr_C_onebox, kr_typeA, promotion
from krcrystals.weyl import affine_simple_reflection, build_qbg


# the types every QBG/Weyl/alcove test runs over
QBG_TYPES = [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("B", 3), ("D", 4)]


# ---------------------------------------------------------------------------
# Weyl-group oracles


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def reflection_root_matrix(cartan, root):
    """Matrix of s_beta on simple-root coordinates:
    s_beta(x) = x - <x, beta^vee> beta."""
    n = cartan.rank
    cor = cartan.coroot_coords(root)
    row = tuple(sum(cor[k] * cartan.cartan[k][j] for k in range(n))
                for j in range(n))
    return tuple(
        tuple((1 if i == j else 0) - root[i] * row[j] for j in range(n))
        for i in range(n)
    )


def reflection_weight_matrix(cartan, root):
    """Matrix of s_beta on fundamental-weight coordinates:
    s_beta(mu) = mu - <beta^vee, mu> beta, with beta's weight coordinates
    <alpha_i^vee, beta> read off the Cartan matrix's rows."""
    n = cartan.rank
    cor = cartan.coroot_coords(root)
    wt = tuple(sum(cartan.cartan[i][k] * root[k] for k in range(n))
               for i in range(n))
    return tuple(
        tuple((1 if i == j else 0) - wt[i] * cor[j] for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def matrix_ids(group):
    """The group's weight matrix -> id dict, built here from weight_matrix."""
    return {group.weight_matrix(w): w for w in range(len(group))}


def decode_root(cartan, g):
    """The root named by the signed root id g = +-(k + 1)."""
    beta = cartan.positive_roots_list[abs(g) - 1]
    return beta if g > 0 else vec_neg(beta)


def root_matrix_of_word(cartan, word):
    """The simple-root-basis matrix of s_{i_1} ... s_{i_k}."""
    n = cartan.rank
    w = identity_matrix(n)
    for i in word:
        simple = tuple(int(j == i - 1) for j in range(n))
        w = mat_mul(w, reflection_root_matrix(cartan, simple))
    return w


def length_by_inversions(cartan, word):
    """Length of s_{i_1}...s_{i_k} = number of positive roots sent negative,
    computed through repeated simple reflections on root coordinates."""
    count = 0
    for beta in cartan.positive_roots_list:
        img = beta
        for i in reversed(word):
            img = cartan.simple_reflection_on_root(i, img)
        if all(x <= 0 for x in img):
            count += 1
    return count


def root_sign(root):
    """+1 for a nonzero vector with no negative coordinate, -1 for one with
    no positive coordinate; ValueError for any other."""
    if all(x >= 0 for x in root) and any(x > 0 for x in root):
        return 1
    if all(x <= 0 for x in root) and any(x < 0 for x in root):
        return -1
    raise ValueError("not a root: %r" % (root,))


def is_root(cartan, root):
    r = root if root_sign(root) > 0 else vec_neg(root)
    return r in cartan._root_index


def all_reduced_words(group, w):
    """Every reduced word of w (exhaustive; fine at desk scale)."""
    lengths, right = group.lengths, group.right

    def words(w):
        if lengths[w] == 0:
            return [()]
        return [word + (i + 1,) for i, column in enumerate(right)
                if lengths[ws := column[w]] < lengths[w]
                for word in words(ws)]

    return words(w)


def smallest_descent(group, w):
    """Smallest 0-based i with l(w s_{i+1}) < l(w), by a scan of w's entry
    in each column of the right table; w is not e."""
    lengths = group.lengths
    return next(i for i, column in enumerate(group.right)
                if lengths[column[w]] < lengths[w])


def greedy_reduced_word(group, w):
    """The greedy smallest-descent reduced word of w, each letter found by
    a scan of the right table: the oracle for the group's descent table,
    reduced_word and the QBG's vertex labels."""
    word = []
    while group.lengths[w] > 0:
        i = smallest_descent(group, w)
        word.append(i + 1)
        w = group.right[i][w]
    return tuple(reversed(word))


def bruhat_leq(group, v, w):
    """Strong Bruhat order by the lifting property: for a right
    descent s of w, v <= w iff min(v, vs) <= ws."""
    lengths, right = group.lengths, group.right
    while lengths[v] <= lengths[w]:
        if lengths[w] == 0:
            return True
        i = smallest_descent(group, w)
        if lengths[right[i][v]] < lengths[v]:
            v = right[i][v]
        w = right[i][w]
    return False


def group_mul(group, v, w):
    """v w by matrix product: the oracle the right table is checked
    against."""
    return matrix_ids(group)[mat_mul(group.weight_matrix(v),
                                     group.weight_matrix(w))]


def reflection(group, root):
    """s_beta in the group, for any root beta, found by its weight matrix."""
    return matrix_ids(group)[reflection_weight_matrix(group.cartan, root)]


def subword_products(group, w):
    """All subword products of one reduced word of w; this set is the
    Bruhat lower interval [e, w]."""
    n = group.cartan.rank
    word = group.reduced_word(w)
    out = {group.identity}
    for i in word:
        s = reflection(group, tuple(int(j == i - 1) for j in range(n)))
        out |= {group_mul(group, v, s) for v in out}
    return out


# ---------------------------------------------------------------------------
# alcove-walk validation of lambda-chains


def interior_point(cartan):
    """A generic rational point of the fundamental alcove."""
    big = max(sum(cartan.coroot_coords(b))
              for b in cartan.positive_roots_list)
    return tuple(Fraction(1, (big + 1) * (2 ** (j + 2)))
                 for j in range(cartan.rank))


def frac_pairing(cartan, root, point):
    return sum(c * x for c, x in zip(cartan.coroot_coords(root), point))


def hyperplane_image(cartan, pair, w_root, w_wt, v):
    """Image of H_{gamma,k} under the affine map x -> W x + v, normalized
    to a positive root."""
    gamma, k = pair
    g = mat_vec(w_root, gamma)
    sign = root_sign(g)
    base = g if sign > 0 else vec_neg(g)
    kk = k + sign * cartan.pairing(base, v)
    return (base, kk if sign > 0 else -kk)


def validate_chain(chain):
    """Walk the alcove path step by step: every crossing must use a wall
    of the current alcove, move against the crossing root, and the walk
    must end in the alcove translated by -lambda."""
    ct = chain.cartan
    n = ct.rank
    base_walls = [(tuple(1 if j == i else 0 for j in range(n)), 0)
                  for i in range(n)]
    # the upper wall of A0 in the arrangement <x, beta^vee> = k is the
    # hyperplane of the highest coroot, i.e. of the highest short root
    top = max(ct.positive_roots_list,
              key=lambda b: sum(ct.coroot_coords(b)))
    base_walls.append((top, 1))
    w_root = identity_matrix(n)
    w_wt = identity_matrix(n)
    v = (0,) * n
    p0 = interior_point(ct)

    def current_point():
        return vec_add(mat_vec(w_wt, p0), v)

    for pos in range(chain.m):
        beta = chain.roots[pos]
        level = chain.l[pos]
        walls = {hyperplane_image(ct, bw, w_root, w_wt, v)
                 for bw in base_walls}
        assert (beta, -level) in walls, \
            "step %d does not cross a wall of the current alcove" % (pos + 1)
        before = frac_pairing(ct, beta, current_point())
        s_wt = reflection_weight_matrix(ct, beta)
        v = vec_add(mat_vec(s_wt, v), vec_scale(-level, ct.root_to_weight(beta)))
        w_wt = mat_mul(s_wt, w_wt)
        w_root = mat_mul(reflection_root_matrix(ct, beta), w_root)
        after = frac_pairing(ct, beta, current_point())
        assert after < before, "step %d crosses in the wrong direction" % (pos + 1)

    end = current_point()
    for gamma in ct.positive_roots_list:
        assert math.floor(frac_pairing(ct, gamma, end)) == \
            -ct.pairing(gamma, chain.lam), "endpoint is not A_{-lambda}"
    return True


def folding_weight_oracle(chain, J):
    """wt(J) = -r-hat_{j_1} ... r-hat_{j_s}(-lambda), applied reflection by
    reflection from the inside out."""
    ct = chain.cartan
    x = vec_neg(chain.lam)
    for j in sorted(J, reverse=True):
        beta = chain.roots[j - 1]
        bw = ct.root_to_weight(beta)
        x = vec_sub(x, vec_scale(ct.pairing(beta, x) + chain.l[j - 1], bw))
    return vec_neg(x)


def folding_gamma_oracle(chain, J):
    """The folded roots gamma_k = r_{j_1} ... r_{j_i}(beta_k), j_i < k, as
    root tuples: a walk of simple-root-basis reflection matrices."""
    ct = chain.cartan
    w = identity_matrix(ct.rank)
    gamma = []
    for k, beta in enumerate(chain.roots, 1):
        gamma.append(mat_vec(w, beta))
        if k in J:
            w = mat_mul(w, reflection_root_matrix(ct, beta))
    return tuple(gamma)


def folding_direction_oracle(chain, J):
    """The weight-basis matrix of r_{j_1} ... r_{j_s}, multiplied out from
    freshly built reflection matrices."""
    ct = chain.cartan
    w = identity_matrix(ct.rank)
    for j in sorted(J):
        w = mat_mul(w, reflection_weight_matrix(ct, chain.roots[j - 1]))
    return w


def fold_oracle(chain, J):
    """The folding Gamma(J) in one pass over every chain position from the
    identity, the loop the library used before its incremental DFS: gamma_k
    from the running element's signed root permutation, its level from the
    running weight shift v, and at each k in J the shift by -l_k gamma_k
    and the product with s_{beta_k}."""
    ct = chain.cartan
    group = build_qbg(ct).group
    jset = set(J)
    w = group.identity
    v = (0,) * ct.rank
    gamma = []
    levels = []
    for k, (idx, l) in enumerate(zip(chain.root_indices, chain.l), 1):
        g = group.roots[w][idx]
        gamma.append(g)
        b = abs(g) - 1
        sl = l if g > 0 else -l
        levels.append(sl - sum(c * x for c, x in zip(ct._coroots[b], v)))
        if k in jset:
            v = vec_sub(v, vec_scale(sl, ct._root_weights[b]))
            w = group.times_reflection(w, idx)
    wt = group.weight_matrix(w)
    return Folding(tuple(gamma), tuple(levels), mat_vec(wt, ct.rho),
                   vec_sub(mat_vec(wt, chain.lam), v), w)


def is_admissible(chain, J):
    """Does 1 -> r_{j_1} -> ... walk along quantum Bruhat graph edges?"""
    qbg = build_qbg(chain.cartan)
    cur = qbg.group.identity
    for j in sorted(J):
        edge = qbg.has_edge(cur, chain.root_indices[j - 1])
        if edge is None:
            return False
        cur = edge[0]
    return True


def is_bruhat_admissible(chain, J):
    """Does 1 -> r_{j_1} -> ... raise the length by one at every step (a
    walk of Bruhat covers), read from the group's length table?"""
    group = build_qbg(chain.cartan).group
    cur = group.identity
    for j in sorted(J):
        nxt = group.times_reflection(cur, chain.root_indices[j - 1])
        if group.lengths[nxt] != group.lengths[cur] + 1:
            return False
        cur = nxt
    return True


class GGraph(NamedTuple):
    """The height profile g_{alpha_p} of a folded chain, read by
    g_graph_oracle."""
    p: int
    positions: tuple      # I_alpha, ascending; infinity is implicit
    heights: tuple        # sgn(alpha) * l_i^J along positions
    h_inf: int            # <wt(J), alpha_p^vee> = height at the right end
    M: int


def g_graph_oracle(chain, J, p):
    """The height profile for color p by its own scan of all m positions
    of Gamma(J) (the package's fold, which fold_oracle checks), the
    per-color loop the library used before it built every color's profile
    from one pass per subset."""
    J = tuple(sorted(J))
    ct = chain.cartan
    fol = fold(chain, J)
    if p == 0:
        base = ct.theta
        sign = -1
    else:
        base = tuple(1 if j == p - 1 else 0 for j in range(ct.rank))
        sign = 1
    rid = ct._root_index[base] + 1
    cor = ct._coroots[rid - 1]
    l_inf = sum(c * x for c, x in zip(cor, fol.weight))
    h_inf = sign * l_inf
    jset = set(J)
    positions = [i for i, g in enumerate(fol.gamma, 1)
                 if g == rid or g == -rid]
    heights = []
    val2 = -1
    for i in positions:
        level = fol.levels[i - 1]
        s1 = 1 if fol.gamma[i - 1] > 0 else -1
        val2 += s1
        if val2 != 2 * level:
            raise InvariantError("height/slope mismatch at position %d" % i)
        s2 = -s1 if i in jset else s1
        val2 += s2
        heights.append(sign * level)
    end_pair = sum(c * x for c, x in zip(cor, fol.gamma_inf))
    if end_pair == 0:
        raise InvariantError("gamma_inf orthogonal to alpha")
    val2 += 1 if end_pair > 0 else -1
    if val2 != 2 * l_inf:
        raise InvariantError("endpoint height mismatch")
    M = max(heights + [h_inf])
    return GGraph(p, tuple(positions), tuple(heights), h_inf, M)


def f_on_oracle(gg, J, level):
    """f_p of the sorted subset J, read from its height profile gg (a
    g_graph_oracle GGraph): the per-profile rule the library used before it
    read every operator off one walk per subset."""
    threshold = level if gg.p == 0 else 0
    if not gg.M > threshold:
        return None
    if gg.M < 0:
        raise InvariantError("negative maximum on an admissible subset")
    positions = gg.positions
    if gg.M in gg.heights:
        idx = gg.heights.index(gg.M)
        m_pos = positions[idx]
        if m_pos not in J:
            raise InvariantError(
                "minimum-position element not a folding position")
        if idx == 0:
            raise InvariantError("no predecessor although M > delta")
        k_pos = positions[idx - 1]
    else:  # the maximum is attained at infinity only
        if gg.h_inf != gg.M:
            raise InvariantError("maximum attained nowhere")
        if not positions:
            raise InvariantError(
                "no predecessor of infinity although M > delta")
        m_pos, k_pos = None, positions[-1]
    if k_pos in J:
        raise InvariantError("predecessor already a folding position")
    new = list(J)
    if m_pos is not None:
        new.remove(m_pos)
    insort(new, k_pos)
    return tuple(new)


def e_on_oracle(gg, J, level):
    """e_p of the sorted subset J, read from its height profile gg, by the
    same per-profile rule as f_on_oracle."""
    threshold = level if gg.p == 0 else 0
    if not (gg.M > gg.h_inf and gg.M >= threshold):
        return None
    if gg.M < 0:
        raise InvariantError("negative maximum on an admissible subset")
    positions, heights = gg.positions, gg.heights
    if gg.M not in heights:
        raise InvariantError("M exceeds the endpoint but is never attained")
    idx = len(heights) - 1 - heights[::-1].index(gg.M)
    k_pos = positions[idx]
    if k_pos not in J:
        raise InvariantError("maximum-position element not a folding position")
    m_pos = positions[idx + 1] if idx + 1 < len(positions) else None
    if m_pos in J:
        raise InvariantError("successor already a folding position")
    new = list(J)
    new.remove(k_pos)
    if m_pos is not None:
        insort(new, m_pos)
    return tuple(new)


def _height_walks(chain, J, fol):
    """The walk of each distinct |alpha_p| (in A1, theta = alpha_1) over
    the folding fol of the sorted subset J, by its own scan of all m
    positions: root id -> (I_alpha ascending, the levels l_i^J along it,
    <wt(J), |alpha_p|^vee>).  g_{|alpha|} lies at h - 1/2 between
    positions; position i rises to h (falls to h - 1 when gamma_i < 0) and
    the slope turns back at a folding position, so each level, and the
    endpoint, is checked against the slopes: the from-scratch walk the
    library's table build used before it extended each parent's walk."""
    gamma, levels = fol.gamma, fol.levels
    at = {rid: [] for rid in chain.walked}
    for i, g in enumerate(gamma, 1):
        bucket = at.get(g if g > 0 else -g)
        if bucket is not None:
            bucket.append(i)
    walks = {}
    for rid, cor in chain.walked.items():
        positions, walked, h = at[rid], [], 0
        for i in positions:
            level, up = levels[i - 1], gamma[i - 1] > 0
            if level != (h if up else h - 1):
                raise InvariantError("height/slope mismatch at position %d"
                                     % i)
            walked.append(level)
            if i not in J:
                h += 1 if up else -1
        end_pair = sum(c * x for c, x in zip(cor, fol.gamma_inf))
        if end_pair == 0:
            raise InvariantError("gamma_inf orthogonal to alpha")
        l_inf = sum(c * x for c, x in zip(cor, fol.weight))
        if l_inf != (h if end_pair > 0 else h - 1):
            raise InvariantError("endpoint height mismatch")
        walks[rid] = positions, walked, l_inf
    return walks


def walk_table_oracle(chain, dirs, level, colors):
    """(fs, es, weights) of the crystal table over the subsets of dirs,
    each folded from scratch by fold_oracle and walked by _height_walks,
    with the library's rule read off the walks: the per-subset loop the
    library used before it built each walk from its parent's."""
    index = {J: k for k, J in enumerate(dirs)}
    index[None] = None
    fs = {c: [] for c in colors}
    es = {c: [] for c in colors}
    weights = []
    for J in dirs:
        fol = fold_oracle(chain, J)
        walks = _height_walks(chain, J, fol)
        for c in colors:
            sign, rid = chain.alphas[c]
            _, f_img, e_img = alcove._rule(walks[rid], sign, J,
                                           level if c == 0 else 0)
            fs[c].append(index[f_img])
            es[c].append(index[e_img])
        weights.append(fol.weight)
    return fs, es, weights


def _rule_args(chain, J, p, level=1):
    """The arguments of the library's rule for color p of any subset J at
    level l, read from a fresh fold of J.  ValueError for a color outside
    0..r or a level below 1."""
    if not 0 <= p <= chain.cartan.rank:
        raise ValueError("color %r outside 0..%d" % (p, chain.cartan.rank))
    if level < 1:
        raise ValueError("level must be >= 1")
    J = tuple(sorted(J))
    sign, rid = chain.alphas[p]
    walks = _height_walks(chain, J, alcove.fold(chain, J))
    return walks[rid], sign, J, level if p == 0 else 0


def alcove_f(chain, J, p, level=1):
    """The level-l lowering operator f_p on an admissible subset, folded
    afresh; None when the maximum M fails M > l * delta_{p,0}: the
    per-subset path the library used before it read every operator off
    its crystal table."""
    return alcove._rule(*_rule_args(chain, J, p, level))[1]


def alcove_e(chain, J, p, level=1):
    """The level-l raising operator e_p, as alcove_f; None unless
    M > <wt(J), alpha_p^vee> and M >= l * delta_{p,0}."""
    return alcove._rule(*_rule_args(chain, J, p, level))[2]


def phi0(chain, J):
    """phi_0(J) = max(M - 1, 0) for the p = 0 height profile."""
    return max(alcove._rule(*_rule_args(chain, J, 0))[0] - 1, 0)


# ---------------------------------------------------------------------------
# type A tableaux and promotion


def is_rect_ssyt(t, n):
    """t is a rectangular semistandard tableau over 1..n+1."""
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


def ssyt_count_oracle(n, r, s):
    """|B^{r,s}| in type A_n by the hook-content formula: the product over
    the cells (a, b) of the r x s rectangle of (n + 1 + b - a) / hook, the
    hook being (s - b) + (r - a) - 1."""
    count = Fraction(1)
    for a in range(r):
        for b in range(s):
            count *= Fraction(n + 1 + b - a, (s - b) + (r - a) - 1)
    assert count.denominator == 1
    return int(count)


def promotion_inverse(t, n):
    """pr^{-1} = pr^n, as pr has order n+1 on rectangles."""
    for _ in range(n):
        t = promotion(t, n)
    return t


def rect_tableaux_oracle(n, r, s):
    """Every SSYT of shape r x s over 1..n+1, by recursion over its
    columns in lexicographic order: the reference for kr.rect_tableaux."""
    cols = list(itertools.combinations(range(1, n + 2), r))

    def extend(prefix):
        if len(prefix) == s:
            return [tuple(zip(*prefix))]
        return [t for c in cols
                if not prefix or all(x >= y for x, y in zip(c, prefix[-1]))
                for t in extend(prefix + [c])]

    return extend([])


def promotion_oracle(t, n):
    """Promotion with each hole slid one cell at a time, the larger of its
    upper and left neighbours moving in (ties to the upper), until neither
    is left: the reference for kr.promotion's one move along the top row."""
    r = len(t)
    grid = [list(row) for row in t]
    holes = [j for j, x in enumerate(grid[-1]) if x == n + 1]
    for j in holes:
        grid[-1][j] = None
    for j in holes:
        i, k = r - 1, j
        while True:
            above = grid[i - 1][k] if i > 0 else None
            left = grid[i][k - 1] if k > 0 else None
            if above is None and left is None:
                break
            if above is not None and (left is None or above >= left):
                grid[i][k], grid[i - 1][k], i = above, None, i - 1
            else:
                grid[i][k], grid[i][k - 1], k = left, None, k - 1
    return tuple(tuple(1 if x is None else x + 1 for x in row)
                 for row in grid)


def column_replication(t, m):
    """The similarity candidate B^{r,s} -> B^{r,ms}: repeat each column m times."""
    return tuple(tuple(x for x in row for _ in range(m)) for row in t)


# ---------------------------------------------------------------------------
# closure of seeds under a payload-level source


def explore(cartan, source, seeds, node_cap=DEFAULT_NODE_CAP,
            affine_complete=False):
    """Close the seeds under all e_i and f_i of the source's colors;
    deterministic BFS numbering (seed order first, then discovery order
    with colors ascending, f before e).

    The source provides colors, f(b, c) and e(b, c) (a payload or None),
    weight(b) and repr_of(b).  Each node's f- and e-images go into one
    list per color and operator, and CrystalGraph checks that every e list
    inverts its f list, so an f and an e that disagree raise
    InvariantError."""
    if not seeds:
        raise ValueError("explore needs at least one seed")
    colors = tuple(source.colors)
    nodes = list(dict.fromkeys(seeds))
    index = {b: i for i, b in enumerate(nodes)}
    if len(nodes) > node_cap:
        raise ResourceLimitError("%d seeds exceed node cap %d"
                                 % (len(nodes), node_cap))
    fs = {c: [] for c in colors}
    es = {c: [] for c in colors}
    # each list gets one entry per node, in node order
    steps = [(c, op, table[c]) for c in colors
             for op, table in ((source.f, fs), (source.e, es))]
    for b in nodes:  # grows while it is walked: a BFS
        for c, op, out in steps:
            img = op(b, c)
            if img is not None:
                j = index.get(img)
                if j is None:
                    if len(nodes) >= node_cap:
                        raise ResourceLimitError(
                            "exploration exceeded node cap %d" % node_cap)
                    j = index[img] = len(nodes)
                    nodes.append(img)
                img = j
            out.append(img)
    weights = [source.weight(b) for b in nodes]
    reprs = [source.repr_of(b) for b in nodes]
    graph = CrystalGraph(cartan, colors, nodes, fs, weights, reprs,
                         affine_complete=affine_complete, es=es)
    graph.index = index
    return graph


# ---------------------------------------------------------------------------
# the per-node signature rule


class TensorProduct:
    """Tensor product of explored crystals, leftmost factor first, with the
    signature rule evaluated once per node and color on payload tuples
    (b_L, ..., b_1): the rule explore_tensor folds level by level.
    signature() takes the tuple of their factor node ids instead.
    """

    def __init__(self, factors):
        if not factors:
            raise ValueError("a tensor product needs at least one factor")
        self.factors = list(factors)
        self.colors = self.factors[0].colors
        if any(g.colors != self.colors for g in self.factors):
            raise ValueError("factors with different color sets")
        self._stats = {c: [g._string_stats(c) for g in self.factors]
                       for c in self.colors}

    def all_elements(self):
        return list(itertools.product(*(g.nodes for g in self.factors)))

    def _ids(self, b):
        return [g.index[part] for g, part in zip(self.factors, b)]

    def signature(self, ids, color):
        """The signature rule: (eps, phi, k_f, k_e), where f_color acts on
        factor k_f and e_color on factor k_e (None where they give 0).
        Each factor adds phi '-' then eps '+'; a '-' cancels the nearest
        surviving '+' to its left.  f acts at the rightmost surviving '-',
        e at the leftmost surviving '+'.  Only survivor counts are kept."""
        plus = minus = 0
        k_f = k_e = None
        for k, (i, (eps, phi)) in enumerate(zip(ids, self._stats[color])):
            left = phi[i] - plus
            if left > 0:
                minus += left
                k_f = k
                plus = 0
            else:
                plus = -left
            if eps[i]:
                if not plus:
                    k_e = k
                plus += eps[i]
        return plus, minus, k_f, (k_e if plus else None)

    def weight(self, b):
        total = self.factors[0].weight(self.factors[0].index[b[0]])
        for g, part in zip(self.factors[1:], b[1:]):
            total = vec_add(total, g.weight(g.index[part]))
        return total

    def repr_of(self, b):
        return " (x) ".join(g.reprs[g.index[part]]
                            for g, part in zip(self.factors, b))

    def eps(self, b, color):
        return self.signature(self._ids(b), color)[0]

    def phi(self, b, color):
        return self.signature(self._ids(b), color)[1]

    def f(self, b, color):
        return self._step(b, color, True)

    def e(self, b, color):
        return self._step(b, color, False)

    def _step(self, b, color, is_f):
        ids = self._ids(b)
        k = self.signature(ids, color)[2 if is_f else 3]
        if k is None:
            return None
        g = self.factors[k]
        img = g.f(ids[k], color) if is_f else g.e(ids[k], color)
        return b[:k] + (g.nodes[img],) + b[k + 1:]


class GraphSource:
    """A CrystalGraph as an explore source: colors, f, e, weight and
    repr_of by payload."""

    def __init__(self, graph):
        self.graph = graph
        self.colors = graph.colors

    def _image(self, table, b):
        img = table[self.graph.index[b]]
        return None if img is None else self.graph.nodes[img]

    def f(self, b, color):
        return self._image(self.graph.fs[color], b)

    def e(self, b, color):
        return self._image(self.graph.es[color], b)

    def weight(self, b):
        return self.graph.weights[self.graph.index[b]]

    def repr_of(self, b):
        return self.graph.reprs[self.graph.index[b]]


# ---------------------------------------------------------------------------
# crystal operations no command runs


def classical_restriction(graph):
    """The same nodes with all 0-edges dropped and colors I_0 only."""
    return CrystalGraph(graph.cartan, graph.cartan.classical_index_set,
                        graph.nodes, graph.fs, graph.weights, graph.reprs,
                        affine_complete=False)


def weyl_action(graph, node_id, color):
    """Kashiwara's s_i: reflect the node within its i-string."""
    k = graph.phi(node_id, color) - graph.eps(node_id, color)
    step = graph.fs[color] if k > 0 else graph.es[color]
    for _ in range(abs(k)):
        node_id = step[node_id]
    return node_id


def similarity_check(sigma, m, small, big):
    """Do the five similarity-map conditions hold for sigma: small -> big?

    e_i maps to e_i^m, f_i to f_i^m, and eps, phi, wt all scale by m.
    """
    def power(step, node, count):
        for _ in range(count):
            if node is None:
                return None
            node = step[node]
        return node

    for b in small.nodes:
        ib = small.index[b]
        img = sigma(b)
        if img not in big.index:
            return False
        jb = big.index[img]
        if tuple(big.weights[jb]) != tuple(x * m for x in small.weights[ib]):
            return False
        for c in small.colors:
            if big.eps(jb, c) != m * small.eps(ib, c):
                return False
            if big.phi(jb, c) != m * small.phi(ib, c):
                return False
            for small_step, big_step in ((small.fs[c], big.fs[c]),
                                         (small.es[c], big.es[c])):
                nb = small_step[ib]
                img = power(big_step, jb, m)
                if (nb is None) != (img is None):
                    return False
                if nb is not None and big.index[sigma(small.nodes[nb])] != img:
                    return False
    return True


# ---------------------------------------------------------------------------
# classical fundamental crystals: the signature-rule oracle's factors


@lru_cache(maxsize=None)
def classical_fundamental(cartan, i):
    """B(pi_i) as a classical crystal graph (type A any node; C_2 both)."""
    if cartan.family == "A":
        return classical_restriction(kr_typeA(cartan.rank, i, 1))
    if cartan.family == "C" and i == 1:
        return classical_restriction(kr_C_onebox(cartan.rank))
    if cartan.family == "C" and cartan.rank == 2 and i == 2:
        box = classical_restriction(kr_C_onebox(2))
        tensor = explore_tensor(cartan, [box, box])
        hw = [j for j in range(len(tensor))
              if tensor.weights[j] == (0, 1)
              and all(tensor.e(j, c) is None for c in tensor.colors)]
        if len(hw) != 1:
            raise InvariantError("no unique highest weight (0, 1)")
        comp = component_graph(tensor, hw[0])
        if comp.weights[highest_weight_node(comp)] != (0, 1):
            raise InvariantError("component of B(pi_2) has the wrong top")
        return comp
    raise UnsupportedFactorError(
        "no classical fundamental crystal for node %d in %s" %
        (i, cartan.type_name))


def fundamentals(cartan):
    return {i: classical_fundamental(cartan, i)
            for i in cartan.classical_index_set}


# ---------------------------------------------------------------------------
# closed-form two-factor tensor product


def two_factor_f(g2, g1, b, color):
    """Closed-form f_i on b = (b2, b1): acts left iff eps(b2) >= phi(b1)."""
    b2, b1 = b
    i2, i1 = g2.index[b2], g1.index[b1]
    if g2.eps(i2, color) >= g1.phi(i1, color):
        img = g2.f(i2, color)
        return None if img is None else (g2.nodes[img], b1)
    img = g1.f(i1, color)
    return None if img is None else (b2, g1.nodes[img])


def two_factor_e(g2, g1, b, color):
    """Closed-form e_i on b = (b2, b1): acts left iff eps(b2) > phi(b1)."""
    b2, b1 = b
    i2, i1 = g2.index[b2], g1.index[b1]
    if g2.eps(i2, color) > g1.phi(i1, color):
        img = g2.e(i2, color)
        return None if img is None else (g2.nodes[img], b1)
    img = g1.e(i1, color)
    return None if img is None else (b2, g1.nodes[img])


# ---------------------------------------------------------------------------
# connected components


def component_ids_oracle(graph, start):
    """The node ids weakly connected to start: a BFS over an adjacency
    dict rebuilt from the sorted edge list on every call."""
    adj = {}
    for src, _, dst in graph.edges_sorted():
        adj.setdefault(src, []).append(dst)
        adj.setdefault(dst, []).append(src)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def subgraph_oracle(graph, node_ids):
    """The nodes node_ids of graph as a standalone CrystalGraph, renumbered
    in ascending order: their rows copied, edges leaving the set dropped,
    and the constructor's checks run again.  The library reads a component
    in place, as a (graph, ids) pair, and copies nothing."""
    ids = sorted(node_ids)
    remap = [None] * len(graph.nodes)
    for new, old in enumerate(ids):
        remap[old] = new
    fs = {c: [None if dst is None else remap[dst]
              for dst in map(fc.__getitem__, ids)]
          for c, fc in graph.fs.items()}
    return CrystalGraph(
        graph.cartan, graph.colors, [graph.nodes[i] for i in ids], fs,
        [graph.weights[i] for i in ids], [graph.reprs[i] for i in ids],
        affine_complete=False)


def component_graph(graph, node):
    """The component holding node, as a standalone graph."""
    return subgraph_oracle(graph, component_ids_oracle(graph, node))


def component_graphs(comps):
    """(graph, ids) components as standalone graphs, in their order."""
    return [subgraph_oracle(g, ids) for g, ids in comps]


def is_connected(graph):
    return len(graph.component_ids()) <= 1


def match_components_oracle(comps1, comps2, anchor_mode):
    """The component matching by a bipartite augmenting-path search over
    all iso_check pairs of each (size, anchor weight, weight multiset)
    group: the matcher the library used before it sorted each group into
    isomorphism classes.  It takes (graph, ids) components, as
    match_components does, and compares standalone copies of them."""
    if len(comps1) != len(comps2):
        return None
    comps1, comps2 = component_graphs(comps1), component_graphs(comps2)

    def key(g):
        try:
            anchor = tuple(g.weight(g.extremal(anchor_mode)))
        except AmbiguousAnchorError:
            anchor = None
        return (len(g), anchor, tuple(sorted(g.weights)))

    groups1 = {}
    for idx, g in enumerate(comps1):
        groups1.setdefault(key(g), []).append(idx)
    groups2 = {}
    for idx, g in enumerate(comps2):
        groups2.setdefault(key(g), []).append(idx)
    if set(groups1) != set(groups2):
        return None

    pairs = []
    for k in sorted(groups1, key=repr):
        left, right = groups1[k], groups2[k]
        if len(left) != len(right):
            return None
        compat = {i: [j for j in right
                      if iso_check(comps1[i], comps2[j], anchor_mode)
                      is not None]
                  for i in left}
        assignment = {}

        def augment(i, seen):
            for j in compat[i]:
                if j in seen:
                    continue
                seen.add(j)
                if j not in assignment or augment(assignment[j], seen):
                    assignment[j] = i
                    return True
            return False

        for i in left:
            if not augment(i, set()):
                return None
        pairs.extend(sorted((i, j) for j, i in assignment.items()))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# Stembridge's local axioms


def stembridge_violations(graph):
    """Witnesses (axiom, node, i, j) against Stembridge's local axioms
    (Trans. AMS 355 (2003), P1-P6, P5', P6') on the classical restriction
    of a simply-laced crystal graph; empty iff all hold.  Only the colors
    of I_0 are read, and only their raw successor lists: eps and phi are
    string lengths walked here.  For an edge x = f_i y, Delta_i g(x) =
    g(y) - g(x) and nabla_i g(y) = Delta_i g(x), with delta = -eps."""
    ct = graph.cartan
    colors = ct.classical_index_set
    a = {(i, j): ct.cartan[i - 1][j - 1] for i in colors for j in colors}
    assert all(a[i, j] in (0, -1) for i in colors for j in colors if i != j)
    n = len(graph)
    fs = {i: graph.fs[i] for i in colors}
    es = {i: graph.es[i] for i in colors}
    bad = []
    # P1, P2: e_i and f_i are inverse partial maps with finite strings
    for i in colors:
        for x in range(n):
            if (y := fs[i][x]) is not None and es[i][y] != x:
                bad.append(("P2", x, i, i))
            if (y := es[i][x]) is not None and fs[i][y] != x:
                bad.append(("P2", x, i, i))
    if bad:
        return bad

    def length(step, x):
        k = 0
        while (x := step[x]) is not None and k <= n:
            k += 1
        return k
    eps = {i: [length(es[i], x) for x in range(n)] for i in colors}
    phi = {i: [length(fs[i], x) for x in range(n)] for i in colors}
    bad = [("P1", x, i, i) for i in colors for x in range(n)
           if eps[i][x] > n or phi[i][x] > n]
    if bad:
        return bad

    def word(steps, x, letters):
        """steps[i_k] ... steps[i_1] x for letters (i_1, ..., i_k)."""
        for i in letters:
            if x is None:
                return None
            x = steps[i][x]
        return x

    def d_delta(i, j, x):  # Delta_i delta_j at x, e_i x defined
        return eps[j][x] - eps[j][es[i][x]]

    def d_phi(i, j, x):  # Delta_i phi_j at x, e_i x defined
        return phi[j][es[i][x]] - phi[j][x]

    def n_phi(i, j, y):  # nabla_i phi_j at y, f_i y defined
        return phi[j][y] - phi[j][fs[i][y]]

    for x in range(n):
        for i, j in itertools.permutations(colors, 2):
            if es[i][x] is not None:
                if d_delta(i, j, x) + d_phi(i, j, x) != a[i, j]:
                    bad.append(("P3", x, i, j))
                if d_delta(i, j, x) > 0 or d_phi(i, j, x) > 0:
                    bad.append(("P4", x, i, j))
                if es[j][x] is not None:
                    if d_delta(i, j, x) == 0:
                        y = word(es, x, (j, i))
                        if y is None or y != word(es, x, (i, j)) \
                                or n_phi(j, i, y) != 0:
                            bad.append(("P5", x, i, j))
                    elif d_delta(i, j, x) == d_delta(j, i, x) == -1:
                        y = word(es, x, (i, j, j, i))
                        if y is None or y != word(es, x, (j, i, i, j)) \
                                or n_phi(i, j, y) != -1 \
                                or n_phi(j, i, y) != -1:
                            bad.append(("P6", x, i, j))
            if fs[i][x] is not None and fs[j][x] is not None:
                if n_phi(i, j, x) == 0:
                    y = word(fs, x, (j, i))
                    if y is None or y != word(fs, x, (i, j)) \
                            or d_delta(j, i, y) != 0:
                        bad.append(("P5'", x, i, j))
                elif n_phi(i, j, x) == n_phi(j, i, x) == -1:
                    y = word(fs, x, (i, j, j, i))
                    if y is None or y != word(fs, x, (j, i, i, j)) \
                            or d_delta(i, j, y) != -1 \
                            or d_delta(j, i, y) != -1:
                        bad.append(("P6'", x, i, j))
    return bad


# ---------------------------------------------------------------------------
# dominance order over the rationals


def fraction_inverse(matrix):
    """Exact inverse of an integer matrix, as a tuple of Fraction rows
    (Gauss-Jordan elimination over the rationals)."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def extremal_oracle(graph, mode):
    """The pairwise anchor scan: node i qualifies for 'max' when nu - mu
    has nonnegative integral simple-root coordinates (solved through the
    Fraction inverse Cartan matrix) for every weight mu of the graph, nu
    its own ('min' mirrors this).  The scan stops at two candidates."""
    inv = fraction_inverse(graph.cartan.cartan)

    def leq(mu, nu):
        diff = vec_sub(nu, mu)
        coords = [sum(x * d for x, d in zip(row, diff)) for row in inv]
        return all(c.denominator == 1 and c >= 0 for c in coords)

    candidates = []
    for i, wi in enumerate(graph.weights):
        if mode == "max":
            ok = all(leq(wj, wi) for wj in graph.weights)
        else:
            ok = all(leq(wi, wj) for wj in graph.weights)
        if ok:
            candidates.append(i)
        if len(candidates) > 1:
            break
    if len(candidates) != 1:
        raise AmbiguousAnchorError(
            "no unique %s-weight element (%d candidates)"
            % (mode, len(candidates)))
    return candidates[0]


# ---------------------------------------------------------------------------
# the combinatorial excellent filtration


class NonReducedWordError(ValueError):
    """A word that was required to be reduced is not."""


def highest_weight_node(graph):
    """The unique node annihilated by every e_i of the graph's colors, by
    one e call per node and color."""
    hits = [i for i in range(len(graph))
            if all(graph.e(i, c) is None for c in graph.colors)]
    if len(hits) != 1:
        raise AmbiguousAnchorError("%d highest weight nodes" % len(hits))
    return hits[0]


def demazure_subset(graph, word):
    """Node ids b with e_{i_1}^max ... e_{i_k}^max b = u_lambda, for a
    reduced word (i_1, ..., i_k) over I_0: read from the right, each s_i
    lengthens the suffix u after it, l(s_i u) > l(u), which holds exactly
    when <u(rho), alpha_i^vee> > 0 (Bjorner-Brenti, ch. 4)."""
    cartan = graph.cartan
    if not set(word) <= set(cartan.classical_index_set):
        raise ValueError("word %r has a letter outside I_0" % (word,))
    mu = cartan.rho
    for i in reversed(word):
        if mu[i - 1] <= 0:
            raise NonReducedWordError("word %r is not reduced" % (word,))
        mu = affine_simple_reflection(cartan, i, mu, 0)
    top = highest_weight_node(graph)
    out = []
    for b in range(len(graph)):
        cur = b
        for i in reversed(word):
            while (nxt := graph.es[i][cur]) is not None:
                cur = nxt
        if cur == top:
            out.append(b)
    return out


# the filtration oracle asks for the same few B(kappa) over and over
_hw_crystal = lru_cache(maxsize=None)(hw_crystal)


def demazure_tensor_object(cartan, mu, lam, word):
    """The full subcrystal on B_w(mu) (x) u_lambda inside B(mu) (x) B(lambda):
    an f_i-edge survives iff the signature rule keeps the operator on the
    left factor (eps_i(b) >= <alpha_i^vee, lambda>) and the image stays in
    the Demazure subset."""
    graph = _hw_crystal(cartan, mu)
    subset = sorted(demazure_subset(graph, word))
    remap = {b: k for k, b in enumerate(subset)}
    fs = {i: [None] * len(subset) for i in cartan.classical_index_set}
    for k, b in enumerate(subset):
        for i in cartan.classical_index_set:
            if graph.eps(b, i) >= lam[i - 1]:
                fs[i][k] = remap.get(graph.f(b, i))
    weights = [vec_add(graph.weights[b], lam) for b in subset]
    reprs = [graph.reprs[b] for b in subset]
    return CrystalGraph(cartan, cartan.classical_index_set,
                        list(range(len(subset))), fs, weights, reprs)


def decomposes_into_demazure(cartan, group, mu, lam, word):
    """Is every component of the filtered object isomorphic to some Demazure
    crystal B_v(kappa), searched over v and with kappa read off the source?"""
    obj = demazure_tensor_object(cartan, mu, lam, word)
    for comp in component_graphs(components(obj)):
        sources = [i for i in range(len(comp))
                   if all(comp.e(i, c) is None for c in comp.colors)]
        if len(sources) != 1:
            return False
        kappa = comp.weights[sources[0]]
        if not cartan.is_dominant(kappa):
            return False
        ambient = _hw_crystal(cartan, kappa)
        for v in range(len(group)):
            cand = subgraph_oracle(
                ambient, demazure_subset(ambient, group.reduced_word(v)))
            if len(cand) == len(comp) and \
                    iso_check(comp, cand, "max") is not None:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# DOT text in one piece


def dot_text(graph):
    """What graph.to_dot writes, as one string."""
    buf = io.StringIO()
    graph.to_dot(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# JSON text in one piece, and the whole-document oracle of the stream


def json_text(graph, chain=None):
    """What graph.to_json writes, as one string."""
    buf = io.StringIO()
    graph.to_json(buf, chain)
    return buf.getvalue()


def json_data(graph):
    """The nodes, edges and anchors of a graph export as one dict."""
    return {
        "nodes": [{"id": i, "repr": r, "wt": list(w)}
                  for i, (r, w) in enumerate(zip(graph.reprs,
                                                 graph.weights))],
        "edges": [{"src": s, "dst": d, "color": c}
                  for (s, c, d) in graph.edges_sorted()],
        "anchors": graph.anchors(),
    }


def crystal_json_oracle(graph):
    """The graph's JSON text as one json.dumps of json_data."""
    return json.dumps(json_data(graph), separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def alcove_json_oracle(graph, chain):
    """The alcove export's JSON text as one json.dumps: json_data with each
    node's subset as "J" and the chain's roots as "chain"."""
    data = json_data(graph)
    for node, J in zip(data["nodes"], graph.nodes):
        node["J"] = list(J)
    data["chain"] = [list(beta) for beta in chain.roots]
    return json.dumps(data, separators=(",", ":")) + "\n"


class WriteLog:
    """A text file that keeps every write as its own string."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def nodes_per_write(self):
        """For each write, how many nodes it declares or leaves from: DOT
        lines that open with a node name, JSON nodes and edges by "id" and
        "src"."""
        return [len(set(re.findall(r'(?:^  n|\{"id":|\{"src":)(\d+)', text,
                                   re.M)))
                for text in self.writes]


def crystal_dot_oracle(g):
    """The crystal's DOT text built as one list of lines and one join."""
    lines = ["digraph crystal {"]
    lines += ['  n%d [label="%s"];' % (i, r.replace('"', r'\"'))
              for i, r in enumerate(g.reprs)]
    colors = {0: ", color=black", 1: ", color=blue", 2: ", color=red"}
    for src in range(len(g.nodes)):
        for c in sorted(g.colors):
            dst = g.fs[c][src]
            if dst is not None:
                lines.append('  n%d -> n%d [label="%d"%s];'
                             % (src, dst, c, colors.get(c, "")))
    lines.append("}")
    return "\n".join(lines) + "\n"


def qbg_rows(qbg):
    """Each vertex's (root_idx, dst, is_down) edges, in the sorted order of
    the roots, asked of has_edge one pair at a time: independent of the
    column table the exports read."""
    pos = qbg.cartan.positive_roots_list
    order = sorted(range(len(pos)), key=pos.__getitem__)
    return [[(k,) + edge for k in order
             if (edge := qbg.has_edge(w, k)) is not None]
            for w in range(len(qbg.group))]


def qbg_edges(qbg):
    """{(src, root_idx): (dst, is_down)}, asked of has_edge per pair."""
    return {(src, k): (dst, down) for src, row in enumerate(qbg_rows(qbg))
            for k, dst, down in row}


def qbg_dot_oracle(qbg):
    """The QBG's DOT text, each vertex labelled by greedy_reduced_word."""
    pos = qbg.cartan.positive_roots_list
    lines = ["digraph qbg {"]
    for w in range(len(qbg.group)):
        word = greedy_reduced_word(qbg.group, w)
        label = "e" if not word else "".join("s%d" % j for j in word)
        lines.append('  n%d [label="%s"];' % (w, label))
    for src, lst in enumerate(qbg_rows(qbg)):
        for root_idx, dst, down in lst:
            beta = ",".join(str(x) for x in pos[root_idx])
            style = ", style=dashed" if down else ""
            lines.append('  n%d -> n%d [label="%s"%s];'
                         % (src, dst, beta, style))
    lines.append("}")
    return "\n".join(lines) + "\n"
