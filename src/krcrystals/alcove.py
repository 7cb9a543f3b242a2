"""The quantum alcove model A_l(Gamma) and its Bruhat-only part B(lambda):
lambda-chains, foldings, admissible subsets, and the crystal operators.

Roots are signed root ids throughout: +(k + 1) names the positive root
beta_k of CartanData.positive_roots_list and -(k + 1) its negative, so a
folded root is read from a Weyl element's signed root permutation, its
sign is the sign of the id, and |gamma| = alpha_p is an integer compare.
Heights are exact integers, and every walk of a height profile checks the
folded hyperplane levels against its slopes, so the two routes to the
heights (affine reflections vs slope accumulation) must always agree.

Foldings are built incrementally.  One step function, _fold_step, turns
the folding state (w, v, gamma, levels) of a subset J into that of
J + (j,) for a position j past J, given the new element w s_{beta_j}:
gamma and levels up to j are copied, positions j+1..m are recomputed
from the new element and the shifted v.  enumerate_admissible is an
iterative DFS over the quantum Bruhat graph (up edges only, for
B(lambda)) that folds nothing: it maps each admissible subset to the
element its QBG walk ends at, and the node cap bounds the map.  explore
folds each subset of the map in its order by one step from its parent's
state, kept on a path indexed by depth (_foldings), so one folding per
level is held and none outlives its subset.  fold() folds any one subset
by the same step from the empty folding.

The crystal table is the only operator path: _height_walks walks each
distinct |alpha_p| of a subset's folding once and _rule reads M, f_p and
e_p of a color off its walk, once per subset, in explore.  g_graph reads
one color's height profile off the same walk of a folding from fold.
"""

import math
from bisect import insort
from operator import mul, sub
from typing import NamedTuple

from .cartan import identity_matrix, mat_vec
from .crystals import CrystalGraph, DEFAULT_NODE_CAP
from .errors import (InvariantError, NonDominantWeightError,
                     ResourceLimitError)
from .weyl import DEFAULT_WEYL_CAP, build_qbg, build_weyl_group


class LambdaChain:
    """A lambda-chain: the sequence of positive roots crossed by a reduced
    alcove path from the fundamental alcove to its translate by -lambda.

    The chain is the lexicographic one: crossings (beta, k) sorted by
    (k/p, beta^vee_1/p, ..., beta^vee_n/p) with p = <lambda, beta^vee>,
    in simple-coroot coordinates, each key scaled by the lcm of the p's
    (integers in the same order).  order='revlex' reverses the coordinate
    significance, giving a second valid chain for independence tests.
    """

    def __init__(self, cartan, lam, order="lex"):
        lam = tuple(lam)
        if len(lam) != cartan.rank:
            raise ValueError("lambda needs %d coordinates" % cartan.rank)
        if not cartan.is_dominant(lam):
            raise NonDominantWeightError("lambda must be dominant: %r" % (lam,))
        if order not in ("lex", "revlex"):
            raise ValueError("order must be 'lex' or 'revlex'")
        self.cartan = cartan
        self.lam = lam
        self.order = order
        crossed = [(beta, p) for beta in cartan.positive_roots_list
                   if (p := cartan.pairing(beta, lam)) > 0]
        scale = math.lcm(*(p for _, p in crossed))
        items = []
        for beta, p in crossed:
            cor = cartan.coroot_coords(beta)
            if order == "revlex":
                cor = tuple(reversed(cor))
            q = scale // p
            items.extend(((k * q,) + tuple(c * q for c in cor), beta)
                         for k in range(p))
        items.sort(key=lambda t: t[0])
        self.roots = tuple(beta for _, beta in items)
        self.root_indices = tuple(cartan._root_index[b] for b in self.roots)
        self.m = len(self.roots)
        counts = {}
        l = []
        for beta in self.roots:
            l.append(counts.get(beta, 0))
            counts[beta] = l[-1] + 1
        self.l = tuple(l)
        self.l_tilde = tuple(cartan.pairing(beta, lam) - li
                             for beta, li in zip(self.roots, self.l))
        for beta, total in counts.items():
            if total != cartan.pairing(beta, lam):
                raise InvariantError("multiplicity invariant")
        # per color p: the sign of alpha_p (alpha_0 = -theta) and the root
        # id of |alpha_p|; walked: the coroot of each distinct |alpha_p|
        bases = (cartan.theta,) + identity_matrix(cartan.rank)
        self.alphas = tuple((-1 if p == 0 else 1, cartan._root_index[b] + 1)
                            for p, b in enumerate(bases))
        self.walked = {rid: cartan._coroots[rid - 1] for _, rid in self.alphas}
        self._images = {}     # Weyl element id -> (w(rho), w(lambda))


def build_lambda_chain(cartan, lam, order="lex"):
    return LambdaChain(cartan, lam, order)


class Folding(NamedTuple):
    """The folded chain Gamma(J): the signed root ids gamma_k, the
    hyperplane levels, the image of rho under the folding reflections,
    wt(J), and the final direction (the product of the folding
    reflections, a Weyl group element id)."""
    gamma: tuple
    levels: tuple
    gamma_inf: tuple
    weight: tuple
    final_dir: int


def _fold_step(chain, group, state, j, w):
    """The one folding step.  From the state (Folding, weight shift v) of
    a subset J, a position j past every position of J and the element
    w = final_dir s_{beta_j}, the state of J + (j,): the shift
    v - l_j gamma_j, the entries of gamma and levels at positions 1..j
    copied from J's folding (they only see foldings before them) and
    positions j+1..m recomputed from w and the new v.  state None with
    j = 0 and w the identity gives the empty folding, every position
    computed from the identity."""
    ct = chain.cartan
    if state is None:
        v, gamma, levels = (0,) * ct.rank, [], []
    else:
        fol, v = state
        g = fol.gamma[j - 1]
        sl = chain.l[j - 1] if g > 0 else -chain.l[j - 1]
        v = tuple([x - sl * y
                   for x, y in zip(v, ct._root_weights[abs(g) - 1])])
        gamma, levels = list(fol.gamma[:j]), list(fol.levels[:j])
    roots, coroots = group.roots[w], ct._coroots
    for idx, l in zip(chain.root_indices[j:], chain.l[j:]):
        g = roots[idx]
        gamma.append(g)
        sl = l if g > 0 else -l
        levels.append(sl - sum(map(mul, coroots[abs(g) - 1], v)))
    images = chain._images.get(w)
    if images is None:
        wt = group.wt_mats[w]
        images = chain._images[w] = (mat_vec(wt, ct.rho),
                                     mat_vec(wt, chain.lam))
    return (Folding(tuple(gamma), tuple(levels), images[0],
                    tuple(map(sub, images[1], v)), w), v)


def fold(chain, J):
    """The folding Gamma(J) (admissibility not required), folded from the
    empty folding by _fold_step at each position of J in ascending order.
    ValueError for a position outside 1..m.

    The per-subset path, for a caller of g_graph or one who wants one
    subset's folding; no library function calls it, as explore folds
    along its DFS path.  The benchmark's tracer (bench/tracing.py) wraps
    alcove.fold: without it a traced run drops alcove.fold_s,
    alcove.fold_calls and alcove.fold_distinct, three per-layer metrics
    that BENCHMARK.json declares."""
    J = tuple(sorted(set(J)))
    for j in J:
        if not 1 <= j <= chain.m:
            raise ValueError("position %d outside 1..%d" % (j, chain.m))
    group = build_qbg(chain.cartan).group
    state = _fold_step(chain, group, None, 0, group.identity)
    for j in J:
        w = group.times_reflection(state[0].final_dir,
                                   chain.root_indices[j - 1])
        state = _fold_step(chain, group, state, j, w)
    return state[0]


def enumerate_admissible(chain, node_cap=DEFAULT_NODE_CAP, quantum=True):
    """The map from each admissible subset to its final direction (the
    Weyl group element id its QBG walk ends at), in DFS preorder with
    positions ascending.  Nothing is folded: explore folds each subset.

    An iterative DFS over the QBG walks 1 -> w_1 -> w_2 -> ...: each stack
    frame holds a subset, its element and the next position to try, and a
    child J + (j,) is made only when its frame is reached, with the element
    of the QBG edge just tested, so the stack holds one frame per level of
    depth.  quantum=False takes up edges (Bruhat covers) only: a
    prefix-closed part of the subsets, in the same order.
    ResourceLimitError before making a subset that would take the map past
    node_cap subsets, the empty subset () included."""
    if node_cap < 1:
        raise ResourceLimitError("the empty subset exceeds node cap %d"
                                 % node_cap)
    qbg = build_qbg(chain.cartan)
    has_edge = qbg.has_edge
    indices = chain.root_indices
    m = chain.m
    identity = qbg.group.identity
    out = {(): identity}
    stack = [((), identity, 1)]
    while stack:
        J, w, pos = stack[-1]
        while pos <= m and ((edge := has_edge(w, indices[pos - 1]))
                            is None or edge[1] and not quantum):
            pos += 1
        if pos > m:
            stack.pop()
            continue
        stack[-1] = (J, w, pos + 1)
        if len(out) >= node_cap:
            raise ResourceLimitError("admissible subsets exceed node cap %d"
                                     % node_cap)
        child = J + (pos,)
        out[child] = edge[0]
        stack.append((child, edge[0], pos + 1))
    return out


def _foldings(chain, dirs):
    """(J, Gamma(J)) for each subset J of dirs, enumerate_admissible's map,
    in its order.  J + (j,) is folded by one _fold_step from its parent's
    state, which a path indexed by depth keeps, so one folding per level
    of depth is held at a time.  A subset whose parent is not the path
    entry one level up is never folded afresh: InvariantError names the
    parent the map lacks."""
    group = build_qbg(chain.cartan).group
    # path[d]: (subset, folding state) of the last subset of depth d
    path = [(None, None)] * (chain.m + 1)
    for J, w in dirs.items():
        d = len(J)
        if d:
            parent, state = path[d - 1]
            if parent != J[:-1]:
                raise InvariantError("the admissible map lacks %r, the "
                                     "parent of %r" % (J[:-1], J))
            state = _fold_step(chain, group, state, J[-1], w)
        else:
            state = _fold_step(chain, group, None, 0, w)
        path[d] = (J, state)
        yield J, state[0]


# ---------------------------------------------------------------------------
# the height walks and the operators


class GGraph(NamedTuple):
    """The height profile g_{alpha_p} of a folded chain, read by g_graph."""
    p: int
    positions: tuple      # I_alpha, ascending; infinity is implicit
    heights: tuple        # sgn(alpha) * l_i^J along positions
    h_inf: int            # <wt(J), alpha_p^vee> = height at the right end
    M: int


def _height_walks(chain, J, fol):
    """The walk of each distinct |alpha_p| (in A1, theta = alpha_1) over
    the folding fol of the sorted subset J: root id -> (I_alpha ascending,
    the levels l_i^J along it, <wt(J), |alpha_p|^vee>).  g_{|alpha|} lies at
    h - 1/2 between positions; position i rises to h (falls to h - 1 when
    gamma_i < 0) and the slope turns back at a folding position, so each
    level, and the endpoint, is checked against the slopes."""
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
        end_pair = sum(map(mul, cor, fol.gamma_inf))
        if end_pair == 0:
            raise InvariantError("gamma_inf orthogonal to alpha")
        l_inf = sum(map(mul, cor, fol.weight))
        if l_inf != (h if end_pair > 0 else h - 1):
            raise InvariantError("endpoint height mismatch")
        walks[rid] = positions, walked, l_inf
    return walks


def _rule(walk, sign, J, threshold):
    """(M, f_p(J), e_p(J)) of a color p from the walk of |alpha_p|, sign
    sgn(alpha_p), the sorted J and threshold l * delta_{p,0} (None where an
    operator vanishes).  The heights are sign times the levels: for sign -1
    the highest positions are those of least level.  f_p needs M > threshold:
    the first position reaching M (or infinity) leaves J and its predecessor
    in I_alpha joins.  e_p needs M > the endpoint height and M >= threshold:
    the last position reaching M leaves J and its successor joins."""
    positions, levels, l_inf = walk
    h_inf = sign * l_inf
    peak = (max(levels) if sign > 0 else min(levels)) if levels else l_inf
    top = sign * peak
    M = top if top > h_inf else h_inf
    f_img = e_img = None
    f_on, e_on = M > threshold, M > h_inf and M >= threshold
    if M < 0 and (f_on or e_on):
        raise InvariantError("negative maximum on an admissible subset")
    if f_on:
        if levels and top == M:
            idx = levels.index(peak)
            m_pos = positions[idx]
            if m_pos not in J:
                raise InvariantError(
                    "minimum-position element not a folding position")
            if idx == 0:
                raise InvariantError("no predecessor although M > delta")
            k_pos = positions[idx - 1]
        elif not positions:  # the maximum is attained at infinity only
            raise InvariantError(
                "no predecessor of infinity although M > delta")
        else:
            m_pos, k_pos = None, positions[-1]
        if k_pos in J:
            raise InvariantError("predecessor already a folding position")
        new = list(J)
        if m_pos is not None:
            new.remove(m_pos)
        insort(new, k_pos)
        f_img = tuple(new)
    if e_on:
        idx = len(levels) - 1 - levels[::-1].index(peak)
        k_pos = positions[idx]
        if k_pos not in J:
            raise InvariantError(
                "maximum-position element not a folding position")
        m_pos = positions[idx + 1] if idx + 1 < len(positions) else None
        if m_pos in J:
            raise InvariantError("successor already a folding position")
        new = list(J)
        new.remove(k_pos)
        if m_pos is not None:
            insort(new, m_pos)
        e_img = tuple(new)
    return M, f_img, e_img


def g_graph(chain, J, fol, p):
    """The height profile for color p of the subset J with folding fol
    (fold(chain, J)), read from its walk (p = 0 uses alpha_0 = -theta and
    the graph reflected in the x-axis).  ValueError for a color outside
    0..r."""
    if not 0 <= p <= chain.cartan.rank:
        raise ValueError("color %r outside 0..%d" % (p, chain.cartan.rank))
    sign, rid = chain.alphas[p]
    positions, levels, l_inf = _height_walks(chain, J, fol)[rid]
    heights = tuple(sign * h for h in levels)
    return GGraph(p, tuple(positions), heights, sign * l_inf,
                  max(heights + (sign * l_inf,)))


# ---------------------------------------------------------------------------
# the crystal A_l(Gamma)


def explore(chain, dirs, level, colors):
    """A_l(Gamma) (colors 0..r) or B(lambda) (colors I_0) as a
    CrystalGraph over the sorted subsets of dirs, enumerate_admissible's
    map: node k is its k-th subset, folded by _foldings and walked once,
    and _rule reads every f_p and e_p off the walks as node ids; the e
    lists go to the constructor to be checked against the f lists.  Equal
    weights share one tuple.  InvariantError when an operator leaves the
    map or a subset's parent is missing from it, ValueError for a level
    below 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    colors = tuple(colors)
    # an image -> its node id; None -> None until the table is built
    index = {J: k for k, J in enumerate(dirs)}
    index[None] = None
    fs = {c: [] for c in colors}
    es = {c: [] for c in colors}
    steps = [(*chain.alphas[c], level if c == 0 else 0, fs[c].append,
              es[c].append) for c in colors]
    weights, interned = [], {}
    for J, fol in _foldings(chain, dirs):
        walks = _height_walks(chain, J, fol)
        for sign, rid, threshold, f_out, e_out in steps:
            _, f_img, e_img = _rule(walks[rid], sign, J, threshold)
            try:
                f_out(index[f_img])
                e_out(index[e_img])
            except KeyError:
                raise InvariantError("crystal operators left the "
                                     "admissible family") from None
        weights.append(interned.setdefault(fol.weight, fol.weight))
    del index[None]
    graph = CrystalGraph(chain.cartan, colors, list(dirs), fs, weights,
                         ["[" + ",".join(map(str, J)) + "]" for J in dirs],
                         es=es)
    graph.index = index
    graph.chain = chain
    return graph


def alcove_crystal(cartan, lam, level=1, order="lex",
                   node_cap=DEFAULT_NODE_CAP, weyl_cap=DEFAULT_WEYL_CAP):
    """The crystal A_l(Gamma) on all admissible subsets of the lexicographic
    lambda-chain, as a CrystalGraph tabulated by explore."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return _explored(cartan, lam, order, True, level, node_cap, weyl_cap)


def hw_crystal(cartan, lam, node_cap=DEFAULT_NODE_CAP,
               weyl_cap=DEFAULT_WEYL_CAP):
    """The highest weight crystal B(lambda) in any type, in Lenart and
    Postnikov's alcove model: the subsets of the lexicographic lambda-chain
    whose path takes Bruhat covers only, under the f_p, e_p (p in I_0) of
    A_l(Gamma), tabulated by explore.  Nodes are sorted subsets in DFS
    preorder (the top, (), is node 0), reprs read [j,...], node_cap bounds
    |B(lambda)|, the top included.  ValueError for a lambda of the wrong
    length, NonDominantWeightError if it is not dominant."""
    return _explored(cartan, lam, "lex", False, 1, node_cap, weyl_cap)


def _explored(cartan, lam, order, quantum, level, node_cap, weyl_cap):
    """The quantum (colors 0..r) or Bruhat (I_0) subsets, tabulated.  The
    empty subset and the lambda_i singletons at alpha_i crossings are
    admissible, so 1 + sum(lambda) > node_cap stops before the chain."""
    if len(lam) == cartan.rank and cartan.is_dominant(lam) \
            and sum(lam) >= node_cap:
        raise ResourceLimitError("admissible subsets exceed node cap %d"
                                 % node_cap)
    # the cap goes in positionally: the same cache key the QBG's group uses
    build_weyl_group(cartan, weyl_cap)
    chain = build_lambda_chain(cartan, lam, order)
    dirs = enumerate_admissible(chain, node_cap, quantum)
    colors = range(cartan.rank + 1) if quantum else cartan.classical_index_set
    return explore(chain, dirs, level, colors)
