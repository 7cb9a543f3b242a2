"""The quantum alcove model A_l(Gamma) and its Bruhat-only part B(lambda):
lambda-chains, foldings, admissible subsets, and the crystal operators.

Roots are signed root ids throughout: +(k + 1) names the positive root
beta_k of CartanData.positive_roots_list and -(k + 1) its negative, so a
folded root is read from a Weyl element's signed root permutation, its
sign is the sign of the id, and |gamma| = alpha_p is an integer compare.
Heights are exact integers; the piecewise-linear height profile is kept
in doubled integer arithmetic and cross-checked against the folded
hyperplane levels at every evaluation, so the two routes to the heights
(affine reflections vs slope accumulation) must always agree.

Foldings are built incrementally.  One step function, _fold_step, turns
the folding state (w, v, gamma, levels) of a subset J into that of
J + (j,) for a position j past J, given the new element w s_{beta_j}:
gamma and levels up to j are copied, positions j+1..m are recomputed
from the new element and the shifted v.  enumerate_admissible is an
iterative DFS over the quantum Bruhat graph (up edges only, for
B(lambda)) that takes each new element from the QBG edge it follows,
applies the step once per admissible subset and returns the map from
each subset to its Folding, whose size the node cap bounds.  fold()
folds any subset by the same step from the empty folding.
_height_profiles builds the r+1 height profiles of a subset in one pass
over its folding, and explore tabulates A_l(Gamma) and B(lambda) over the
DFS's map: node k is its k-th subset, whose profiles are built once and
give every f_p and e_p as node ids.
"""

import math
from bisect import insort
from typing import NamedTuple

from .cartan import mat_vec, vec_scale, vec_sub
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
        # per color p: the sign of alpha_p, the root id and coroot of
        # |alpha_p|; alpha_0 = -theta has base theta and sign -1
        self.alphas = tuple(
            (sign, cartan._root_index[base] + 1, cartan.coroot_coords(base))
            for base, sign in [(cartan.theta, -1)] + [
                (tuple(int(j == p) for j in range(cartan.rank)), 1)
                for p in range(cartan.rank)])
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
        v = vec_sub(v, vec_scale(sl, ct._root_weights[abs(g) - 1]))
        gamma, levels = list(fol.gamma[:j]), list(fol.levels[:j])
    roots, coroots = group.roots[w], ct._coroots
    for idx, l in zip(chain.root_indices[j:], chain.l[j:]):
        g = roots[idx]
        gamma.append(g)
        sl = l if g > 0 else -l
        levels.append(sl - sum(c * x for c, x in zip(coroots[abs(g) - 1], v)))
    images = chain._images.get(w)
    if images is None:
        wt = group.wt_mats[w]
        images = chain._images[w] = (mat_vec(wt, ct.rho),
                                     mat_vec(wt, chain.lam))
    return (Folding(tuple(gamma), tuple(levels), images[0],
                    vec_sub(images[1], v), w), v)


def fold(chain, J):
    """The folding Gamma(J) (admissibility not required), folded from the
    empty folding by _fold_step at each position of J in ascending order.
    ValueError for a position outside 1..m."""
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
    """The map from each admissible subset to its Folding, in DFS preorder
    with positions ascending.

    An iterative DFS over the QBG walks 1 -> w_1 -> w_2 -> ...: each stack
    frame holds a subset, its folding state and the next position to try,
    and a child J + (j,) is made only when its frame is reached, by one
    _fold_step from its parent's state with the element of the QBG edge
    just tested, so the stack holds one frame per level of depth.
    quantum=False takes up edges (Bruhat covers) only: a prefix-closed
    part of the subsets, in the same order.  ResourceLimitError before
    folding a subset that would take the map past node_cap subsets, the
    empty subset () included."""
    if node_cap < 1:
        raise ResourceLimitError("the empty subset exceeds node cap %d"
                                 % node_cap)
    qbg = build_qbg(chain.cartan)
    group = qbg.group
    indices = chain.root_indices
    m = chain.m
    root = _fold_step(chain, group, None, 0, group.identity)
    out = {(): root[0]}
    stack = [((), root, 1)]
    while stack:
        J, state, pos = stack[-1]
        w = state[0].final_dir
        while pos <= m and ((edge := qbg.has_edge(w, indices[pos - 1]))
                            is None or edge[1] and not quantum):
            pos += 1
        if pos > m:
            stack.pop()
            continue
        stack[-1] = (J, state, pos + 1)
        if len(out) >= node_cap:
            raise ResourceLimitError("admissible subsets exceed node cap %d"
                                     % node_cap)
        child = J + (pos,)
        child_state = _fold_step(chain, group, state, pos, edge[0])
        out[child] = child_state[0]
        stack.append((child, child_state, pos + 1))
    return out


# ---------------------------------------------------------------------------
# the height profile g_alpha and the operators


class GGraph(NamedTuple):
    """Height data of g_{alpha_p} for a folded chain, as the operators
    read it: the positions I_alpha, their integer heights sgn(alpha) l_i^J,
    the endpoint height, and the maximum M."""
    p: int
    positions: tuple      # I_alpha, ascending; infinity is implicit
    heights: tuple        # sgn(alpha) * l_i^J along positions
    h_inf: int            # <wt(J), alpha_p^vee> = height at the right end
    M: int


def _height_profiles(chain, J, fol):
    """The height profiles of every color p = 0..r for the folding fol of
    the sorted subset J, from one pass over Gamma(J) that puts each
    position into the bucket of its |gamma|.  Each distinct |alpha_p| is
    walked once (in A1, theta = alpha_1): the walk collects I_alpha and
    its levels and accumulates the slopes of g_{|alpha|} in doubled
    integers, cross-checking the reflection-computed levels against the
    defining slope rule.  A color then only applies its sign (p = 0 uses
    alpha_0 = -theta and the graph reflected in the x-axis)."""
    gamma, levels = fol.gamma, fol.levels
    at = {rid: [] for _, rid, _ in chain.alphas}
    for i, g in enumerate(gamma, 1):
        bucket = at.get(g if g > 0 else -g)
        if bucket is not None:
            bucket.append(i)
    jset = set(J)
    walks = {}
    for _, rid, cor in chain.alphas:
        if rid in walks:
            continue
        l_inf = sum(c * x for c, x in zip(cor, fol.weight))
        walked, val2 = [], -1
        for i in at[rid]:
            level = levels[i - 1]
            s1 = 1 if gamma[i - 1] > 0 else -1
            val2 += s1
            if val2 != 2 * level:
                raise InvariantError("height/slope mismatch at position %d"
                                     % i)
            val2 += -s1 if i in jset else s1
            walked.append(level)
        end_pair = sum(c * x for c, x in zip(cor, fol.gamma_inf))
        if end_pair == 0:
            raise InvariantError("gamma_inf orthogonal to alpha")
        val2 += 1 if end_pair > 0 else -1
        if val2 != 2 * l_inf:
            raise InvariantError("endpoint height mismatch")
        walks[rid] = (tuple(at[rid]), tuple(walked), l_inf)
    out = []
    for p, (sign, rid, _) in enumerate(chain.alphas):
        positions, walked, l_inf = walks[rid]
        heights = walked if sign > 0 else tuple(-h for h in walked)
        h_inf = sign * l_inf
        out.append(GGraph(p, positions, heights, h_inf,
                          max(heights + (h_inf,))))
    return out


def g_graph(chain, J, p):
    """The height profile for color p (p = 0 uses alpha_0 = -theta and the
    graph reflected in the x-axis)."""
    J = tuple(sorted(J))
    return _height_profiles(chain, J, fold(chain, J))[p]


def alcove_f(chain, J, p, level=1):
    """The level-l lowering operator f_p on an admissible subset; None when
    the maximum M fails M > l * delta_{p,0}."""
    J = tuple(sorted(J))
    return _f_on(g_graph(chain, J, p), J, level)


def _f_on(gg, J, level):
    """f_p of the sorted subset J, read from its height profile gg."""
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


def alcove_e(chain, J, p, level=1):
    """The level-l raising operator e_p; None unless M > <wt(J), alpha_p^vee>
    and M >= l * delta_{p,0}."""
    J = tuple(sorted(J))
    return _e_on(g_graph(chain, J, p), J, level)


def _e_on(gg, J, level):
    """e_p of the sorted subset J, read from its height profile gg."""
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


def phi0(chain, J):
    """phi_0(J) = max(M - 1, 0) for the p = 0 height profile."""
    return max(g_graph(chain, J, 0).M - 1, 0)


# ---------------------------------------------------------------------------
# the crystal A_l(Gamma)


def explore(chain, foldings, level, colors):
    """A_l(Gamma) (colors 0..r) or B(lambda) (colors I_0) as a
    CrystalGraph over the sorted subsets of foldings, enumerate_admissible's
    map: node k is its k-th subset, each subset's height profiles are built
    once and every f_p and e_p is read from them, and the e lists go to the
    constructor to be checked against the f lists.  InvariantError when an
    operator leaves the map."""
    colors = tuple(colors)
    index = {J: k for k, J in enumerate(foldings)}
    fs = {c: [] for c in colors}
    es = {c: [] for c in colors}
    steps = [(c, op, table[c]) for c in colors
             for op, table in ((_f_on, fs), (_e_on, es))]
    for J, fol in foldings.items():
        profiles = _height_profiles(chain, J, fol)
        for c, op, out in steps:
            img = op(profiles[c], J, level)
            if img is not None:
                img = index.get(img)
                if img is None:
                    raise InvariantError("crystal operators left the "
                                         "admissible family")
            out.append(img)
    graph = CrystalGraph(chain.cartan, colors, list(foldings), fs,
                         [fol.weight for fol in foldings.values()],
                         ["[" + ",".join(map(str, J)) + "]"
                          for J in foldings], es=es)
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
    """The quantum (colors 0..r) or Bruhat (I_0) subsets, tabulated."""
    # the cap goes in positionally: the same cache key the QBG's group uses
    build_weyl_group(cartan, weyl_cap)
    chain = build_lambda_chain(cartan, lam, order)
    foldings = enumerate_admissible(chain, node_cap, quantum)
    colors = range(cartan.rank + 1) if quantum else cartan.classical_index_set
    return explore(chain, foldings, level, colors)
