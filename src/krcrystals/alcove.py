"""The quantum alcove model A_l(Gamma) and its Bruhat-only part B(lambda):
lambda-chains, foldings, admissible subsets, and the crystal operators.

Roots are signed root ids throughout: +(k + 1) names the positive root
beta_k of CartanData.positive_roots_list and -(k + 1) its negative, so a
folded root is read from a Weyl element's signed root permutation, its
sign is the sign of the id, and |gamma| = alpha_p is an integer compare.
Heights are exact integers, and every walk of a height profile checks the
folded hyperplane levels against its slopes, so the two routes to the
heights (affine reflections vs slope accumulation) must always agree.

fold() folds one subset in one pass over the chain.  enumerate_admissible
maps each admissible subset to the element its QBG walk ends at (up edges
only, for B(lambda)), folding nothing, and explore walks each subset of
the map from its parent's walk (_walks), with one skeleton of walks per
Weyl element reached, so no subset's Gamma(J) is built; _rule reads M,
f_p and e_p of each color off the walks.  The table keys each subset by
its bitmask, bit j for chain position j: an operator's image is its
subset's mask with one or two bits flipped, its membership tests are bit
tests, and explore's index maps masks to node ids.
"""

import math
from bisect import bisect_left, bisect_right
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


def build_lambda_chain(cartan, lam, order="lex"):
    return LambdaChain(cartan, lam, order)


class Folding(NamedTuple):
    """The folded chain Gamma(J): the signed root ids gamma_k, the levels,
    rho's image under the folding reflections, wt(J) and the final
    direction (their product, a Weyl group element id)."""
    gamma: tuple
    levels: tuple
    gamma_inf: tuple
    weight: tuple
    final_dir: int


def fold(chain, J):
    """The folding Gamma(J) (admissibility not required), in one pass over
    the chain from the identity: gamma_k from the running element's signed
    root permutation, its level from the running weight shift v, and at
    each k in J the shift by -l_k gamma_k and the product with s_{beta_k}.
    ValueError for a position outside 1..m.  No library function calls it,
    but the benchmark's tracer (bench/tracing.py) wraps it for three
    per-layer metrics, alcove.fold_s, alcove.fold_calls and
    alcove.fold_distinct."""
    J = set(J)
    for j in sorted(J):
        if not 1 <= j <= chain.m:
            raise ValueError("position %d outside 1..%d" % (j, chain.m))
    ct = chain.cartan
    group = build_qbg(ct).group
    w, v = group.identity, (0,) * ct.rank
    roots, gamma, levels = group.roots[w], [], []
    for k, (idx, l) in enumerate(zip(chain.root_indices, chain.l), 1):
        g = roots[idx]
        gamma.append(g)
        sl = l if g > 0 else -l
        levels.append(sl - sum(map(mul, ct._coroots[abs(g) - 1], v)))
        if k in J:
            v = tuple([x - sl * y
                       for x, y in zip(v, ct._root_weights[abs(g) - 1])])
            w = group.times_reflection(w, idx)
            roots = group.roots[w]
    wt = group.weight_matrix(w)
    return Folding(tuple(gamma), tuple(levels), mat_vec(wt, ct.rho),
                   tuple(map(sub, mat_vec(wt, chain.lam), v)), w)


def enumerate_admissible(chain, node_cap=DEFAULT_NODE_CAP, quantum=True):
    """Each admissible subset -> the Weyl element id its QBG walk
    1 -> w_1 -> ... ends at, in DFS preorder with positions ascending, by an
    iterative DFS with one stack frame (subset, element, next position) per
    level.  quantum=False takes Bruhat covers only: a prefix-closed part of
    the subsets, in the same order.  ResourceLimitError before making a
    subset that would take the map past node_cap subsets, () included."""
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


# ---------------------------------------------------------------------------
# the height walks and the operators


def _skeleton(chain, gamma, signed, gamma_inf, wlam):
    """(gamma, signed, per walked root in chain.walked order: (P = the
    positions with |gamma_i| = that root, the signed l and heights before
    and after each at v = 0, per index of P the next whose height before is
    not the last one's after, or None, <rid^vee, w(lambda)>, <rid^vee,
    w(rho)> < 0)) of w: InvariantError on a zero <rid^vee, w(rho)>."""
    tails = []
    for rid, cor in chain.walked.items():
        P = [i for i, g in enumerate(gamma, 1) if g == rid or g == -rid]
        sl = [signed[i - 1] for i in P]
        before = [s + (gamma[i - 1] < 0) for s, i in zip(sl, P)]
        after = [s + (gamma[i - 1] > 0) for s, i in zip(sl, P)]
        bad = [None] * len(P)
        for k in range(len(P) - 1, 0, -1):
            bad[k - 1] = k if before[k] != after[k - 1] else bad[k]
        side = sum(map(mul, cor, gamma_inf))
        if side == 0:
            raise InvariantError("gamma_inf orthogonal to alpha")
        tails.append((P, sl, before, after, bad, sum(map(mul, cor, wlam)),
                      side < 0))
    return gamma, signed, tails


def _walk_step(dots, parent, J, j, skel):
    """The state (J, its mask, its repr less the closing bracket, c, skel,
    walks, end heights) of J = the parent's subset + (j,) (j = 0 for ()),
    skel the skeleton of J's element; c, walks and heights in
    chain.walked order.  c: each walked root's <beta^vee, v>, the parent's
    less the parent's signed l_j times the row of dots at |gamma_j|.
    walks: (I_alpha, the levels l_i^J, <wt(J), alpha^vee>), the parent's
    walk up to j, which it checked, and skel's tail past j, whose levels
    sl - c must rise to h at gamma_i > 0 (fall to h - 1 else): one compare
    where it joins, then skel's next bad index.  A walk with nothing past
    j in either is the parent's, its lists shared."""
    _, mask, head, cs, (prow, psigned, _), pwalks, ends = parent
    if j:
        shift = psigned[j - 1]
        cs = [c - shift * d for c, d in zip(cs, dots[abs(prow[j - 1]) - 1])]
        mask |= 1 << j
        head = "%s,%d" % (head, j) if len(J) > 1 else "[%d" % j
    walks, heights = [], []
    for (P, sl, before, after, bad, lam, below), c, pwalk, h in \
            zip(skel[2], cs, pwalks, ends):
        positions, levels, _ = pwalk
        k = bisect_left(positions, j)
        if k < len(positions):
            i = positions[k]
            h = levels[k] + (prow[i - 1] < 0)
            k += i == j
        t = bisect_right(P, j)
        if t < len(P):
            if (first := t if before[t] - c != h else bad[t]) is not None:
                raise InvariantError("height/slope mismatch at position %d"
                                     % P[first])
            h = after[-1] - c
        if k < len(positions) or t < len(P):
            walks.append((positions[:k] + P[t:],
                          levels[:k] + [s - c for s in sl[t:]], lam - c))
        else:
            walks.append((positions, levels, lam - c))
        if lam - c != h - below:
            raise InvariantError("endpoint height mismatch")
        heights.append(h)
    return J, mask, head, cs, skel, walks, heights


def _walks(chain, dirs):
    """(J, its mask, its repr, wt(J), walks) for each subset J of dirs,
    enumerate_admissible's map, in its order, each by one _walk_step from
    its parent's state on a path indexed by depth; InvariantError names a
    parent the map lacks.  dots[k]: <beta^vee, wt(beta_k)> for each walked
    root beta, one table per chain.  The walks of alpha_1, ..., alpha_r end
    chain.walked (theta is first unless it is alpha_1), and the end of
    alpha_i's is <wt(J), alpha_i^vee>, so they give wt(J).  The skeletons,
    one per element reached, live as long as the call."""
    ct, group, skeletons = chain.cartan, build_qbg(chain.cartan).group, {}
    cors = tuple(chain.walked.values())
    dots = [[sum(map(mul, cor, wt)) for cor in cors]
            for wt in ct._root_weights]
    simple = len(cors) - ct.rank
    # path[d]: the state of the last subset of depth d, a sentinel subset
    # None until one comes; path[-1]: ()'s parent, nothing walked, heights 0
    path = [(None,)] * (chain.m + 1) + [(
        (), 0, "[", [0] * len(cors), ((), (), ()), [([], [], 0)] * len(cors),
        [0] * len(cors))]
    for J, w in dirs.items():
        if (parent := path[len(J) - 1])[0] != J[:-1]:
            raise InvariantError("the admissible map lacks %r, the parent "
                                 "of %r" % (J[:-1], J))
        if (skel := skeletons.get(w)) is None:
            gamma = list(map(group.roots[w].__getitem__, chain.root_indices))
            signed = [l if g > 0 else -l for g, l in zip(gamma, chain.l)]
            wt = group.weight_matrix(w)
            skel = skeletons[w] = _skeleton(chain, gamma, signed, mat_vec(
                wt, ct.rho), mat_vec(wt, chain.lam))
        _, mask, head, _, _, walks, _ = path[len(J)] = _walk_step(
            dots, parent, J, J[-1] if J else 0, skel)
        yield J, mask, head + "]", tuple([walk[2] for walk in
                                          walks[simple:]]), walks


def _rule(walk, sign, mask, threshold):
    """(M, f_p(J), e_p(J)) of a color p from the walk of |alpha_p|, sign
    sgn(alpha_p), J's mask (bit j set for each position j in J) and
    threshold l * delta_{p,0}, each image a mask (None where an operator
    vanishes) that differs from J's in two bits, or in one where infinity
    takes part.  The heights are sign times the levels: for sign -1 the
    highest positions are those of least level.  f_p needs M > threshold:
    the first position reaching M (or infinity) leaves J and its
    predecessor in I_alpha joins.  e_p needs M > the endpoint height and
    M >= threshold: the last position reaching M leaves J and its
    successor joins."""
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
            if not mask >> m_pos & 1:
                raise InvariantError(
                    "minimum-position element not a folding position")
            if idx == 0:
                raise InvariantError("no predecessor although M > delta")
            k_pos, f_img = positions[idx - 1], mask ^ 1 << m_pos
        elif not positions:  # the maximum is attained at infinity only
            raise InvariantError(
                "no predecessor of infinity although M > delta")
        else:
            k_pos, f_img = positions[-1], mask
        if mask >> k_pos & 1:
            raise InvariantError("predecessor already a folding position")
        f_img |= 1 << k_pos
    if e_on:
        idx = len(levels) - 1 - levels[::-1].index(peak)
        k_pos = positions[idx]
        if not mask >> k_pos & 1:
            raise InvariantError(
                "maximum-position element not a folding position")
        e_img = mask ^ 1 << k_pos
        if idx + 1 < len(positions):
            if mask >> (m_pos := positions[idx + 1]) & 1:
                raise InvariantError("successor already a folding position")
            e_img |= 1 << m_pos
    return M, f_img, e_img


# ---------------------------------------------------------------------------
# the crystal A_l(Gamma)


def explore(chain, dirs, level, colors):
    """A_l(Gamma) (colors 0..r) or B(lambda) (colors I_0) as a
    CrystalGraph over the sorted subsets of dirs, enumerate_admissible's
    map: node k is its k-th subset, walked once by _walks, and _rule reads
    every f_p and e_p off the walks as a mask, bit j for position j, which
    an index from masks turns into a node id, the e lists checked against
    the f lists by the constructor.  Equal weights share one tuple.
    InvariantError when an operator leaves the map or a subset's parent
    is missing from it, ValueError for a level below 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    colors = tuple(colors)
    # a mask -> its node id, None -> None (the graph's own is lazy)
    bits = [1 << j for j in range(chain.m + 1)]
    index = {sum(map(bits.__getitem__, J)): k for k, J in enumerate(dirs)}
    index[None] = None
    walked = list(chain.walked)
    fs, es = {c: [] for c in colors}, {c: [] for c in colors}
    steps = [(sign, walked.index(rid), level if c == 0 else 0, fs[c].append,
              es[c].append) for c in colors
             for sign, rid in [chain.alphas[c]]]
    weights, interned, reprs = [], {}, []
    for _, mask, label, weight, walks in _walks(chain, dirs):
        for sign, t, threshold, f_out, e_out in steps:
            _, f_img, e_img = _rule(walks[t], sign, mask, threshold)
            try:
                f_out(index[f_img])
                e_out(index[e_img])
            except KeyError:
                raise InvariantError("crystal operators left the "
                                     "admissible family") from None
        weights.append(interned.setdefault(weight, weight))
        reprs.append(label)
    del index  # its mask keys are not held while the graph checks its nodes
    graph = CrystalGraph(chain.cartan, colors, list(dirs), fs, weights,
                         reprs, es=es)
    graph.chain = chain
    return graph


def alcove_crystal(cartan, lam, level=1, order="lex",
                   node_cap=DEFAULT_NODE_CAP, weyl_cap=DEFAULT_WEYL_CAP):
    """The crystal A_l(Gamma) on all admissible subsets of the lambda-chain
    of the given order ('lex' or 'revlex'), as a CrystalGraph tabulated by
    explore."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return _explored(cartan, lam, order, True, level, node_cap, weyl_cap)


def hw_crystal(cartan, lam, node_cap=DEFAULT_NODE_CAP,
               weyl_cap=DEFAULT_WEYL_CAP):
    """B(lambda) in any type, in Lenart and Postnikov's alcove model: the
    subsets of the lexicographic lambda-chain whose path takes Bruhat covers
    only, under the f_p, e_p (p in I_0) of A_l(Gamma), tabulated by explore:
    nodes in DFS preorder (the top, (), is node 0), reprs [j,...], node_cap
    bounding |B(lambda)|.  ValueError for a lambda of the wrong length,
    NonDominantWeightError if it is not dominant."""
    return _explored(cartan, lam, "lex", False, 1, node_cap, weyl_cap)


def _explored(cartan, lam, order, quantum, level, node_cap, weyl_cap):
    """The quantum (colors 0..r) or Bruhat (I_0) subsets, tabulated.  The
    chain crosses each alpha_i lambda_i times, and w -> w s_i is a QBG edge
    for every w, so all 2^sum(lambda) subsets of those positions are quantum
    subsets, and the empty one and the singletons Bruhat ones: a node_cap
    below their count stops before the chain."""
    if len(lam) == cartan.rank and cartan.is_dominant(lam) and (
            (node_cap < 1 or sum(lam) >= node_cap.bit_length()) if quantum
            else sum(lam) >= node_cap):
        raise ResourceLimitError("admissible subsets exceed node cap %d"
                                 % node_cap)
    # the cap goes in positionally: the same cache key the QBG's group uses
    build_weyl_group(cartan, weyl_cap)
    chain = build_lambda_chain(cartan, lam, order)
    dirs = enumerate_admissible(chain, node_cap, quantum)
    colors = range(cartan.rank + 1) if quantum else cartan.classical_index_set
    return explore(chain, dirs, level, colors)
