"""The quantum alcove model: lambda-chains, foldings, admissible subsets,
and the level-l crystal operators.

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
J + (j,) for a position j past J: gamma and levels up to j are copied,
positions j+1..m are recomputed from w s_{beta_j} and the shifted v.
enumerate_admissible is an iterative DFS over the quantum Bruhat graph
that applies this step once per admissible subset and keeps each
Folding in the chain's map chain.foldings, whose size the node cap
bounds; fold() reads that map and folds any other subset by the same
step from the empty folding.  AlcoveCrystal builds one height profile
per (subset, color) and reads both f_p and e_p from it.
"""

import math
from dataclasses import dataclass

from .cartan import vec_scale, vec_sub
from .crystals import AbstractCrystal, explore, DEFAULT_NODE_CAP
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
        self.foldings = {}


def build_lambda_chain(cartan, lam, order="lex"):
    return LambdaChain(cartan, lam, order)


@dataclass(frozen=True)
class Folding:
    """The folded chain Gamma(J): the signed root ids gamma_k, the
    hyperplane levels, the image of rho under the folding reflections,
    wt(J), and the final direction (the product of the folding
    reflections, a WeylElement)."""
    gamma: tuple
    levels: tuple
    gamma_inf: tuple
    weight: tuple
    final_dir: object


def _fold_step(chain, group, state, j):
    """The one folding step.  From the state (Folding, weight shift v) of
    a subset J and a position j past every position of J, the state of
    J + (j,): the shift v - l_j gamma_j, the element w s_{beta_j}, the
    entries of gamma and levels at positions 1..j copied from J's folding
    (they only see foldings before them) and positions j+1..m recomputed
    from the new w and v.  state None with j = 0 gives the empty folding,
    every position computed from the identity."""
    ct = chain.cartan
    if state is None:
        w, v, gamma, levels = group.identity, (0,) * ct.rank, [], []
    else:
        fol, v = state
        g = fol.gamma[j - 1]
        sl = chain.l[j - 1] if g > 0 else -chain.l[j - 1]
        v = vec_sub(v, vec_scale(sl, ct._root_weights[abs(g) - 1]))
        w = group.elements[group.times_reflection(fol.final_dir.id,
                                                  chain.root_indices[j - 1])]
        gamma, levels = list(fol.gamma[:j]), list(fol.levels[:j])
    roots, coroots = w.roots, ct._coroots
    for idx, l in zip(chain.root_indices[j:], chain.l[j:]):
        g = roots[idx]
        gamma.append(g)
        sl = l if g > 0 else -l
        levels.append(sl - sum(c * x for c, x in zip(coroots[abs(g) - 1], v)))
    return (Folding(tuple(gamma), tuple(levels), w.apply_weight(ct.rho),
                    vec_sub(w.apply_weight(chain.lam), v), w), v)


def fold(chain, J):
    """The folding Gamma(J) (admissibility not required).  A subset that
    enumerate_admissible reached is read from chain.foldings; any other J
    is folded from the empty folding by _fold_step at each of its
    positions in ascending order, and is not stored."""
    J = tuple(sorted(set(J)))
    fol = chain.foldings.get(J)
    if fol is not None:
        return fol
    group = build_qbg(chain.cartan).group
    state = _fold_step(chain, group, None, 0)
    for j in J:
        state = _fold_step(chain, group, state, j)
    return state[0]


def is_admissible(chain, J):
    """Does 1 -> r_{j_1} -> ... walk along quantum Bruhat graph edges?"""
    qbg = build_qbg(chain.cartan)
    cur = qbg.group.identity.id
    for j in sorted(J):
        edge = qbg.has_edge(cur, chain.root_indices[j - 1])
        if edge is None:
            return False
        cur = edge[0]
    return True


def enumerate_admissible(chain, node_cap=DEFAULT_NODE_CAP):
    """All admissible subsets, in DFS preorder with positions ascending.

    An iterative DFS over the QBG walks 1 -> w_1 -> w_2 -> ...: each stack
    frame holds a subset, its folding state and the next position to try,
    and a child J + (j,) is made only when its frame is reached, by one
    _fold_step from its parent's state, so the stack holds one frame per
    level of depth.  Each subset's Folding goes into chain.foldings, which
    fold() reads.  ResourceLimitError as soon as a subset beyond the
    first node_cap is found."""
    qbg = build_qbg(chain.cartan)
    group = qbg.group
    indices = chain.root_indices
    m = chain.m
    root = _fold_step(chain, group, None, 0)
    chain.foldings = {(): root[0]}
    out = [()]
    stack = [((), root, 1)]
    while stack:
        J, state, pos = stack[-1]
        w_id = state[0].final_dir.id
        while pos <= m and qbg.has_edge(w_id, indices[pos - 1]) is None:
            pos += 1
        if pos > m:
            stack.pop()
            continue
        stack[-1] = (J, state, pos + 1)
        if len(out) >= node_cap:
            raise ResourceLimitError("admissible subsets exceed node cap %d"
                                     % node_cap)
        child = J + (pos,)
        child_state = _fold_step(chain, group, state, pos)
        chain.foldings[child] = child_state[0]
        out.append(child)
        stack.append((child, child_state, pos + 1))
    return out


# ---------------------------------------------------------------------------
# the height profile g_alpha and the operators


@dataclass(frozen=True)
class GGraph:
    """Height data of g_{alpha_p} for a folded chain: the positions I_alpha,
    their integer heights sgn(alpha) l_i^J, the endpoint height, the slope
    sequence of the piecewise-linear profile, and the maximum M."""
    p: int
    base_root: tuple
    sign: int
    positions: tuple      # I_alpha, ascending; infinity is implicit
    heights: tuple        # sgn(alpha) * l_i^J along positions
    h_inf: int            # <wt(J), alpha_p^vee> = height at the right end
    l_inf: int            # <wt(J), sgn(alpha) alpha^vee>
    M: int
    steps: tuple          # slopes of g_{|alpha|} on successive half-steps


def g_graph(chain, J, p):
    """The height profile for color p (p = 0 uses alpha_0 = -theta and the
    graph reflected in the x-axis)."""
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

    # one pass collects I_alpha and its heights and accumulates the slopes
    # of g_{|alpha|} in doubled integers, cross-checking the
    # reflection-computed levels against the defining slope rule
    jset = set(J)
    positions = [i for i, g in enumerate(fol.gamma, 1)
                 if g == rid or g == -rid]
    heights = []
    steps = []
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
        steps.append(s1)
        steps.append(s2)
    end_pair = sum(c * x for c, x in zip(cor, fol.gamma_inf))
    if end_pair == 0:
        raise InvariantError("gamma_inf orthogonal to alpha")
    s_end = 1 if end_pair > 0 else -1
    val2 += s_end
    steps.append(s_end)
    if val2 != 2 * l_inf:
        raise InvariantError("endpoint height mismatch")

    M = max(heights + [h_inf])
    return GGraph(p, base, sign, tuple(positions), tuple(heights), h_inf,
                  l_inf, M, tuple(steps))


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
    jset = set(J)
    m_pos = None  # None encodes infinity
    for i, h in zip(gg.positions, gg.heights):
        if h == gg.M:
            m_pos = i
            break
    if m_pos is None:
        if gg.h_inf != gg.M:
            raise InvariantError("maximum attained nowhere")
        if not gg.positions:
            raise InvariantError(
                "no predecessor of infinity although M > delta")
        k_pos = gg.positions[-1]
    else:
        if m_pos not in jset:
            raise InvariantError(
                "minimum-position element not a folding position")
        idx = gg.positions.index(m_pos)
        if idx == 0:
            raise InvariantError("no predecessor although M > delta")
        k_pos = gg.positions[idx - 1]
    if k_pos in jset:
        raise InvariantError("predecessor already a folding position")
    new = jset - {m_pos} | {k_pos}
    return tuple(sorted(new))


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
    jset = set(J)
    k_pos = None
    for i, h in zip(gg.positions, gg.heights):
        if h == gg.M:
            k_pos = i
    if k_pos is None:
        raise InvariantError("M exceeds the endpoint but is never attained")
    if k_pos not in jset:
        raise InvariantError("maximum-position element not a folding position")
    idx = gg.positions.index(k_pos)
    m_pos = gg.positions[idx + 1] if idx + 1 < len(gg.positions) else None
    if m_pos in jset:
        raise InvariantError("successor already a folding position")
    new = jset - {k_pos}
    if m_pos is not None:
        new |= {m_pos}
    return tuple(sorted(new))


def phi0(chain, J):
    """phi_0(J) = max(M - 1, 0) for the p = 0 height profile."""
    return max(g_graph(chain, tuple(sorted(J)), 0).M - 1, 0)


# ---------------------------------------------------------------------------
# the crystal A_l(Gamma)


class AlcoveCrystal(AbstractCrystal):
    """A_l(Gamma) over sorted subsets.  explore() asks for f_p and then
    e_p of the same subset, so the last height profile is kept in one
    slot and each (J, p) profile is built once."""

    def __init__(self, chain, level):
        self.chain = chain
        self.level = level
        self.colors = tuple(range(0, chain.cartan.rank + 1))
        self._last = (None, None)

    def _profile(self, J, color):
        if self._last[0] != (J, color):
            self._last = ((J, color), g_graph(self.chain, J, color))
        return self._last[1]

    def weight(self, J):
        return fold(self.chain, J).weight

    def repr_of(self, J):
        return "[" + ",".join(str(j) for j in J) + "]"

    def f(self, J, color):
        return _f_on(self._profile(J, color), J, self.level)

    def e(self, J, color):
        return _e_on(self._profile(J, color), J, self.level)


def alcove_crystal(cartan, lam, level=1, order="lex",
                   node_cap=DEFAULT_NODE_CAP, weyl_cap=DEFAULT_WEYL_CAP):
    """The crystal A_l(Gamma) on all admissible subsets of the lexicographic
    lambda-chain, as an explored CrystalGraph."""
    if level < 1:
        raise ValueError("level must be >= 1")
    # the cap goes in positionally: the same cache key the QBG's group uses
    build_weyl_group(cartan, weyl_cap)
    chain = build_lambda_chain(cartan, lam, order)
    subsets = enumerate_admissible(chain, node_cap)
    source = AlcoveCrystal(chain, level)
    graph = explore(cartan, source, subsets, node_cap)
    if len(graph) != len(subsets):
        raise InvariantError("crystal operators left the admissible family")
    graph.chain = chain
    return graph
