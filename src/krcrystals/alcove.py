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
"""

import math
from dataclasses import dataclass

from .cartan import vec_scale, vec_sub
from .crystals import AbstractCrystal, explore, DEFAULT_NODE_CAP
from .errors import InvariantError, NonDominantWeightError
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
        self._fold_cache = {}


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


def fold(chain, J):
    """Fold the chain at the positions of J (admissibility not required).
    The running product w of the folding reflections is one Weyl element:
    gamma_k is w(beta_k), read from its signed root permutation, and the
    weight shift of a folding at beta_k is -l_k w(beta_k), a multiple of a
    precomputed root weight.  Memoized per chain."""
    J = tuple(sorted(J))
    cached = chain._fold_cache.get(J)
    if cached is not None:
        return cached
    ct = chain.cartan
    group = build_qbg(ct).group
    coroots, root_weights = ct._coroots, ct._root_weights
    jset = set(J)
    w = group.identity
    v = (0,) * ct.rank
    gamma = []
    levels = []
    for k, (idx, l) in enumerate(zip(chain.root_indices, chain.l), 1):
        g = w.roots[idx]
        gamma.append(g)
        b = abs(g) - 1
        sl = l if g > 0 else -l
        levels.append(sl - sum(c * x for c, x in zip(coroots[b], v)))
        if k in jset:
            v = vec_sub(v, vec_scale(sl, root_weights[b]))
            w = group.elements[group.times_reflection(w.id, idx)]
    weight = vec_sub(w.apply_weight(chain.lam), v)
    out = Folding(tuple(gamma), tuple(levels), w.apply_weight(ct.rho), weight,
                  w)
    chain._fold_cache[J] = out
    return out


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


def enumerate_admissible(chain):
    """All admissible subsets, in DFS order with positions ascending."""
    qbg = build_qbg(chain.cartan)
    indices = chain.root_indices
    out = []

    def rec(next_pos, w_id, prefix):
        out.append(tuple(prefix))
        for j in range(next_pos, chain.m + 1):
            edge = qbg.has_edge(w_id, indices[j - 1])
            if edge is not None:
                prefix.append(j)
                rec(j + 1, edge[0], prefix)
                prefix.pop()

    rec(1, qbg.group.identity.id, [])
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
    positions = tuple(i for i, g in enumerate(fol.gamma, 1) if abs(g) == rid)
    heights = tuple(sign * fol.levels[i - 1] for i in positions)
    l_inf = ct.pairing(base, fol.weight)
    h_inf = sign * l_inf

    # slope accumulation for g_{|alpha|}, doubled integers; cross-checks
    # the reflection-computed levels against the defining slope rule
    jset = set(J)
    val2 = -1
    steps = []
    for i in positions:
        s1 = 1 if fol.gamma[i - 1] > 0 else -1
        val2 += s1
        if val2 != 2 * fol.levels[i - 1]:
            raise InvariantError("height/slope mismatch at position %d" % i)
        s2 = s1 * (-1 if i in jset else 1)
        val2 += s2
        steps.append(s1)
        steps.append(s2)
    end_pair = ct.pairing(base, fol.gamma_inf)
    if end_pair == 0:
        raise InvariantError("gamma_inf orthogonal to alpha")
    s_end = 1 if end_pair > 0 else -1
    val2 += s_end
    steps.append(s_end)
    if val2 != 2 * l_inf:
        raise InvariantError("endpoint height mismatch")

    M = max(heights + (h_inf,))
    return GGraph(p, base, sign, positions, heights, h_inf, l_inf, M,
                  tuple(steps))


def alcove_f(chain, J, p, level=1):
    """The level-l lowering operator f_p on an admissible subset; None when
    the maximum M fails M > l * delta_{p,0}."""
    J = tuple(sorted(J))
    gg = g_graph(chain, J, p)
    threshold = level if p == 0 else 0
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
    gg = g_graph(chain, J, p)
    threshold = level if p == 0 else 0
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
    def __init__(self, chain, level):
        self.chain = chain
        self.level = level
        self.colors = tuple(range(0, chain.cartan.rank + 1))

    def weight(self, J):
        return fold(self.chain, J).weight

    def repr_of(self, J):
        return "[" + ",".join(str(j) for j in J) + "]"

    def f(self, J, color):
        return alcove_f(self.chain, J, color, self.level)

    def e(self, J, color):
        return alcove_e(self.chain, J, color, self.level)


def alcove_crystal(cartan, lam, level=1, order="lex",
                   node_cap=DEFAULT_NODE_CAP, weyl_cap=DEFAULT_WEYL_CAP):
    """The crystal A_l(Gamma) on all admissible subsets of the lexicographic
    lambda-chain, as an explored CrystalGraph."""
    if level < 1:
        raise ValueError("level must be >= 1")
    # the cap goes in positionally: the same cache key the QBG's group uses
    build_weyl_group(cartan, weyl_cap)
    chain = build_lambda_chain(cartan, lam, order)
    subsets = enumerate_admissible(chain)
    source = AlcoveCrystal(chain, level)
    graph = explore(cartan, source, subsets, node_cap)
    if len(graph) != len(subsets):
        raise InvariantError("crystal operators left the admissible family")
    graph.chain = chain
    return graph
