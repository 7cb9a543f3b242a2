"""Finite Weyl groups, Bruhat order, the quantum Bruhat graph, and the
level-l affine dominantization used by the Demazure decomposition checks."""

from functools import lru_cache

from .cartan import (identity_matrix, mat_mul, mat_vec, vec_add, vec_neg,
                     vec_scale, vec_sub)
from .errors import InvariantError, ResourceLimitError

DEFAULT_WEYL_CAP = 10 ** 5


class WeylElement:
    """A finite Weyl group element, canonicalized by its action on the
    fundamental-weight basis.  Also carries the simple-root-basis matrix,
    so roots and weights are both moved with integer arithmetic only, and
    its id, the index into its group's tables."""

    __slots__ = ("wt_mat", "root_mat", "length", "id", "_hash", "group_key")

    def __init__(self, wt_mat, root_mat, length, id, group_key):
        self.wt_mat = wt_mat
        self.root_mat = root_mat
        self.length = length
        self.id = id
        self.group_key = group_key
        self._hash = hash((group_key, wt_mat))

    def apply_weight(self, weight):
        return mat_vec(self.wt_mat, weight)

    def apply_root(self, root):
        return mat_vec(self.root_mat, root)

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.group_key == other.group_key
                and self.wt_mat == other.wt_mat)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "W[len=%d]" % self.length


class WeylGroup:
    """The full finite Weyl group of a CartanData, enumerated once.

    Elements are indexed 0..|W|-1, sorted by (length, weight matrix), so
    the identity is element 0 and w0 is the last element.  Products are
    read from the right-multiplication table: right[w][i - 1] is the id of
    w s_i.  Each positive root beta_k keeps a reduced word of s_beta, so
    w s_beta is a few table lookups (Bjorner-Brenti, ch. 1-2).
    """

    def __init__(self, cartan, cap=DEFAULT_WEYL_CAP):
        self.cartan = cartan
        n = cartan.rank
        key = (cartan.family, cartan.rank)
        simple_roots = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        s_wt = [cartan.reflection_weight_matrix(a) for a in simple_roots]
        s_root = [cartan.reflection_root_matrix(a) for a in simple_roots]

        # breadth-first walk of the Cayley graph; the depth at which an
        # element is first met is its length
        ident = identity_matrix(n)
        found = {ident: (ident, 0)}   # wt_mat -> (root_mat, length)
        steps = {}                    # wt_mat -> wt_mats of w s_1, ..., w s_n
        frontier = [ident]
        while frontier:
            new = []
            for wt in frontier:
                root, length = found[wt]
                steps[wt] = []
                for i in range(n):
                    ws = mat_mul(wt, s_wt[i])
                    if ws not in found:
                        if len(found) >= cap:
                            raise ResourceLimitError(
                                "Weyl group larger than cap %d" % cap)
                        found[ws] = (mat_mul(root, s_root[i]), length + 1)
                        new.append(ws)
                    steps[wt].append(ws)
            frontier = new

        order = sorted(found, key=lambda wt: (found[wt][1], wt))
        self.index = {wt: k for k, wt in enumerate(order)}
        self.elements = [WeylElement(wt, found[wt][0], found[wt][1], k, key)
                         for k, wt in enumerate(order)]
        self.lengths = [w.length for w in self.elements]
        self.right = [tuple(self.index[ws] for ws in steps[wt])
                      for wt in order]
        self.identity = self.elements[0]
        self.simple = {i: self.elements[self.right[0][i - 1]]
                       for i in range(1, n + 1)}
        if self.lengths.count(self.lengths[-1]) != 1:
            raise InvariantError("longest element not unique")
        self.w0 = self.elements[-1]
        self.reflections = tuple(
            self.index[cartan.reflection_weight_matrix(beta)]
            for beta in cartan.positive_roots_list)
        self._reflection_words = tuple(self._word(r) for r in self.reflections)

    def __len__(self):
        return len(self.elements)

    def mul(self, v, w):
        """v w by matrix product: the oracle the table is checked against."""
        wt = mat_mul(v.wt_mat, w.wt_mat)
        return self.elements[self.index[wt]]

    def times_reflection(self, w, k):
        """The id of w s_beta for the k-th positive root beta."""
        right = self.right
        for i in self._reflection_words[k]:
            w = right[w][i - 1]
        return w

    def reflect(self, root):
        """s_beta as a group element, for any root beta."""
        if self.cartan.root_sign(root) < 0:
            root = vec_neg(root)
        return self.elements[self.reflections[self.cartan._root_index[root]]]

    def _descent(self, w):
        """Smallest 0-based i with l(w s_{i+1}) < l(w); w is not e."""
        lengths = self.lengths
        return next(i for i, ws in enumerate(self.right[w])
                    if lengths[ws] < lengths[w])

    def _word(self, w):
        """The greedy smallest-descent reduced word of the element id w."""
        word = []
        length = self.lengths[w]
        while self.lengths[w] > 0:
            i = self._descent(w)
            word.append(i + 1)
            w = self.right[w][i]
        word.reverse()
        if len(word) != length:
            raise InvariantError("reduced word of the wrong length")
        return tuple(word)

    def reduced_word(self, w):
        """One reduced word of w, recovered by greedy descent."""
        return self._word(w.id)

    def from_word(self, word):
        w = 0
        for i in word:
            w = self.right[w][i - 1]
        return self.elements[w]

    def all_reduced_words(self, w):
        """Every reduced word of w (exhaustive; fine at desk scale)."""
        lengths, right = self.lengths, self.right

        def words(w):
            if lengths[w] == 0:
                return [()]
            return [word + (i + 1,) for i, ws in enumerate(right[w])
                    if lengths[ws] < lengths[w] for word in words(ws)]

        return words(w.id)

    def bruhat_leq(self, v, w):
        """Strong Bruhat order by the lifting property: for a right
        descent s of w, v <= w iff min(v, vs) <= ws."""
        lengths, right = self.lengths, self.right
        v, w = v.id, w.id
        while lengths[v] <= lengths[w]:
            if lengths[w] == 0:
                return True
            i = self._descent(w)
            if lengths[right[v][i]] < lengths[v]:
                v = right[v][i]
            w = right[w][i]
        return False


@lru_cache(maxsize=None)
def build_weyl_group(cartan, cap=DEFAULT_WEYL_CAP):
    return WeylGroup(cartan, cap)


def reflect(cartan, root):
    """The reflection s_beta in the finite Weyl group."""
    return build_weyl_group(cartan).reflect(root)


def bruhat_leq(cartan, v, w):
    return build_weyl_group(cartan).bruhat_leq(v, w)


class QuantumBruhatGraph:
    """Directed graph on W_0 with up (Bruhat cover) and down (quantum) edges,
    each labeled by the positive root of its reflection."""

    def __init__(self, cartan, cap=DEFAULT_WEYL_CAP):
        self.cartan = cartan
        group = self.group = build_weyl_group(cartan, cap)
        lengths = group.lengths
        pos = cartan.positive_roots_list
        # l(w s_beta) - l(w) on a quantum edge: 1 - 2 <rho, beta^vee>
        quantum_delta = [1 - 2 * cartan.pairing(beta, cartan.rho)
                         for beta in pos]

        edges = {}        # (src_id, root_idx) -> (dst_id, is_down)
        out = [[] for _ in group.elements]
        for src_id in range(len(group)):
            for root_idx in range(len(pos)):
                dst_id = group.times_reflection(src_id, root_idx)
                delta = lengths[dst_id] - lengths[src_id]
                if delta == 1:
                    down = False
                elif delta == quantum_delta[root_idx]:
                    down = True
                else:
                    continue
                edges[(src_id, root_idx)] = (dst_id, down)
                out[src_id].append((root_idx, dst_id, down))
        for lst in out:
            lst.sort(key=lambda t: pos[t[0]])
        self.edges = edges
        self.out = out

    @property
    def vertex_count(self):
        return len(self.group)

    @property
    def edge_count(self):
        return len(self.edges)

    def has_edge(self, src_id, root_idx):
        return self.edges.get((src_id, root_idx))

    def is_strongly_connected(self):
        n = len(self.group)

        def sweep(adj):
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == n

        fwd = [[dst for (_, dst, _) in lst] for lst in self.out]
        back = [[] for _ in range(n)]
        for src, lst in enumerate(self.out):
            for (_, dst, _) in lst:
                back[dst].append(src)
        return sweep(fwd) and sweep(back)

    def to_dot(self):
        pos = self.cartan.positive_roots_list
        lines = ["digraph qbg {"]
        for i, w in enumerate(self.group.elements):
            word = self.group.reduced_word(w)
            label = "e" if not word else "".join("s%d" % j for j in word)
            lines.append('  n%d [label="%s"];' % (i, label))
        for src_id, lst in enumerate(self.out):
            for root_idx, dst_id, down in lst:
                beta = ",".join(str(x) for x in pos[root_idx])
                style = ', style=dashed' if down else ""
                lines.append('  n%d -> n%d [label="%s"%s];'
                             % (src_id, dst_id, beta, style))
        lines.append("}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def build_qbg(cartan, cap=DEFAULT_WEYL_CAP):
    """The quantum Bruhat graph, built once per Cartan type and memoized."""
    return QuantumBruhatGraph(cartan, cap)


def dominantize(cartan, mu, level):
    """Run the level-l affine action until the weight is dominant.

    Simple reflections for i in I_0 act classically; s_0 sends mu to
    s_theta(mu) + l*theta.  Returns (Lambda, word) where Lambda is the
    dominant pair (classical part, level) and word = (i_1, ..., i_k)
    gives the minimal-length w = s_{i_1} ... s_{i_k} with w . Lambda = mu.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    cur = tuple(mu)
    word = []
    guard = 0
    while True:
        neg = None
        for i in range(0, cartan.rank + 1):
            if i == 0:
                p = level - cartan.pairing(cartan.theta, cur)
            else:
                p = cur[i - 1]
            if p < 0:
                neg = i
                break
        if neg is None:
            return (cur, level), tuple(word)
        cur = affine_simple_reflection(cartan, neg, cur, level)
        word.append(neg)
        guard += 1
        if guard > 10 ** 6:
            raise ResourceLimitError("dominantize failed to terminate")


def affine_simple_reflection(cartan, i, mu, level):
    """The level-l action of s_i on a classical weight."""
    if i == 0:
        p = cartan.pairing(cartan.theta, mu)
        s_theta = vec_sub(mu, vec_scale(p, cartan.theta_weight))
        return vec_add(s_theta, vec_scale(level, cartan.theta_weight))
    return vec_sub(mu, vec_scale(mu[i - 1], cartan.simple_root_weight(i)))
