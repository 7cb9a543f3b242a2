"""Finite Weyl groups, Bruhat order, the quantum Bruhat graph, and the
level-l affine dominantization used by the Demazure decomposition checks.

A Weyl group element is an integer id into its WeylGroup's tables (signed
root permutations, lengths, the right-multiplication table and each
element's smallest right descent); the QBG's vertices are the same
ids, and its edge rule reads the group's length table.  The QBG export works
on whole columns: one column w -> w s_beta per positive root, with each
edge's kind, for the edges and their count, and one pass over the descent
table for every vertex's reduced word."""

from functools import cached_property, lru_cache
from itertools import groupby
from math import prod
from operator import itemgetter, neg, sub

from .cartan import identity_matrix, vec_add, vec_neg, vec_scale, vec_sub
from .errors import InvariantError, ResourceLimitError

DEFAULT_WEYL_CAP = 10 ** 5

# nodes per write of the streamed exports (DOT and JSON): the text held at
# once is one block's, not the whole graph's
EXPORT_BLOCK = 256


def write_blocks(fh, n, parts, sep=""):
    """Write an export of nodes 0..n-1 to the open text file fh, part by
    part: a str part as it is, and a callable part(ids), which gives a list
    of strings for a range of node ids, once per EXPORT_BLOCK nodes, each
    block's strings joined by sep in one write.  sep also goes between the
    strings of two blocks, so a part's strings are written as if joined by
    sep in one piece; a block with none writes nothing."""
    ids = range(n)
    for part in parts:
        if isinstance(part, str):
            fh.write(part)
            continue
        lead = ""
        for lo in range(0, n, EXPORT_BLOCK):
            items = part(ids[lo:lo + EXPORT_BLOCK])
            if items:
                fh.write(lead + sep.join(items))
                lead = sep


class WeylGroup:
    """The full finite Weyl group of a CartanData, enumerated once.

    An element is its id, an index 0..|W|-1 into the group's tables:
    roots[w] is its signed root permutation (roots[w][k] = +(j + 1) when
    w(beta_k) = beta_j and -(j + 1) when w(beta_k) = -beta_j, for the
    positive roots beta_0, beta_1, ... of CartanData.positive_roots_list),
    lengths[w] its length, right[i - 1][w] the id of w s_i and descents[w]
    the smallest 0-based i with w(alpha_{i+1}) < 0 (None for the identity);
    weight_matrix(w) reads w's matrix on the fundamental weights off roots[w].

    A group over the cap is refused from |W| before any walk.  The
    breadth-first walk of the Cayley graph keys each element on its signed
    root permutation (faithful: W acts faithfully on the roots), so a step
    w -> w s_i is one index lookup of s_i's table into w's roots and their
    negatives (one shared table).  The walk meets elements by length;
    sorting each length class by the coroots of w^-1(alpha_i), the rows of
    w's weight matrix, gives the ids: the identity is 0, w0 the last id,
    and w s_i has a smaller id than w whenever i is a descent of w.
    reduced_word walks the descent table, so it gives the greedy
    smallest-descent word.  Each s_beta, found in the walk by its signed
    roots, keeps a reduced word, so w s_beta is a few lookups in the right
    table, whose columns w -> w s_i compose along that word to the column
    w -> w s_beta (Bjorner-Brenti, ch. 1-2, 4).
    """

    identity = 0

    def __init__(self, cartan, cap=DEFAULT_WEYL_CAP):
        self.cartan = cartan
        n = cartan.rank
        pos = cartan.positive_roots_list
        m = len(pos)
        # |W| = prod (m_i + 1) = prod (ht beta + 1) / ht beta over beta > 0
        size = prod(sum(beta) + 1 for beta in pos) // prod(map(sum, pos))
        if size > cap:
            raise ResourceLimitError("Weyl group larger than cap %d" % cap)
        ident = tuple(range(1, m + 1))
        negs = (0,) + tuple(map(neg, ident)) + ident[::-1]    # negs[t] = -t
        # sid[root] = +(k + 1) for beta_k and -(k + 1) for -beta_k
        sid = dict(zip(pos, ident))
        sid.update(zip(map(vec_neg, pos), map(neg, ident)))
        # w^-1(alpha_i) has the coroot _cor[t] for the t at which w's roots
        # and then their negatives hold alpha_i's id
        cor = self._cor = (*cartan._coroots, *map(vec_neg, cartan._coroots))
        simple = self._simple = [sid[e] for e in identity_matrix(n)]
        # s_get[i] reads (w s_{i+1})(beta_k) = +-w(beta_j) for every k out of
        # w's signed roots followed by their negatives
        s_get = []
        for i in range(n):
            at = [sid[cartan.simple_reflection_on_root(i + 1, beta)]
                  for beta in pos]
            get = itemgetter(*[t - 1 if t > 0 else m - t - 1 for t in at])
            # itemgetter of one index returns the item, not a 1-tuple
            s_get.append(get if m > 1 else lambda ext, get=get: (get(ext),))

        roots, keys, lengths = [ident], [], [0]
        found = {ident: 0}                  # roots -> discovery number
        steps = [[] for _ in range(n)]      # steps[i][d]: that of w_d s_{i+1}
        for w, length in zip(roots, lengths):
            ext = w + tuple(map(negs.__getitem__, w))
            keys.append(tuple([cor[ext.index(a)] for a in simple]))
            for get, step in zip(s_get, steps):
                ws = get(ext)
                d = found.get(ws)
                if d is None:
                    d = found[ws] = len(roots)
                    roots.append(ws)
                    lengths.append(length + 1)
                step.append(d)
        if len(roots) != size:
            raise InvariantError("|W| = %d, walked %d" % (size, len(roots)))
        # s_beta(beta_k) = beta_k - <beta^vee, beta_k> beta, which is beta_k
        # when the pairing is 0
        wts = [cartan.root_to_weight(bk) for bk in pos]
        reflections = [found[tuple(
            sid[vec_sub(bk, vec_scale(c, beta))]
            if (c := cartan.pairing(beta, wt)) else k
            for k, bk, wt in zip(ident, pos, wts))] for beta in pos]
        del found

        order = []
        for _, same in groupby(range(size), lengths.__getitem__):
            order += sorted(same, key=keys.__getitem__)
        del keys
        ids = sorted(range(size), key=order.__getitem__)    # ids[order[k]] = k
        self.roots = tuple(map(roots.__getitem__, order))
        lengths = self.lengths = tuple(map(lengths.__getitem__, order))
        self.right = tuple(tuple([ids[s[d]] for d in order]) for s in steps)
        if lengths.count(lengths[-1]) != 1:
            raise InvariantError("longest element not unique")
        self.w0 = size - 1
        self.descents = tuple(
            next((i for i, a in enumerate(simple) if r[a - 1] < 0),
                 None) for r in self.roots)
        self._reflection_words = tuple(
            self.reduced_word(ids[d]) for d in reflections)

    def weight_matrix(self, w):
        """w's weight matrix: row i is the coroot of w^-1(alpha_i)."""
        ext = self.roots[w] + tuple(map(neg, self.roots[w]))
        return tuple([self._cor[ext.index(a)] for a in self._simple])

    def __len__(self):
        return len(self.lengths)

    def times_reflection(self, w, k):
        """w s_beta for the k-th positive root beta."""
        right = self.right
        for i in self._reflection_words[k]:
            w = right[i - 1][w]
        return w

    def reflection_column(self, k):
        """(w s_beta for w in the group's ids), for the k-th positive root
        beta: the right-table columns composed along s_beta's word."""
        right = self.right
        first, *rest = self._reflection_words[k]
        column = right[first - 1]
        for i in rest:
            # column[w] -> right[i - 1][column[w]]; |W| >= 2, so the
            # itemgetter returns a tuple
            column = itemgetter(*column)(right[i - 1])
        return column

    def reduced_word(self, w):
        """The greedy smallest-descent reduced word of w, read off the
        descent table."""
        word = []
        length = self.lengths[w]
        descents, right = self.descents, self.right
        while (i := descents[w]) is not None:
            word.append(i + 1)
            w = right[i][w]
        word.reverse()
        if len(word) != length:
            raise InvariantError("reduced word of the wrong length")
        return tuple(word)


@lru_cache(maxsize=None)
def build_weyl_group(cartan, cap=DEFAULT_WEYL_CAP):
    return WeylGroup(cartan, cap)


class QuantumBruhatGraph:
    """Directed graph on W_0 with up (Bruhat cover) and down (quantum) edges,
    each labeled by the positive root of its reflection: w -> w s_beta is an
    edge when l(w s_beta) - l(w) is 1 (up) or 1 - 2 <rho, beta^vee> (down)
    (Brenti-Fomin-Postnikov).  That rule is one table per root, from the
    length difference to the edge kind (0 none, 1 up, 2 down): has_edge
    tests one pair, and on first use by edge_count or the DOT export each
    root's whole column w -> w s_beta is classified at once into one bytes
    of kinds, so a walk that only asks has_edge never builds it."""

    def __init__(self, cartan, cap=DEFAULT_WEYL_CAP):
        self.cartan = cartan
        self.group = build_weyl_group(cartan, cap)
        # _kinds[k][l(w s_beta) - l(w)]: 0 no edge, 1 up, 2 down for the k-th
        # positive root; keys lie in 1-2m..m, negative ones read from the end
        m = len(pos := cartan.positive_roots_list)
        self._kinds = [bytearray(3 * m) for _ in pos]
        for kinds, beta in zip(self._kinds, pos):
            kinds[1], kinds[1 - 2 * cartan.pairing(beta, cartan.rho)] = 1, 2

    @property
    def vertex_count(self):
        return len(self.group)

    @property
    def edge_count(self):
        return sum(len(kinds) - kinds.count(0)
                   for _, _, kinds in self._columns)

    def has_edge(self, src_id, root_idx):
        """(w s_beta, is_down) for the edge w -> w s_beta of the root_idx-th
        positive root beta, or None when there is none."""
        group = self.group
        dst_id = group.times_reflection(src_id, root_idx)
        kind = self._kinds[root_idx][
            group.lengths[dst_id] - group.lengths[src_id]]
        return (dst_id, kind == 2) if kind else None

    @cached_property
    def _columns(self):
        """(root_idx, (w s_beta for every w), the bytes of the kinds of
        the edges w -> w s_beta (0 none, 1 up, 2 down)) for each positive
        root beta, in the sorted order of the roots."""
        group = self.group
        lengths = group.lengths
        pos = self.cartan.positive_roots_list
        columns = []
        for k in sorted(range(len(pos)), key=pos.__getitem__):
            column = group.reflection_column(k)
            columns.append((k, column, bytes(map(
                self._kinds[k].__getitem__,
                map(sub, itemgetter(*column)(lengths), lengths)))))
        return columns

    def is_strongly_connected(self):
        """Does the identity reach every vertex along the edges, and along
        them reversed?  Reversed, beta's edge out of v goes to u = v s_beta
        = column[v] when u -> u s_beta = v is an edge (s_beta squares to 1)."""
        def sweep(forward):
            seen, stack = {0}, [0]
            while stack:
                v = stack.pop()
                for _, column, kinds in self._columns:
                    w = column[v]
                    if w not in seen and kinds[v if forward else w]:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == len(self.group)
        return sweep(True) and sweep(False)

    def to_dot(self, fh):
        """Write the graph as DOT to the open text file fh: the vertices,
        labelled by their reduced words, then the edges by source vertex.
        The labels are built in one pass in id order off the descent table,
        word(w) = word(w s_d) + s_d, each step checked against the lengths;
        they are reduced_word's words."""
        group, columns = self.group, self._columns
        lengths, right = group.lengths, group.right
        words = [""] * len(group)
        for w, d in enumerate(group.descents):
            if d is not None:
                ws = right[d][w]
                if lengths[ws] != lengths[w] - 1:
                    raise InvariantError("reduced word of the wrong length")
                words[w] = words[ws] + "s%d" % (d + 1)
        names = ["n%d" % w for w in range(len(group))]
        # each root's edge label by kind, plain (up) and dashed (down), once
        tails = []
        for beta in self.cartan.positive_roots_list:
            label = ",".join(map(str, beta))
            tails.append((None, ' [label="%s"];\n' % label,
                          ' [label="%s", style=dashed];\n' % label))

        def node_lines(ids):
            return ['  %s [label="%s"];\n' % (names[w], words[w] or "e")
                    for w in ids]

        def edge_lines(ids):
            lines = []
            for src in ids:
                head = "  %s -> " % names[src]
                for k, column, kinds in columns:
                    kind = kinds[src]
                    if kind:
                        lines.append(head + names[column[src]]
                                     + tails[k][kind])
            return lines

        write_blocks(fh, len(group),
                     ["digraph qbg {\n", node_lines, edge_lines, "}\n"])


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
    while (i := next((i for i, p in enumerate(
            (level - cartan.pairing(cartan.theta, cur), *cur)) if p < 0),
            None)) is not None:
        if len(word) == 10 ** 6:
            raise ResourceLimitError("dominantize failed to terminate")
        cur = affine_simple_reflection(cartan, i, cur, level)
        word.append(i)
    return (cur, level), tuple(word)


def affine_simple_reflection(cartan, i, mu, level):
    """The level-l action of s_i on a classical weight."""
    if i == 0:
        p = cartan.pairing(cartan.theta, mu)
        s_theta = vec_sub(mu, vec_scale(p, cartan.theta_weight))
        return vec_add(s_theta, vec_scale(level, cartan.theta_weight))
    return vec_sub(mu, vec_scale(mu[i - 1], cartan.simple_root_weight(i)))
