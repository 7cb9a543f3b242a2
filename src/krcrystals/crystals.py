"""Abstract crystal graphs: the signature rule for tensor products (their
payloads and reprs kept as mixed-radix views), Demazure-edge filtrations,
components, isomorphism checking and the highest-weight census.

A crystal graph is an edge-colored weighted digraph; an f_i-edge b -> b'
means f_i(b) = b'.  Colors are 0..n with 0 the affine node.  Weights are
classical (fundamental-weight coordinates); the 0-edge weight rule uses
cl(alpha_0) = -theta.
"""

import functools
import itertools
import json
import math
import operator
from collections import Counter
from json.encoder import encode_basestring

from .cartan import vec_add, vec_sub
from .errors import AmbiguousAnchorError, InvariantError, ResourceLimitError
from .weyl import write_blocks

DEFAULT_NODE_CAP = 10 ** 6

DOT_EDGE_COLORS = {0: "black", 1: "blue", 2: "red"}


def _height(col, weight):
    """The height <weight, rho^vee>, for col the adjugate's column sums."""
    return sum(map(operator.mul, col, weight))


class ProductView:
    """A read-only sequence over the mixed-radix product of some lists,
    which it keeps in place of its elements: element x joins the entries
    lists[k][d_k] at the digits d_k of x, rightmost list fastest (the
    itertools.product order).  explore_tensor joins payloads with tuple and
    reprs with " (x) ".join, the string the left fold r + " (x) " + s
    gives.  Int indexing follows list semantics; iteration, == with a list
    or a view, and pick never index element by element."""

    __slots__ = ("lists", "join", "_len", "_strides")

    def __init__(self, lists, join):
        self.lists = tuple(lists)
        self.join = join
        sizes = [len(lst) for lst in self.lists]
        self._len = math.prod(sizes)
        self._strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]

    def __len__(self):
        return self._len

    def __getitem__(self, x):
        x = operator.index(x)
        if x < 0:
            x += self._len
        if not 0 <= x < self._len:
            raise IndexError("product index out of range")
        return self.pick((x,))[0]

    def __iter__(self):
        return map(self.join, itertools.product(*self.lists))

    def __eq__(self, other):
        if not isinstance(other, (list, ProductView)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def pick(self, ids):
        """[self[x] for x in ids], for ids in range: one list comprehension
        per factor list, then one join per element."""
        cols = []
        for lst, stride in zip(self.lists, self._strides):
            size = len(lst)
            cols.append([lst[x // stride % size] for x in ids])
        return list(map(self.join, zip(*cols)))


def _pick(seq, ids):
    """The elements of a list or a ProductView at the given ids."""
    if isinstance(seq, ProductView):
        return seq.pick(ids)
    return [seq[i] for i in ids]


def _kept(seq):
    """A ProductView as it is, any other iterable as a new list."""
    return seq if isinstance(seq, ProductView) else list(seq)


class CrystalGraph:
    """A fully explored crystal: nodes, per-color successor lists, weights.

    fs[c][b] is f_c(b) and es[c][b] is e_c(b), None where there is no edge.
    The payloads (nodes) and reprs are kept as given when they are
    ProductViews, as explore_tensor and demazure_filter hand them in, and
    copied into lists otherwise; weights are always a list.  Payloads must
    be distinct.  A list is checked for duplicates, a view is not: each of
    its factor graphs passed the check, and a mixed-radix product of
    distinct lists is distinct.
    The constructor keeps the f lists it is given (a color it lacks gets no
    edges) and derives es from them over one list of node ids, so the
    e-entries of every color share one int object per node.
    explore_tensor, kr_typeA and alcove.explore hand in the e lists they
    read off their signature rule, tableaux or height profiles instead,
    one per color.  They are
    kept if every f-edge src -> dst has es[dst] == src and each color has
    as many e-edges as f-edges, which holds exactly when es is the inverse
    of fs, the table derivation would give.
    """

    def __init__(self, cartan, colors, nodes, fs, weights, reprs,
                 affine_complete=False, es=None):
        self.cartan = cartan
        self.colors = tuple(colors)
        self.nodes = _kept(nodes)
        n = len(self.nodes)
        if not isinstance(self.nodes, ProductView) \
                and len(set(self.nodes)) != n:
            raise InvariantError("duplicate payloads")
        self.fs = {c: fs[c] if c in fs else [None] * n for c in self.colors}
        if es is None or not all(_inverts(fc, es[c], n)
                                 for c, fc in self.fs.items()):
            es, given = {}, es
            ids = list(range(n))
            for c, fc in self.fs.items():
                ec = es[c] = [None] * n
                for src, dst in zip(ids, fc):
                    if dst is not None:
                        if ec[dst] is not None:
                            raise InvariantError(
                                "two f_%d-edges into one node" % c)
                        ec[dst] = src
            if given is not None:  # fs is injective, so some color differs
                c = next(c for c in self.colors if es[c] != given[c])
                x = next((x for x, (a, b) in enumerate(zip(es[c], given[c]))
                          if a != b), min(n, len(given[c])))
                raise InvariantError("e_%d is not the inverse of f_%d at "
                                     "node %d" % (c, c, x))
        self.es = {c: es[c] for c in self.colors}
        self.weights = list(weights)
        self.reprs = _kept(reprs)
        self.affine_complete = affine_complete
        self._stats = {}

    @functools.cached_property
    def index(self):
        """Payload -> node id, built on first use."""
        return {b: i for i, b in enumerate(self.nodes)}

    # -- basic queries -------------------------------------------------------

    def __len__(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return sum(len(fc) - fc.count(None) for fc in self.fs.values())

    def f(self, node_id, color):
        return self.fs[color][node_id]

    def e(self, node_id, color):
        return self.es[color][node_id]

    def weight(self, node_id):
        return self.weights[node_id]

    def edges_sorted(self):
        colors = sorted(self.colors)
        return [(src, c, dst) for src in range(len(self.nodes))
                for c in colors if (dst := self.fs[c][src]) is not None]

    def edges_of_color(self, color):
        return [(src, dst) for src, dst in enumerate(self.fs[color])
                if dst is not None]

    # -- string statistics -----------------------------------------------------

    def _string_stats(self, color):
        stats = self._stats.get(color)
        if stats is None:
            n = len(self.nodes)
            fc = self.fs[color]
            eps = [0] * n
            phi = [0] * n
            for top, up in enumerate(self.es[color]):
                if up is not None:
                    continue
                chain = [top]
                while (nxt := fc[chain[-1]]) is not None:
                    chain.append(nxt)
                last = len(chain) - 1
                for depth, node in enumerate(chain):
                    eps[node] = depth
                    phi[node] = last - depth
            stats = (eps, phi)
            self._stats[color] = stats
        return stats

    def eps(self, node_id, color):
        return self._string_stats(color)[0][node_id]

    def phi(self, node_id, color):
        return self._string_stats(color)[1][node_id]

    # -- structural checks -------------------------------------------------------

    def seminormal(self):
        """Return a list of axiom violations (empty iff the graph is fine).

        Checks the edge/weight rule for every color (with cl(alpha_0) =
        -theta), and phi_i = eps_i + <alpha_i^vee, wt> for the classical
        colors; the i = 0 pairing is checked only on affine-complete
        graphs, since head/tail filtration deliberately breaks it.
        """
        bad = []
        ct = self.cartan
        for src, c, dst in self.edges_sorted():
            if c == 0:
                expect = vec_add(self.weights[src], ct.theta_weight)
            else:
                expect = vec_sub(self.weights[src], ct.simple_root_weight(c))
            if self.weights[dst] != expect:
                bad.append("weight rule fails on %d -%d-> %d" % (src, c, dst))
        for c in self.colors:
            if c == 0 and not self.affine_complete:
                continue
            eps, phi = self._string_stats(c)
            for i in range(len(self.nodes)):
                if c == 0:
                    pair = -ct.pairing(ct.theta, self.weights[i])
                else:
                    pair = self.weights[i][c - 1]
                if phi[i] - eps[i] != pair:
                    bad.append("axiom (1) fails at node %d color %d" % (i, c))
        return bad

    # -- anchors ---------------------------------------------------------------

    def extremal(self, mode, heights=None):
        """The unique weight-extremal node id ('max' or 'min'), or an error.

        The height <mu, rho^vee> (the sum of mu's simple-root coordinates,
        one dot product with the column sums of the adjugate) grows strictly
        along the dominance order, so a qualifying weight has the greatest
        height (least for 'min'), and then every node of that height has its
        weight: only one weight can qualify, and the first node of that
        height is the one candidate.  The heights and the Q^+ test run once
        per distinct weight; heights is _weight_heights()'s table, for a
        caller that reads both modes off one."""
        ct = self.cartan
        if heights is None:
            heights = self._weight_heights()
        sign = 1 if mode == "max" else -1
        count = 0
        if heights:
            best = max(sign * h for h, _ in heights.values())
            top, n = next((w, n) for w, (h, n) in heights.items()
                          if sign * h == best)
            if all(ct.dominance_leq(w, top) if sign > 0
                   else ct.dominance_leq(top, w) for w in heights):
                count = min(2, n)
        if count != 1:
            raise AmbiguousAnchorError(
                "no unique %s-weight element (%d candidates)" % (mode, count))
        return self.weights.index(top)

    def _weight_heights(self):
        """Each distinct weight -> (its height <mu, rho^vee>, its number of
        nodes), in order of its first node."""
        col = [sum(c) for c in zip(*self.cartan.adj)]
        return {w: (_height(col, w), n)
                for w, n in Counter(self.weights).items()}

    def anchors(self):
        """The extremal node id of each mode that has a unique one, both
        read off one table of heights."""
        heights = self._weight_heights()
        out = {}
        for mode in ("max", "min"):
            try:
                out[mode] = self.extremal(mode, heights)
            except AmbiguousAnchorError:
                pass
        return out

    # -- derived graphs -----------------------------------------------------------

    def subgraph(self, node_ids):
        ids = sorted(node_ids)
        remap = [None] * len(self.nodes)
        for new, old in enumerate(ids):
            remap[old] = new
        fs = {c: [None if dst is None else remap[dst]
                  for dst in map(fc.__getitem__, ids)]
              for c, fc in self.fs.items()}
        return CrystalGraph(
            self.cartan, self.colors, _pick(self.nodes, ids), fs,
            [self.weights[i] for i in ids], _pick(self.reprs, ids),
            affine_complete=False)

    def _component_walk(self, start, seen, steps):
        """The unseen node ids weakly connected to start, marked seen: a
        BFS along the successor lists steps."""
        seen[start] = True
        comp = [start]
        for v in comp:  # grows while it is walked
            for step in steps:
                w = step[v]
                if w is not None and not seen[w]:
                    seen[w] = True
                    comp.append(w)
        return comp

    def component_ids(self):
        """The ascending node ids of every weakly connected component, in
        order of their smallest id: one pass over the successor lists."""
        seen = [False] * len(self.nodes)
        steps = [*self.fs.values(), *self.es.values()]
        return [sorted(self._component_walk(start, seen, steps))
                for start in range(len(seen)) if not seen[start]]

    def component_of(self, node_id):
        """The component holding node_id, walked from it alone."""
        return self.subgraph(self._component_walk(
            node_id, [False] * len(self.nodes),
            [*self.fs.values(), *self.es.values()]))

    # -- serialization ---------------------------------------------------------------

    def to_json(self, fh, chain=None):
        """Write the graph as JSON to the open text file fh, block by block:
        the nodes, the edges in edges_sorted order and the anchors, found
        before the first write, as json.dumps writes the dict of the three
        with separators (",", ":") and ensure_ascii=False.  With a
        lambda-chain (the alcove export), each node also has its subset as
        "J", and the chain's roots close the object as "chain"."""
        closing = '],"anchors":%s' % json.dumps(self.anchors(),
                                                 separators=(",", ":"))
        if chain is None:
            subsets = itertools.repeat("")
        else:
            closing += ',"chain":%s' % json.dumps(chain.roots,
                                                  separators=(",", ":"))
            subsets = (',"J":' + _int_list(J) for J in self.nodes)
        reprs, weights = iter(self.reprs), self.weights
        # each distinct weight's array and each color's edge ending, once
        wt = {w: _int_list(w) for w in set(weights)}
        tails = [(self.fs[c], ',"color":%d}' % c)
                 for c in sorted(self.colors)]

        def node_items(ids):
            return ['{"id":%d,"repr":%s,"wt":%s%s}'
                    % (i, encode_basestring(r), wt[weights[i]], J)
                    for i, r, J in zip(ids, reprs, subsets)]

        def edge_items(ids):
            return [f'{{"src":{src},"dst":{dst}{tail}' for src in ids
                    for fc, tail in tails if (dst := fc[src]) is not None]

        write_blocks(fh, len(self.nodes), ['{"nodes":[', node_items,
                                           '],"edges":[', edge_items,
                                           closing + "}\n"], sep=",")

    def to_dot(self, fh):
        """Write the graph as DOT to the open text file fh, block by block:
        the node lines, then the edge lines by source node."""
        reprs = iter(self.reprs)  # node_lines takes the ids block by block
        # each color's edge attributes, formatted once
        tails = []
        for c in sorted(self.colors):
            color = DOT_EDGE_COLORS.get(c)
            attr = ', color=%s' % color if color else ""
            tails.append((self.fs[c], ' [label="%d"%s];\n' % (c, attr)))

        def node_lines(ids):
            return ['  n%d [label="%s"];\n' % (i, r.replace('"', r'\"'))
                    for i, r in zip(ids, reprs)]

        def edge_lines(ids):
            return [f"  n{src} -> n{dst}{tail}" for src in ids
                    for fc, tail in tails if (dst := fc[src]) is not None]

        write_blocks(fh, len(self.nodes), ["digraph crystal {\n", node_lines,
                                           edge_lines, "}\n"])


def _int_list(values):
    """The JSON array of some ints, with no spaces."""
    return "[%s]" % ",".join(["%d"] * len(values)) % tuple(values)


def _inverts(fc, ec, n):
    """Does ec invert fc: n entries, ec[dst] == src on every f-edge src ->
    dst, and as many e-edges as f-edges, so no other e-edge?"""
    if len(ec) != n or ec.count(None) != fc.count(None):
        return False
    for src, dst in enumerate(fc):
        if dst is not None and ec[dst] != src:
            return False
    return True


def graphs_equal(g1, g2):
    """Node-for-node equality: same payloads, colors, weights and colored
    edges, i.e. the payload-identity map passes verify_isomorphism."""
    return set(g1.nodes) == set(g2.nodes) and verify_isomorphism(
        g1, g2, {i: g2.index[b] for i, b in enumerate(g1.nodes)})


# ---------------------------------------------------------------------------
# tensor products via the signature rule


def _extend(values, block):
    """The concatenated blocks block(v) for v in values, with block called
    once per distinct v (and equal results shared)."""
    blocks = {v: block(v) for v in set(values)}
    return list(itertools.chain.from_iterable(map(blocks.__getitem__, values)))


def _signature_block(state, rows):
    """One level of the signature rule as a left fold.  Each factor adds
    phi '-' then eps '+', and a '-' cancels the nearest surviving '+' to its
    left; f acts at the rightmost surviving '-', e at the leftmost
    surviving '+'.  The state of a prefix, (surviving '+' count, f offset,
    e offset), is extended by each row (phi, eps, f offset, e offset) of
    the next factor.  An offset of 0 means no edge (an edge never has
    offset 0).  The e offset is reset to 0 once no '+' survives, so it is
    nonzero exactly where e acts, and prefixes that agree on where f and e
    act share one state."""
    plus, df, de = state
    out = []
    for phi, eps, f_off, e_off in rows:
        left = phi - plus
        if left > 0:
            p, f = 0, f_off
        else:
            p, f = -left, df
        if eps:
            e = de if p else e_off
            p += eps
        else:
            e = de if p else 0
        out.append((p, f, e))
    return out


def explore_tensor(cartan, factors, node_cap=DEFAULT_NODE_CAP):
    """The full tensor product of explored factor crystals, leftmost factor
    first: the library's one implementation of the signature rule.

    Node x is the tuple of factor payloads at mixed-radix position x
    (rightmost factor fastest, the itertools.product order).  For each
    color the rule runs level by level, not once per node: the fold state
    of a prefix of length k is (surviving '+' count, f offset, e offset),
    the offset of an operator being stride_j·(f_c(i) − i), or e_c, for the
    factor j and id i it acts on.  Level k + 1 extends every state by one
    row (phi_i, eps_i, f offset, e offset) per id i of factor k + 1;
    prefixes with equal states extend alike, so each distinct state of a
    level is folded once.  After the last factor, f_c(x) = x + f offset and
    e_c(x) = x + e offset, where nonzero, each written as the element of
    one list of node ids, so the product holds one int object per node, not
    one per edge.  The e lists go to CrystalGraph, which keeps them only if
    they invert the f lists, as deriving them would.  Weights come from a
    prefix product of the factors' lists.  Payloads and reprs are two
    ProductViews over the factors' lists, made as they are read, never one
    object per node up front.  The product is affine-complete when every
    factor is.  ValueError for no factors or mixed color sets,
    ResourceLimitError above node_cap, InvariantError, naming the first
    node where the two tables differ, if e does not invert f."""
    if not factors:
        raise ValueError("a tensor product needs at least one factor")
    colors = factors[0].colors
    if any(g.colors != colors for g in factors):
        raise ValueError("factors with different color sets")
    sizes = [len(g) for g in factors]
    total = math.prod(sizes)
    if total > node_cap:
        raise ResourceLimitError("tensor product of %d elements exceeds "
                                 "node cap %d" % (total, node_cap))
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    ids = list(range(total))  # every edge entry is one of these
    fs, es = {}, {}
    for c in colors:
        states = [(0, 0, 0)]
        for g, stride in zip(factors, strides):
            eps, phi = g._string_stats(c)
            rows = [(phi[i], eps[i], 0 if f is None else stride * (f - i),
                     0 if e is None else stride * (e - i))
                    for i, (f, e) in enumerate(zip(g.fs[c], g.es[c]))]
            states = _extend(states, lambda s: _signature_block(s, rows))
        fs[c] = [ids[x + f] if f else None
                 for x, (_, f, _) in zip(ids, states)]
        es[c] = [ids[x + e] if e else None
                 for x, (_, _, e) in zip(ids, states)]
    weights = factors[0].weights
    for g in factors[1:]:
        weights = _extend(weights, lambda w: [tuple(map(operator.add, w, v))
                                              for v in g.weights])
    return CrystalGraph(cartan, colors,
                        ProductView([g.nodes for g in factors], tuple), fs,
                        weights,
                        ProductView([g.reprs for g in factors], " (x) ".join),
                        affine_complete=all(g.affine_complete
                                            for g in factors), es=es)


# ---------------------------------------------------------------------------
# Demazure-edge filtrations


def demazure_filter(graph, level, mode):
    """Drop the 0-edges in the length-l head (mode='head', giving the
    level-l Demazure subcrystal) or keep only those at depth >= l from the
    bottom of their 0-string (mode='tail', the dual version).  Nodes are
    never removed; statistics come from the unfiltered graph."""
    if mode not in ("head", "tail"):
        raise ValueError("mode must be 'head' or 'tail'")
    if level < 1:
        raise ValueError("level must be >= 1")
    eps0, phi0 = graph._string_stats(0)
    fs = {c: list(fc) for c, fc in graph.fs.items()}
    f0 = fs[0]
    for src, dst in enumerate(f0):
        if dst is not None and (eps0[dst] <= level if mode == "head"
                                else phi0[dst] < level):
            f0[src] = None
    return CrystalGraph(graph.cartan, graph.colors, graph.nodes, fs,
                        graph.weights, graph.reprs, affine_complete=False)


def components(graph):
    """Weakly connected components, sorted by (size, weight multiset)."""
    comps = graph.component_ids()

    def key(ids):
        return (len(ids), sorted(graph.weights[i] for i in ids), ids[0])
    comps.sort(key=key)
    return [graph.subgraph(ids) for ids in comps]


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(g1, g2, mapping):
    """The one audit behind every comparison of crystals: mapping is a
    bijection commuting with every f_i and e_i and preserving weights."""
    if g1.colors != g2.colors or len(mapping) != len(g1) \
            or len(set(mapping.values())) != len(g2):
        return False
    for x, y in mapping.items():
        if g1.weights[x] != g2.weights[y]:
            return False
        for c in g1.colors:
            # mapping is total, so .get gives None only for a missing edge
            if mapping.get(g1.fs[c][x]) != g2.fs[c][y] \
                    or mapping.get(g1.es[c][x]) != g2.es[c][y]:
                return False
    return True


def iso_check(g1, g2, anchor_mode="min"):
    """Forced-map isomorphism between connected crystals.

    The unique extremal-weight anchors are matched and the map is grown
    edge-by-edge (at most one i-edge leaves a node, so it is forced),
    stopping early only at a forced edge with no partner; the audit
    verify_isomorphism rejects every other difference.  Returns the
    id-level bijection, or None if the graphs differ.  Ambiguous anchors
    raise AmbiguousAnchorError."""
    a1, a2 = g1.extremal(anchor_mode), g2.extremal(anchor_mode)
    if len(g1) != len(g2) or g1.colors != g2.colors:
        return None
    mapping = {a1: a2}
    queue = [(a1, a2)]
    while queue:
        x, y = queue.pop()
        for c in g1.colors:
            for x1, y1 in ((g1.fs[c][x], g2.fs[c][y]),
                           (g1.es[c][x], g2.es[c][y])):
                if x1 is not None and x1 not in mapping:
                    if y1 is None:
                        return None
                    mapping[x1] = y1
                    queue.append((x1, y1))
    return mapping if verify_isomorphism(g1, g2, mapping) else None


def match_components(comps1, comps2, anchor_mode):
    """Pair up two lists of components by forced-map isomorphism.

    Components are grouped by (size, anchor weight, weight multiset), and
    each group is sorted into isomorphism classes by comparing a component
    with one representative per class.  On this equivalence relation a
    class's comps1 members (ascending) pair with its comps2 members
    (descending), as the augmenting-path matching over all pairs it
    replaces did, so reported pairs stay the same.  Returns the sorted
    index pairs, or None when no perfect matching exists."""
    if len(comps1) != len(comps2):
        return None

    def key(g):
        try:
            anchor = tuple(g.weight(g.extremal(anchor_mode)))
        except AmbiguousAnchorError:
            anchor = None
        return (len(g), anchor, tuple(sorted(g.weights)))

    groups = ({}, {})
    for comps, out in zip((comps1, comps2), groups):
        for idx, g in enumerate(comps):
            out.setdefault(key(g), []).append(idx)
    if set(groups[0]) != set(groups[1]):
        return None
    pairs = []
    for k in sorted(groups[0], key=repr):
        if len(groups[0][k]) != len(groups[1][k]):
            return None
        classes = []  # (representative, (comps1 ids, comps2 ids)) per class
        for side, comps in enumerate((comps1, comps2)):
            for i in groups[side][k]:
                cls = next((cls for cls in classes if iso_check(
                    cls[0], comps[i], anchor_mode) is not None), None)
                if cls is None:
                    cls = (comps[i], ([], []))
                    classes.append(cls)
                cls[1][side].append(i)
        for _, (left, right) in classes:
            if len(left) != len(right):
                return None
            pairs.extend(zip(left, reversed(right)))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# miscellaneous crystal operations


def hw_census(graph, index_set):
    """Sorted multiset of weights of nodes killed by e_i for all i given:
    each color's e list filters the ids the colors before it kept."""
    ids = range(len(graph))
    for c in index_set:
        ec = graph.es[c]
        ids = [i for i in ids if ec[i] is None]
    return sorted(tuple(graph.weights[i]) for i in ids)


def trivial_crystal(cartan, colors):
    """The one-node crystal of weight 0, affine-complete: phi_i - eps_i = 0
    = <alpha_i^vee, 0> for every color."""
    return CrystalGraph(cartan, colors, [()], {}, [(0,) * cartan.rank],
                        ["[]"], affine_complete=True)
