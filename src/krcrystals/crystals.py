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

from .cartan import mat_vec, vec_add, vec_sub
from .errors import AmbiguousAnchorError, InvariantError, ResourceLimitError
from .weyl import node_lines, write_blocks

DEFAULT_NODE_CAP = 10 ** 6

DOT_EDGE_COLORS = {0: "black", 1: "blue", 2: "red"}


class ProductView:
    """A read-only sequence over the mixed-radix product of some lists,
    which it keeps in place of its elements: element x joins the entries
    lists[k][d_k] at the digits d_k of x, rightmost list fastest (the
    itertools.product order).  explore_tensor joins payloads with tuple and
    reprs with " (x) ".join, the string the left fold r + " (x) " + s
    gives.  Int indexing follows list semantics; iteration and == with a
    list or a view never index element by element."""

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
        return self.join([lst[x // stride % len(lst)]
                          for lst, stride in zip(self.lists, self._strides)])

    def __iter__(self):
        return map(self.join, itertools.product(*self.lists))

    def __eq__(self, other):
        if not isinstance(other, (list, ProductView)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


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

    def extremal(self, mode, ids=None):
        """The unique weight-extremal node id ('max' or 'min') among ids
        (ascending; every node when None), or an error.

        The height <mu, rho^vee> (the sum of mu's simple-root coordinates)
        grows strictly along the dominance order, so a qualifying weight has
        the greatest height (least for 'min'), and then every node of that
        height has its weight: only one weight can qualify, and the first
        node of that height is the one candidate.  It qualifies when each of
        its det-scaled root coordinates is the greatest (least) of that
        coordinate over the weights among ids, and each coordinate has one
        residue mod det over them: then it minus every other weight (the
        reverse for 'min') is in Q_0^+.  Coordinates and heights come from
        _root_coords, built once per graph."""
        weights = self.weights
        ids = range(len(weights)) if ids is None else ids
        wts = list(map(weights.__getitem__, ids))
        counts = Counter(wts)
        coords, heights = self._root_coords
        ext = max if mode == "max" else min
        count = 0
        if counts:
            top = ext(counts, key=heights.__getitem__)
            det = self.cartan.det
            if all(ext(col) == h and len({x % det for x in col}) == 1
                   for h, col in zip(coords[top],
                                     zip(*map(coords.__getitem__, counts)))):
                count = min(2, counts[top])
        if count != 1:
            raise AmbiguousAnchorError(
                "no unique %s-weight element (%d candidates)" % (mode, count))
        return ids[wts.index(top)]

    @functools.cached_property
    def _root_coords(self):
        """(adj·mu, sum(adj·mu)) for each distinct weight mu, as two dicts:
        its simple-root coordinates and its height <mu, rho^vee>, both
        scaled by det."""
        coords = {w: mat_vec(self.cartan.adj, w) for w in set(self.weights)}
        return coords, {w: sum(c) for w, c in coords.items()}

    def anchors(self):
        """The extremal node id of each mode that has a unique one."""
        out = {}
        for mode in ("max", "min"):
            try:
                out[mode] = self.extremal(mode)
            except AmbiguousAnchorError:
                pass
        return out

    # -- components ----------------------------------------------------------

    def component_ids(self):
        """The ascending node ids of every weakly connected component, in
        order of their smallest id: one BFS along the successor lists from
        each node not yet seen."""
        seen = [False] * len(self.nodes)
        steps = [*self.fs.values(), *self.es.values()]
        out = []
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:  # grows while it is walked
                for step in steps:
                    w = step[v]
                    if w is not None and not seen[w]:
                        seen[w] = True
                        comp.append(w)
            out.append(sorted(comp))
        return out

    # -- serialization ---------------------------------------------------------------

    def to_json(self, fh, chain=None):
        """Write the graph as JSON to the open text file fh, block by block:
        the nodes, the edges in edges_sorted order and the anchors, found
        before the first write, as json.dumps writes the dict of the three
        with separators (",", ":") and ensure_ascii=False.  With a
        lambda-chain (the alcove export), each node also has its subset as
        "J", and the chain's roots close the object as "chain".  A block's
        node items are one % over its ids, reprs, weights and subsets."""
        closing = '],"anchors":%s' % json.dumps(self.anchors(),
                                                 separators=(",", ":"))
        item = ',{"id":%d,"repr":"%s","wt":%s}'
        wt = {w: _int_list(w) for w in set(self.weights)}  # each array once
        fields = [_labels(self.reprs, _json_escape),
                  map(wt.__getitem__, self.weights)]
        if chain is not None:
            closing += ',"chain":%s' % json.dumps(chain.roots,
                                                  separators=(",", ":"))
            item = ',{"id":%d,"repr":"%s","wt":%s,"J":%s}'
            fields.append(map(_int_list, self.nodes))
        write_blocks(fh, len(self.nodes), [
            '{"nodes":[', node_lines(item, fields), '],"edges":[',
            self._edge_lines(',{"src":', ',"dst":', lambda c: ',"color":%d}'
                             % c), closing + "}\n"], sep=",")

    def to_dot(self, fh):
        """Write the graph as DOT to the open text file fh, block by block:
        the node lines, one % over a block's ids and labels (the reprs as
        _labels escapes them), then the edge lines by source node."""
        colors = {c: ", color=" + name for c, name in DOT_EDGE_COLORS.items()}
        write_blocks(fh, len(self.nodes), [
            "digraph crystal {\n", node_lines('  n%d [label="%s"];\n', [
                _labels(self.reprs, _dot_escape)]),
            self._edge_lines("  n", " -> n", lambda c: ' [label="%d"%s];\n'
                             % (c, colors.get(c, ""))), "}\n"])

    def _edge_lines(self, left, right, tail):
        """The export part that gives a block's edge lines by source and
        color, a c-edge src -> dst as left, src, right, dst, tail(c), in one
        join: each source's head and each color's tail is built once."""
        rows = [(self.fs[c], tail(c)) for c in sorted(self.colors)]

        def edge_lines(ids):
            lines = []
            for src in ids:
                head = f"{left}{src}{right}"
                for fc, end in rows:
                    if (dst := fc[src]) is not None:
                        lines.append(f"{head}{dst}{end}")
            return "".join(lines)
        return edge_lines


# a repr as DOT label text, and as JSON string text without the quotes
_dot_escape = operator.methodcaller("replace", '"', r'\"')


def _json_escape(r):
    return encode_basestring(r)[1:-1]


def _labels(reprs, escape):
    """The reprs, escaped as they are read.  A ProductView's are joined from
    its lists escaped once per element: an escape maps each character on
    its own, and " (x) " holds nothing it changes."""
    if not isinstance(reprs, ProductView):
        return map(escape, reprs)
    return iter(ProductView([list(map(escape, lst)) for lst in reprs.lists],
                            reprs.join))


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
    never removed; statistics come from the unfiltered graph.  The result
    shares the other colors' f and e lists and copies f_0 and e_0, each
    dropped edge cleared in both; its constructor audits every color."""
    if mode not in ("head", "tail"):
        raise ValueError("mode must be 'head' or 'tail'")
    if level < 1:
        raise ValueError("level must be >= 1")
    eps0, phi0 = graph._string_stats(0)
    f0, e0 = list(graph.fs[0]), list(graph.es[0])
    for src, dst in enumerate(graph.fs[0]):
        if dst is not None and (eps0[dst] <= level if mode == "head"
                                else phi0[dst] < level):
            f0[src] = e0[dst] = None
    return CrystalGraph(graph.cartan, graph.colors, graph.nodes,
                        {**graph.fs, 0: f0}, graph.weights, graph.reprs,
                        affine_complete=False, es={**graph.es, 0: e0})


def components(graph):
    """The weakly connected components as (graph, ids) pairs, ids the
    ascending node ids of one component, sorted by (size, weight multiset,
    first id).  A component is read in place: no graph is copied."""
    weights = graph.weights
    comps = graph.component_ids()
    comps.sort(key=lambda ids: (len(ids), sorted(map(weights.__getitem__,
                                                     ids)), ids[0]))
    return [(graph, ids) for ids in comps]


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(g1, g2, mapping, ids1=None, ids2=None):
    """The one audit behind every comparison of crystals: mapping is a
    bijection of ids1 onto ids2 (all node ids when None) commuting with
    every f_i and e_i and preserving weights.  ids1 and ids2 are closed
    under the edges, as a component is."""
    ids1 = range(len(g1)) if ids1 is None else ids1
    ids2 = range(len(g2)) if ids2 is None else ids2
    image = set(mapping.values())
    if g1.colors != g2.colors or mapping.keys() != set(ids1) \
            or len(image) != len(mapping) or image != set(ids2):
        return False
    steps = _steps(g1, g2)
    # mapping is total, so .get gives None only for a missing edge
    return all(g1.weights[x] == g2.weights[y]
               and all(mapping.get(s1[x]) == s2[y] for s1, s2 in steps)
               for x, y in mapping.items())


def _steps(g1, g2):
    """The (g1 list, g2 list) pair of every f_c and e_c, color by color."""
    return [pair for c in g1.colors
            for pair in ((g1.fs[c], g2.fs[c]), (g1.es[c], g2.es[c]))]


def iso_check(g1, g2, anchor_mode="min", ids1=None, ids2=None):
    """Forced-map isomorphism between connected crystals: the components
    ids1 of g1 and ids2 of g2, or the whole graphs where they are None.

    The unique extremal-weight anchors are matched and the map is grown
    edge-by-edge (at most one i-edge leaves a node, so it is forced),
    stopping early only at a forced edge with no partner; the audit
    verify_isomorphism rejects every other difference.  Returns the
    id-level bijection, or None if the components differ.  Ambiguous
    anchors raise AmbiguousAnchorError."""
    ids1 = range(len(g1)) if ids1 is None else ids1
    ids2 = range(len(g2)) if ids2 is None else ids2
    return _forced_map(g1, ids1, g1.extremal(anchor_mode, ids1),
                       g2, ids2, g2.extremal(anchor_mode, ids2))


def _forced_map(g1, ids1, a1, g2, ids2, a2):
    """iso_check's map grown from anchors a1 and a2 and audited, or None."""
    if len(ids1) != len(ids2) or g1.colors != g2.colors:
        return None
    steps = _steps(g1, g2)
    mapping = {a1: a2}
    queue = [(a1, a2)]
    while queue:
        x, y = queue.pop()
        for s1, s2 in steps:
            x1 = s1[x]
            if x1 is not None and x1 not in mapping:
                y1 = s2[y]
                if y1 is None:
                    return None
                mapping[x1] = y1
                queue.append((x1, y1))
    return mapping if verify_isomorphism(g1, g2, mapping, ids1, ids2) \
        else None


def match_components(comps1, comps2, anchor_mode):
    """Pair up two lists of (graph, ids) components by forced-map
    isomorphism.

    Components are grouped by (size, anchor weight, weight multiset), each
    anchor found once, and each group is sorted into isomorphism classes by
    growing the forced map from a component to one representative per
    class.  On this equivalence relation a class's comps1 members
    (ascending) pair with its comps2 members (descending), as the
    augmenting-path matching over all pairs it replaces did, so reported
    pairs stay the same.  Returns the sorted index pairs, or None when no
    perfect matching exists.  A group of components with no unique anchor
    raises its AmbiguousAnchorError once two of them are compared."""
    if len(comps1) != len(comps2):
        return None

    sides = ([], [])  # (graph, ids, anchor id or error) per component
    groups = ({}, {})
    for comps, found, out in zip((comps1, comps2), sides, groups):
        for idx, (g, ids) in enumerate(comps):
            try:
                a = g.extremal(anchor_mode, ids)
                wt = g.weights[a]
            except AmbiguousAnchorError as err:
                a, wt = err, None
            found.append((g, ids, a))
            key = (len(ids), wt, tuple(sorted(map(g.weights.__getitem__,
                                                  ids))))
            out.setdefault(key, []).append(idx)
    if set(groups[0]) != set(groups[1]):
        return None

    def isomorphic(rep, comp):
        if isinstance(rep[2], AmbiguousAnchorError):
            raise rep[2]  # and so has every component of its group
        return _forced_map(*rep, *comp) is not None

    pairs = []
    for k in sorted(groups[0], key=repr):
        if len(groups[0][k]) != len(groups[1][k]):
            return None
        classes = []  # (representative, (comps1 ids, comps2 ids)) per class
        for side, found in enumerate(sides):
            for i in groups[side][k]:
                cls = next((cls for cls in classes
                            if isomorphic(cls[0], found[i])), None)
                if cls is None:
                    cls = (found[i], ([], []))
                    classes.append(cls)
                cls[1][side].append(i)
        for _, (left, right) in classes:
            if len(left) != len(right):
                return None
            pairs.extend(zip(left, reversed(right)))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# miscellaneous crystal operations


def hw_census(graph, index_set, ids=None):
    """Sorted multiset of weights of the nodes among ids (every node when
    None) killed by e_i for all i given: each color's e list filters the
    ids the colors before it kept."""
    ids = range(len(graph)) if ids is None else ids
    for c in index_set:
        ec = graph.es[c]
        ids = [i for i in ids if ec[i] is None]
    return sorted(tuple(graph.weights[i]) for i in ids)


def trivial_crystal(cartan, colors):
    """The one-node crystal of weight 0, affine-complete: phi_i - eps_i = 0
    = <alpha_i^vee, 0> for every color."""
    return CrystalGraph(cartan, colors, [()], {}, [(0,) * cartan.rank],
                        ["[]"], affine_complete=True)
