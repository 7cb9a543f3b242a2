import gc
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (GraphSource, NonReducedWordError, TensorProduct,
                     WriteLog, alcove_json_oracle, all_reduced_words,
                     bruhat_leq, classical_restriction, component_graph,
                     component_graphs, component_ids_oracle,
                     crystal_dot_oracle, crystal_json_oracle,
                     decomposes_into_demazure, demazure_subset, dot_text,
                     explore, extremal_oracle, fundamentals,
                     highest_weight_node, is_connected, json_text,
                     match_components_oracle, similarity_check,
                     stembridge_violations, subgraph_oracle, two_factor_e,
                     two_factor_f, weyl_action)
from krcrystals.alcove import alcove_crystal, hw_crystal
from krcrystals.cartan import build_cartan, mat_vec
from krcrystals.crystals import (CrystalGraph, components, demazure_filter,
                                 explore_tensor, graphs_equal,
                                 hw_census, iso_check, match_components,
                                 trivial_crystal, verify_isomorphism)
from krcrystals.experiments import (build_factor, build_filtered,
                                   build_tensor, max_weight)
from krcrystals.errors import (AmbiguousAnchorError, InvariantError,
                               NonDominantWeightError, ResourceLimitError)
from krcrystals.kr import fixture_C2, kr_C_onebox, kr_typeA
from krcrystals import crystals, weyl
from krcrystals.weyl import build_weyl_group

A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
C2 = build_cartan("C", 2)
D4 = build_cartan("D", 4)
A4 = build_cartan("A", 4)
D5 = build_cartan("D", 5)


def c2_tensor():
    box = kr_C_onebox(2)
    return TensorProduct([box, box])


# ---------------------------------------------------------------------------
# signature rule


def test_tensor_f_figure_edges():
    t = c2_tensor()
    assert t.f((1, 1), 1) == (1, 2)
    assert t.f((1, 2), 1) == (2, 2)


def test_tensor_f_none_on_empty_signature():
    t = c2_tensor()
    assert t.f((2, 1), 1) is None      # '+-' cancels
    assert t.e((-1, 1), 1) is None     # same cancellation for e


def test_tensor_stats_match_string_walks():
    # eps/phi from the reduced signature against chain walking on the
    # explored graph
    t = TensorProduct([kr_typeA(2, 1, 1), kr_typeA(2, 1, 1)])
    graph = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 1, 1)])
    for b in t.all_elements():
        i = graph.index[b]
        for c in t.colors:
            assert t.eps(b, c) == graph.eps(i, c)
            assert t.phi(b, c) == graph.phi(i, c)


@pytest.mark.parametrize("factors", [
    lambda: [kr_C_onebox(2), kr_C_onebox(2)],
    lambda: [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)],
])
def test_two_factor_closed_form_agrees_with_signature(factors):
    g2, g1 = factors()
    t = TensorProduct([g2, g1])
    for b in t.all_elements():
        for c in t.colors:
            assert t.f(b, c) == two_factor_f(g2, g1, b, c)
            assert t.e(b, c) == two_factor_e(g2, g1, b, c)


def test_tensor_associativity_all_triples():
    pool = {"11": kr_typeA(2, 1, 1), "21": kr_typeA(2, 2, 1)}
    for names in itertools.product(pool, repeat=3):
        g3, g2, g1 = (pool[k] for k in names)
        flat = TensorProduct([g3, g2, g1])
        left = TensorProduct([explore_tensor(A2, [g3, g2]), g1])
        right = TensorProduct([g3, explore_tensor(A2, [g2, g1])])

        def from_left(b):
            return None if b is None else (b[0][0], b[0][1], b[1])

        def from_right(b):
            return None if b is None else (b[0], b[1][0], b[1][1])

        for b in flat.all_elements():
            bl = ((b[0], b[1]), b[2])
            br = (b[0], (b[1], b[2]))
            for c in flat.colors:
                want_f = flat.f(b, c)
                assert from_left(left.f(bl, c)) == want_f
                assert from_right(right.f(br, c)) == want_f
                want_e = flat.e(b, c)
                assert from_left(left.e(bl, c)) == want_e
                assert from_right(right.e(br, c)) == want_e


# ---------------------------------------------------------------------------
# exploration


def test_explore_trivial():
    g = trivial_crystal(A2, A2.index_set)
    assert len(g) == 1 and g.edge_count == 0


def test_explore_c2_tensor_size():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    assert len(graph) == 16


def test_explore_single_seed_closure():
    # the full affine tensor is the closure of 1 (x) 1 alone
    graph = explore(C2, c2_tensor(), [(1, 1)])
    assert len(graph) == 16


def test_explore_numbering_is_bfs_colors_ascending():
    graph = explore(A2, GraphSource(kr_typeA(2, 1, 1)), [((1,),)],
                    affine_complete=True)
    # from [[1]]: color 0 gives e_0 -> [[3]] first, then color 1 f_1 -> [[2]]
    assert [graph.reprs[i] for i in range(3)] == ["[[1]]", "[[3]]", "[[2]]"]


class OneColorSource:
    """A source with the one color 1, whose f and e are the given dicts."""

    colors = (1,)

    def __init__(self, f, e):
        self._f, self._e = f, e

    def f(self, b, color):
        return self._f.get(b)

    def e(self, b, color):
        return self._e.get(b)

    def weight(self, b):
        return (0, 0)

    def repr_of(self, b):
        return b


# an f_1-edge a -> b needs e_1(b) = a, and an e_1-edge b -> a needs
# f_1(a) = b: the constructor checks the e lists explore reads off
@pytest.mark.parametrize("f,e", [({"a": "b"}, {}), ({}, {"b": "a"})],
                         ids=["f-without-e", "e-without-f"])
def test_explore_rejects_f_and_e_that_are_not_inverse(f, e):
    with pytest.raises(InvariantError, match="e_1 is not the inverse"):
        explore(A2, OneColorSource(f, e), ["a", "b"])


def test_explore_a2_mixed_tensor_size():
    graph = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)])
    assert len(graph) == 9


def test_explore_node_cap():
    box = kr_C_onebox(2)
    with pytest.raises(ResourceLimitError):
        explore(C2, TensorProduct([box, box]), [(1, 1)], node_cap=5)


def test_explore_node_cap_counts_seeds():
    t = c2_tensor()
    with pytest.raises(ResourceLimitError):
        explore(C2, t, t.all_elements(), node_cap=15)
    assert len(explore(C2, t, t.all_elements(), node_cap=16)) == 16


def test_explore_tensor_node_cap_is_checked_up_front():
    box = kr_C_onebox(2)
    with pytest.raises(ResourceLimitError):
        explore_tensor(C2, [box, box], node_cap=15)
    assert len(explore_tensor(C2, [box, box], node_cap=16)) == 16


def test_explore_tensor_checks_its_factors():
    box = kr_C_onebox(2)
    with pytest.raises(ValueError,
                       match="^a tensor product needs at least one factor$"):
        explore_tensor(C2, [])
    with pytest.raises(ValueError,
                       match="^factors with different color sets$"):
        explore_tensor(C2, [box, classical_restriction(box)])


def test_explore_tensor_is_affine_complete_when_every_factor_is():
    box = kr_C_onebox(2)
    head = demazure_filter(box, 1, "head")
    assert explore_tensor(C2, [box, box]).affine_complete
    assert not explore_tensor(C2, [box, head]).affine_complete
    assert not explore_tensor(C2, [head, box]).affine_complete


def test_explore_tensor_raises_when_e_does_not_mirror_f():
    # a factor whose e_1 list no longer inverts its f_1 list: the fold reads
    # e-edges from it, the constructor derives them from the f-edges
    box = kr_C_onebox(2)
    bad = subgraph_oracle(box, range(len(box)))
    i = next(i for i, j in enumerate(bad.es[1]) if j is not None)
    bad.es[1][i] = i
    with pytest.raises(InvariantError, match="e_1 is not the inverse"):
        explore_tensor(C2, [box, bad])


def random_factor_lists(seed, per_type=4, max_nodes=1500):
    """Distinct (cartan, factor list) cases from random.Random(seed): 2-5
    factors per product in A2, A3 and C3 (type-A rectangles, the C one-box),
    each type's first case with a trivial s = 0 factor, at most max_nodes
    nodes."""
    rng = random.Random(seed)
    pools = {("A", 2): [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)],
             ("A", 3): [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)],
             ("C", 3): [(1, 1), (1, 0)]}
    cases = []
    for (family, n), pool in pools.items():
        cartan = build_cartan(family, n)
        found = []
        while len(found) < per_type:
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
            if not found:
                factors.insert(rng.randint(0, len(factors)), (1, 0))
            graphs = [build_factor(cartan, r, s) for r, s in factors]
            if factors not in found \
                    and math.prod(map(len, graphs)) <= max_nodes:
                found.append(factors)
        cases += [(cartan, factors) for factors in found]
    return cases


RANDOM_CASES = random_factor_lists(10)


def case_id(cartan, factors):
    return "%s-%s" % (cartan.type_name,
                      ":".join("%d,%d" % rs for rs in factors))


def factor_thunk(cartan, factors):
    return lambda: [build_factor(cartan, r, s) for r, s in factors]


@pytest.mark.parametrize("cartan,factors", [
    (C2, lambda: [kr_C_onebox(2), kr_C_onebox(2)]),
    (A2, lambda: [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1), kr_typeA(2, 1, 2)]),
    (build_cartan("A", 3),
     lambda: [kr_typeA(3, 3, 1), kr_typeA(3, 1, 1), kr_typeA(3, 2, 1)]),
] + [pytest.param(ct, factor_thunk(ct, factors), id=case_id(ct, factors))
     for ct, factors in RANDOM_CASES])
def test_explore_tensor_matches_seeded_explore(cartan, factors):
    fs = factors()
    tensor = TensorProduct(fs)
    want = explore(cartan, tensor, tensor.all_elements(),
                   affine_complete=True)
    got = explore_tensor(cartan, fs)
    assert got.nodes == want.nodes
    assert got.weights == want.weights
    assert got.reprs == want.reprs
    assert got.edges_sorted() == want.edges_sorted()
    assert got.fs == want.fs
    assert got.affine_complete


@pytest.mark.parametrize("cartan,factors", RANDOM_CASES,
                         ids=[case_id(*case) for case in RANDOM_CASES])
def test_explore_tensor_edges_match_the_signature_rule(cartan, factors):
    graphs = [build_factor(cartan, r, s) for r, s in factors]
    tensor = TensorProduct(graphs)
    got = explore_tensor(cartan, graphs)
    ids = list(itertools.product(*(range(len(g)) for g in graphs)))
    for x, b in enumerate(ids):
        for c in tensor.colors:
            _, _, k_f, k_e = tensor.signature(b, c)
            for k, step, out in ((k_f, "fs", got.fs[c][x]),
                                 (k_e, "es", got.es[c][x])):
                if k is None:
                    assert out is None
                else:
                    want = list(b)
                    want[k] = getattr(graphs[k], step)[c][b[k]]
                    assert ids[out] == tuple(want)


def entry_objects(tables):
    """The distinct int objects among the non-None entries of the lists."""
    return {id(v) for table in tables for v in table if v is not None}


def test_edge_entries_share_one_int_object_per_node():
    # 729 nodes: ids above 256 are not cached, so each entry written as a
    # fresh sum or enumerate index would be its own object
    graph = explore_tensor(A2, [kr_typeA(2, 1, 1)] * 6)
    assert len(graph) > 257
    assert len(entry_objects([*graph.fs.values(), *graph.es.values()])) \
        <= len(graph)
    derived = demazure_filter(graph, 1, "head")
    assert len(entry_objects(derived.es.values())) <= len(graph)


def test_constructor_keeps_e_lists_that_invert_f():
    es = {1: [None, 0, None], 2: [None] * 3}
    g = CrystalGraph(A2, (1, 2), "abc", {1: [1, None, None]}, [(0, 0)] * 3,
                     list("abc"), es=es)
    assert g.es[1] is es[1] and g.es[2] is es[2]


@pytest.mark.parametrize("fs,es,message", [
    # e_1 names the wrong source of the f_1-edge 0 -> 1
    ({1: [1, None, None]}, {1: [None, 2, None], 2: [None] * 3},
     "e_1 is not the inverse of f_1 at node 1"),
    # an e_1-edge 2 -> 0 with no f_1-edge: only the edge count sees it
    ({1: [1, None, None]}, {1: [None, 0, 0], 2: [None] * 3},
     "e_1 is not the inverse of f_1 at node 2"),
    ({2: [2, 2, None]}, {1: [None] * 3, 2: [None, None, 0]},
     "two f_2-edges into one node"),
], ids=["wrong-source", "e-edge-without-f-edge", "two-f-edges-into-one"])
def test_constructor_rejects_e_lists_that_do_not_invert_f(fs, es, message):
    with pytest.raises(InvariantError, match=message):
        CrystalGraph(A2, (1, 2), "abc", fs, [(0, 0)] * 3, list("abc"), es=es)


TYPE_A_RANDOM_CASES = [case for case in RANDOM_CASES
                       if case[0].family == "A"]


@pytest.mark.parametrize("cartan,factors", TYPE_A_RANDOM_CASES,
                         ids=[case_id(*case) for case in TYPE_A_RANDOM_CASES])
def test_type_a_products_satisfy_stembridge_axioms(cartan, factors):
    graph = explore_tensor(cartan, [build_factor(cartan, r, s)
                                    for r, s in factors])
    assert stembridge_violations(graph) == []


@pytest.mark.parametrize("cartan,lam", [
    (A3, (1, 1, 1)), (A3, (0, 2, 0)), (A3, (2, 0, 1)),
    (D4, (1, 0, 0, 1)), (D4, (0, 1, 0, 0)), (D4, (1, 0, 1, 1)),
    (A4, (1, 0, 1, 0)), (A4, (0, 1, 0, 1)),
    (D5, (0, 1, 0, 0, 0)), (D5, (1, 0, 0, 1, 0))])
def test_alcove_crystals_satisfy_stembridge_axioms(cartan, lam):
    # A_1(Gamma) and its Bruhat-only part B(lambda), each built by its own
    # DFS over the QBG
    assert stembridge_violations(alcove_crystal(cartan, lam)) == []
    assert stembridge_violations(hw_crystal(cartan, lam)) == []


def test_stembridge_oracle_names_its_witnesses():
    # the commuting square a -> b -> d, a -> c -> d (f_1 then f_2, or f_2
    # then f_1) is an A1 x A1 crystal, but in A2 (a_12 = -1) moving up a
    # 1-edge must change phi_2 or eps_2
    square = CrystalGraph(A2, (0, 1, 2), "abcd",
                          {1: [1, None, 3, None], 2: [2, 3, None, None]},
                          [(0, 0)] * 4, list("abcd"))
    bad = stembridge_violations(square)
    assert ("P3", 3, 1, 2) in bad and ("P3", 3, 2, 1) in bad
    # in D4 (a_13 = 0) e_1 and e_3 must commute, but from x = 0 the words
    # e_1 e_3 and e_3 e_1 end at different nodes
    fork = CrystalGraph(D4, range(5), "xpqyz",
                        {1: [None, 0, None, None, 2],
                         3: [None, None, 0, 1, None]},
                        [(0,) * 4] * 5, list("xpqyz"))
    bad = stembridge_violations(fork)
    assert ("P5", 0, 1, 3) in bad and ("P5", 0, 3, 1) in bad


def test_seminormality_of_constructed_crystals():
    graphs = [kr_C_onebox(2), kr_typeA(2, 1, 1), kr_typeA(2, 2, 1),
              kr_typeA(2, 1, 2), kr_typeA(2, 2, 2), kr_typeA(3, 2, 2),
              explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]),
              explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)]),
              fixture_C2("tensor11"), fixture_C2("B12")]
    for g in graphs:
        assert g.seminormal() == []


# ---------------------------------------------------------------------------
# Demazure filtrations and components


def test_filter_removes_all_zero_edges_at_high_level():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    for mode in ("head", "tail"):
        assert demazure_filter(graph, 5, mode).edges_of_color(0) == []


def test_filter_c2_head_single_zero_edge():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    filtered = demazure_filter(graph, 1, "head")
    zero = filtered.edges_of_color(0)
    assert len(zero) == 1
    src, dst = zero[0]
    assert filtered.nodes[src] == (-1, 1) and filtered.nodes[dst] == (1, 1)
    assert graphs_equal(filtered, fixture_C2("tensor11"))


def test_filter_preserves_nodes():
    graph = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 1, 1)])
    filtered = demazure_filter(graph, 1, "tail")
    assert filtered.nodes == graph.nodes
    assert filtered.weights == graph.weights


def test_components_connected_graph():
    g = kr_C_onebox(2)
    assert components(g) == [(g, list(range(len(g))))]


def test_components_of_filtered_c2():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    filtered = demazure_filter(graph, 1, "head")
    comps = components(filtered)
    assert all(g is filtered for g, _ in comps)
    assert [len(ids) for _, ids in comps] == [5, 11]


def test_fixture_b12_single_component():
    comps = components(fixture_C2("B12"))
    assert [len(ids) for _, ids in comps] == [11]


# ---------------------------------------------------------------------------
# isomorphism checking


def test_iso_identity():
    g = fixture_C2("B12")
    mapping = iso_check(g, g, "min")
    assert mapping == {i: i for i in range(len(g))}


def test_iso_example_from_figure():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    comps = components(demazure_filter(graph, 1, "head"))
    g, big = comps[1]
    fb = fixture_C2("B12")
    mapping = iso_check(g, fb, "min", big)
    assert mapping is not None and set(mapping) == set(big)
    assert verify_isomorphism(g, fb, mapping, big)
    # the empty tableau corresponds to -1 (x) 1
    inv = {v: k for k, v in mapping.items()}
    assert g.nodes[inv[fb.index[()]]] == (-1, 1)


def test_iso_rejects_weight_mismatch():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    (g, small), (_, big) = components(demazure_filter(graph, 1, "head"))
    assert iso_check(g, g, "min", small, big) is None


def test_iso_ambiguous_anchor_error():
    bad = CrystalGraph(A2, (1, 2), ["a", "b"], {1: [1, None]},
                       [(1, 0), (0, 1)], ["a", "b"])
    with pytest.raises(AmbiguousAnchorError):
        iso_check(bad, bad, "max")


def _toy(edges, top=(4, 4), n=3):
    """An A2 graph on nodes 0..n-1 with the given (src, color, dst)
    f-edges; node 0 has weight top, the unique maximal one, and every
    other node weight 0."""
    fs = {1: [None] * n, 2: [None] * n}
    for src, c, dst in edges:
        fs[c][src] = dst
    names = [str(i) for i in range(n)]
    return CrystalGraph(A2, (1, 2), names, fs,
                        [top] + [(0, 0)] * (n - 1), names)


# each pair differs in one way that the forced walk does not stop at (no
# forced edge lacks a partner): verify_isomorphism, the audit at its end,
# must reject it
ISO_FAILURES = {
    # g2 also has 1 -1-> 2, where g1 has no 1-edge
    "edge_on_one_side": ([(0, 1, 1), (0, 2, 2)],
                         [(0, 1, 1), (0, 2, 2), (1, 1, 2)]),
    # f_1 and f_2 of the anchor force nodes 1 and 2 onto g2's node 1
    "two_nodes_onto_one": ([(0, 1, 1), (0, 2, 2)],
                           [(0, 1, 1), (0, 2, 1), (1, 1, 2)]),
    # f_1 of the anchor forces node 1 onto 1, and f_2 of it onto 2
    "conflicting_edge": ([(0, 1, 1), (0, 2, 1), (1, 1, 2)],
                         [(0, 1, 1), (0, 2, 2), (1, 1, 2)]),
}


@pytest.mark.parametrize("case", sorted(ISO_FAILURES))
def test_iso_audit_rejects_structural_differences(case):
    edges1, edges2 = ISO_FAILURES[case]
    g1, g2 = _toy(edges1), _toy(edges2)
    assert is_connected(g1) and is_connected(g2)
    assert iso_check(g1, g2, "max") is None
    assert iso_check(g1, g1, "max") is not None


def test_iso_audit_rejects_anchors_of_different_weight():
    edges = [(0, 1, 1), (0, 2, 2)]
    assert iso_check(_toy(edges), _toy(edges, top=(1, 1)), "max") is None


def test_iso_audit_rejects_a_disconnected_g1():
    # node 2 is isolated in both, so the walk from the anchor misses it
    g = _toy([(0, 1, 1)])
    assert not is_connected(g)
    assert iso_check(g, g, "max") is None


def _relabelled(g, order, weights=None, nodes=None):
    """g with its node ids in the given order (and optionally other
    weights or payloads, listed by old id)."""
    new = {old: i for i, old in enumerate(order)}
    fs = {c: [None if fc[old] is None else new[fc[old]] for old in order]
          for c, fc in g.fs.items()}
    weights = weights or g.weights
    nodes = nodes or g.nodes
    return CrystalGraph(g.cartan, g.colors, [nodes[i] for i in order], fs,
                        [weights[i] for i in order],
                        [g.reprs[i] for i in order],
                        affine_complete=g.affine_complete)


@pytest.mark.parametrize("change", ["none", "payload", "weight", "edge"])
def test_graphs_equal_maps_payloads_and_detects_each_difference(change):
    # the ids are reversed, so only the payload map lines the nodes up
    g = kr_typeA(2, 1, 2)
    order = list(reversed(range(len(g))))
    if change == "payload":
        h = _relabelled(g, order, nodes=g.nodes[:-1] + [("other",)])
    elif change == "weight":
        h = _relabelled(g, order, weights=g.weights[:-1] + [(9, 9)])
    elif change == "edge":
        h = _relabelled(demazure_filter(g, 1, "head"), order)
    else:
        h = _relabelled(g, order)
    assert graphs_equal(g, h) == graphs_equal(h, g) == (change == "none")


# ---------------------------------------------------------------------------
# component matching: isomorphism classes against the augmenting-path oracle


def _alcove_and_dual(cartan, lam, level):
    """The components check_alcove_correspondence matches: those of the
    quantum alcove model and of the dual filtration of its columns."""
    cols = [i for i in cartan.classical_index_set for _ in range(lam[i - 1])]
    dual = build_filtered(cartan, [(p, 1) for p in cols], level, "tail")
    return components(alcove_crystal(cartan, lam, level)), components(dual)


# classes of up to four isomorphic components under one key
MATCH_CASES = [(cartan, lam, level) for cartan, lams in (
    (build_cartan("A", 1), [(5,), (6,)]), (A2, [(2, 2), (3, 1), (4, 0)]))
    for lam in lams for level in (2, 3)]


@pytest.mark.parametrize("cartan,lam,level", MATCH_CASES, ids=[
    "%s-%s-l%d" % (ct.type_name, "".join(map(str, lam)), level)
    for ct, lam, level in MATCH_CASES])
def test_match_components_pairs_equal_the_oracle(cartan, lam, level):
    comps_a, comps_b = _alcove_and_dual(cartan, lam, level)
    rng = random.Random(repr((lam, level)))
    for _ in range(3):
        want = match_components_oracle(comps_a, comps_b, "max")
        assert want is not None
        assert match_components(comps_a, comps_b, "max") == want
        rng.shuffle(comps_a)
        rng.shuffle(comps_b)


def test_match_components_unmatched_isomorphism_classes():
    # same key (size, anchor weight, weight multiset), different classes
    (x,) = components(_toy([(0, 1, 1), (0, 2, 2)]))
    (y,) = components(_toy([(0, 1, 1), (1, 2, 2)]))
    assert iso_check(x[0], y[0], "max", x[1], y[1]) is None
    for comps1, comps2 in (([x, y], [x, x]), ([x, x], [y, x])):
        assert match_components_oracle(comps1, comps2, "max") is None
        assert match_components(comps1, comps2, "max") is None
    assert match_components([y, x], [x, y], "max") == [(0, 1), (1, 0)]


# the early None returns: the lists differ in length, in their key sets, or
# in the size of one key's group (A2's B^{1,1} and B^{2,1} differ in key)
@pytest.mark.parametrize("ids1,ids2", [([0], []), ([0], [1]),
                                       ([0, 0, 1], [0, 1, 1])],
                         ids=["lengths", "key-sets", "group-sizes"])
def test_match_components_rejects_unequal_key_groups(ids1, ids2):
    boxes = [components(kr_typeA(2, r, 1))[0] for r in (1, 2)]
    comps1 = [boxes[k] for k in ids1]
    comps2 = [boxes[k] for k in ids2]
    assert match_components_oracle(comps1, comps2, "min") is None
    assert match_components(comps1, comps2, "min") is None


def test_match_components_one_iso_check_per_component_and_class(monkeypatch):
    comps_a, comps_b = _alcove_and_dual(build_cartan("A", 1), (6,), 3)
    reps = []  # one component per isomorphism class
    for g, ids in comps_a:
        if all(iso_check(rg, g, "max", rids, ids) is None
               for rg, rids in reps if len(rids) == len(ids)):
            reps.append((g, ids))

    def weights(comp):
        g, ids = comp
        return sorted(g.weights[i] for i in ids)
    # a class can hold only components of its size and weight multiset
    bound = sum(len(r[1]) == len(c[1]) and weights(r) == weights(c)
                for c in comps_a + comps_b for r in reps)
    calls, anchors = [], []
    forced_map, extremal = crystals._forced_map, CrystalGraph.extremal

    def counted(*args):
        calls.append(args)
        return forced_map(*args)

    def counted_anchor(graph, mode, ids=None):
        anchors.append(ids)
        return extremal(graph, mode, ids)
    monkeypatch.setattr(crystals, "_forced_map", counted)
    monkeypatch.setattr(CrystalGraph, "extremal", counted_anchor)
    assert match_components(comps_a, comps_b, "max") is not None
    assert 0 < len(calls) <= bound
    # each component's anchor is found once, none again per comparison
    assert len(anchors) == len(comps_a) + len(comps_b)


# ---------------------------------------------------------------------------
# anchors: the height search against the pairwise dominance scan


FILTERED_CASES = [
    (C2, [(1, 1), (1, 1)], 1, "head"),
    (C2, [(1, 1), (1, 1), (1, 1)], 1, "tail"),
    (build_cartan("A", 3), [(2, 1), (1, 1), (2, 1)], 3, "head"),
    (build_cartan("A", 3), [(1, 1), (3, 1), (1, 2)], 2, "tail"),
]


def _anchor_outcome(search, graph, mode):
    try:
        return search(graph, mode)
    except AmbiguousAnchorError as err:
        return str(err)


def _bare_graph(cartan, weights):
    """Isolated nodes (no edges) of the given weights."""
    names = ["n%d" % i for i in range(len(weights))]
    return CrystalGraph(cartan, cartan.index_set, names, {}, weights, names)


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("cartan,factors,level,filt", FILTERED_CASES)
def test_extremal_matches_pairwise_scan_on_components(cartan, factors, level,
                                                      filt, mode):
    comps = components(build_filtered(cartan, factors, level, filt))
    assert len(comps) > 1
    for g, ids in comps:
        want = _anchor_outcome(extremal_oracle, subgraph_oracle(g, ids), mode)
        got = _anchor_outcome(lambda g, mode: g.extremal(mode, ids), g, mode)
        assert got == (want if isinstance(want, str) else ids[want])


# on a whole filtered product the anchors have weights lambda and w0(lambda),
# the latter read off the enumerated group's longest element
@pytest.mark.parametrize("cartan,factors,level,filt", FILTERED_CASES)
def test_extremal_anchors_weigh_lambda_and_w0_lambda(cartan, factors, level,
                                                     filt):
    graph = build_filtered(cartan, factors, level, filt)
    lam = max_weight(cartan, factors)
    group = build_weyl_group(cartan)
    assert graph.weight(graph.extremal("max")) == lam
    assert graph.weight(graph.extremal("min")) == \
        mat_vec(group.weight_matrix(group.w0), lam)


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("build", [
    lambda: kr_typeA(2, 1, 1), lambda: kr_typeA(2, 2, 1),
    lambda: kr_typeA(2, 1, 2), lambda: kr_typeA(2, 2, 2),
    lambda: kr_typeA(2, 1, 3), lambda: kr_typeA(3, 1, 1),
    lambda: kr_typeA(3, 2, 2), lambda: kr_C_onebox(2),
    lambda: kr_C_onebox(3), lambda: fixture_C2("B12"),
    lambda: fixture_C2("tensor11"),
], ids=["A2-11", "A2-21", "A2-12", "A2-22", "A2-13", "A3-11", "A3-22",
        "C2-onebox", "C3-onebox", "fixture-B12", "fixture-tensor11"])
def test_extremal_matches_pairwise_scan_on_kr_factors(build, mode):
    g = build()
    assert _anchor_outcome(CrystalGraph.extremal, g, mode) == \
        _anchor_outcome(extremal_oracle, g, mode)


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("cartan,factors,level,filt", FILTERED_CASES)
def test_extremal_maps_each_distinct_weight_once(monkeypatch, cartan,
                                                 factors, level, filt, mode):
    # one adj·mu per distinct weight of the parent graph, however many
    # components and searches read it
    real = crystals.mat_vec
    calls = []

    def counted(a, v):
        calls.append(v)
        return real(a, v)
    graph = build_filtered(cartan, factors, level, filt)
    monkeypatch.setattr(crystals, "mat_vec", counted)
    comps = components(graph)
    for _, ids in comps + [(graph, None)]:
        _anchor_outcome(lambda g, mode: g.extremal(mode, ids), graph, mode)
    assert Counter(calls) == Counter(set(graph.weights))
    assert len(calls) < sum(len(set(map(graph.weights.__getitem__, ids)))
                            for _, ids in comps)


def _two_copies(weights2=((4, 4), (0, 0), (0, 0))):
    """An A2 graph of two components alike but for the second's weights:
    nodes 0-2 and 3-5, f_1 and f_2 from the first node of each to the
    other two, the first node of weight (4, 4) and the others 0."""
    fs = {1: [1, None, None, 4, None, None],
          2: [2, None, None, 5, None, None]}
    names = [str(i) for i in range(6)]
    return CrystalGraph(A2, (1, 2), names, fs,
                        [(4, 4), (0, 0), (0, 0), *weights2], names)


# the id-list audit rejects each way a map can fail to be a bijection of
# ids1 onto ids2 that keeps weights, each case passing every other test
# the audit makes, so dropping any one of its tests lets a case through
ID_AUDIT_FAILURES = {
    # onto the second component, but ids2 names the first
    "onto-an-id-outside-ids2": lambda: (
        _two_copies(), _two_copies(), {0: 3, 1: 4, 2: 5}, [0, 1, 2],
        [0, 1, 2]),
    "not-injective": lambda: (
        _bare_graph(A2, [(0, 0), (0, 0)]), _bare_graph(A2, [(0, 0)]),
        {0: 0, 1: 0}, [0, 1], [0]),
    "misses-an-id-of-ids1": lambda: (
        _bare_graph(A2, [(0, 0), (0, 0)]), _bare_graph(A2, [(0, 0)]),
        {0: 0}, [0, 1], [0]),
    "weight-mismatch": lambda: (
        _two_copies(), _two_copies(((4, 4), (0, 0), (2, -1))),
        {0: 3, 1: 4, 2: 5}, [0, 1, 2], [3, 4, 5]),
}


@pytest.mark.parametrize("case", sorted(ID_AUDIT_FAILURES))
def test_id_list_audit_rejects(case):
    g1, g2, mapping, ids1, ids2 = ID_AUDIT_FAILURES[case]()
    assert not verify_isomorphism(g1, g2, mapping, ids1, ids2)


def test_iso_check_on_id_lists():
    g = _two_copies()
    mapping = iso_check(g, g, "max", [0, 1, 2], [3, 4, 5])
    assert mapping == {0: 3, 1: 4, 2: 5}
    assert verify_isomorphism(g, g, mapping, [0, 1, 2], [3, 4, 5])
    # the forced map leaves ids1 = [0, 1], which misses node 2's edge
    assert iso_check(g, g, "max", [0, 1], [3, 4]) is None
    h = _two_copies(((4, 4), (0, 0), (2, -1)))
    assert iso_check(h, h, "max", [0, 1, 2], [3, 4, 5]) is None
    assert iso_check(g, g, "max", [0, 1, 2], [3, 4]) is None


def _no_top(n_tops):
    """A connected A2 component with no unique top: two nodes of weight
    (1, 0) above one of weight (-1, 1), or two incomparable weights."""
    if n_tops == 2:
        return CrystalGraph(A2, (1, 2), ["a", "b", "c"],
                            {1: [2, None, None], 2: [None, 2, None]},
                            [(1, 0), (1, 0), (-1, 1)], ["a", "b", "c"])
    return CrystalGraph(A2, (1, 2), ["a", "b"], {1: [1, None]},
                        [(1, 0), (0, 1)], ["a", "b"])


# match_components finds each anchor once, and an ambiguous one escapes,
# with its text, once two components of its group are compared
@pytest.mark.parametrize("n_tops", [0, 2])
def test_match_components_raises_an_ambiguous_anchor(n_tops):
    (comp,) = components(_no_top(n_tops))
    with pytest.raises(AmbiguousAnchorError,
                       match=r"^no unique max-weight element \(%d candidates"
                             r"\)$" % n_tops):
        match_components([comp], [comp], "max")
    # a group with one member on one side only returns None first
    other = components(kr_typeA(2, 1, 1))[0]
    assert match_components([comp], [other], "max") is None


def _outcome(call):
    try:
        return call()
    except AmbiguousAnchorError as err:
        return str(err)


# a component read in place as (graph, ids) answers as its standalone copy
# does: its anchor (as a parent id), its census, and every pairwise
# isomorphism verdict, the map carried over to parent ids
@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("cartan,factors,level,filt", FILTERED_CASES)
def test_components_in_place_match_their_copies(cartan, factors, level, filt,
                                                mode):
    graph = build_filtered(cartan, factors, level, filt)
    comps = components(graph)
    copies = component_graphs(comps)
    for (g, ids), copy in zip(comps, copies):
        want = _outcome(lambda: copy.extremal(mode))
        got = _outcome(lambda: g.extremal(mode, ids))
        assert got == (want if isinstance(want, str) else ids[want])
        for colors in (graph.colors, cartan.classical_index_set, (1,)):
            assert hw_census(g, colors, ids) == hw_census(copy, colors)
    found = 0
    for (g1, ids1), c1 in zip(comps, copies):
        for (g2, ids2), c2 in zip(comps, copies):
            want = _outcome(lambda: iso_check(c1, c2, mode))
            got = _outcome(lambda: iso_check(g1, g2, mode, ids1, ids2))
            if isinstance(want, dict):
                want = {ids1[x]: ids2[y] for x, y in want.items()}
                found += 1
            assert got == want
    assert found >= len(comps)


# want_max/want_min: the anchor id, or the "(k candidates)" of the error
@pytest.mark.parametrize("graph,want_max,want_min", [
    # the graph of test_iso_ambiguous_anchor_error: no weight qualifies
    (CrystalGraph(A2, (1, 2), ["a", "b"], {1: [1, None]},
                  [(1, 0), (0, 1)], ["a", "b"]),
     "0 candidates", "0 candidates"),
    # two or three nodes share the top weight, alpha_1 above the other
    (_bare_graph(A2, [(-1, 1), (1, 0), (1, 0)]), "2 candidates", 0),
    (_bare_graph(A2, [(1, 0), (-1, 1), (1, 0), (1, 0)]), "2 candidates", 1),
    # omega_1 (A2: (2 alpha_1 + alpha_2)/3; C2: alpha_1 + alpha_2/2) has
    # nonnegative but not integral root coordinates: divisibility decides
    (_bare_graph(A2, [(0, 0), (1, 0)]), "0 candidates", "0 candidates"),
    (_bare_graph(C2, [(1, 0), (0, 0)]), "0 candidates", "0 candidates"),
    (_bare_graph(C2, [(0, 0), (0, 1)]), 1, 0),   # omega_2 = alpha_1 + alpha_2
    # 2 alpha_1 and alpha_2: one coset of the root lattice, and 2 alpha_1
    # the higher, but their difference has a negative root coordinate
    (_bare_graph(A2, [(4, -2), (-1, 2)]), "0 candidates", "0 candidates"),
    (_bare_graph(A2, []), "0 candidates", "0 candidates"),
], ids=["iso-ambiguous", "two-tops", "three-tops", "A2-omega1",
        "C2-omega1", "C2-omega2", "A2-incomparable-roots", "empty"])
def test_extremal_matches_pairwise_scan_on_hand_built_graphs(
        graph, want_max, want_min):
    for mode, want in (("max", want_max), ("min", want_min)):
        got = _anchor_outcome(CrystalGraph.extremal, graph, mode)
        assert got == _anchor_outcome(extremal_oracle, graph, mode)
        if isinstance(want, str):
            want = "no unique %s-weight element (%s)" % (mode, want)
        assert got == want


def _two_products():
    """A2 B^{1,1} (x) B^{1,1}, whose anchors are unique, and the same
    product without its top node, whose two nodes of weight omega_2 tie
    for the top."""
    g = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 1, 1)])
    return g, subgraph_oracle(g, range(1, len(g)))


# anchors() reads both modes off one table of heights: the ids extremal
# gives, and no entry for a mode whose search raises
@pytest.mark.parametrize("build,want", [
    (lambda: _two_products()[0], {"max": 0, "min": 8}),
    (lambda: _two_products()[1], {"min": 7}),
    (lambda: explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]),
     {"max": 0, "min": 15}),
    (lambda: build_filtered(*FILTERED_CASES[2]), {"max": 0, "min": 143}),
    # two nodes of incomparable weights: no mode qualifies
    (lambda: subgraph_oracle(_two_products()[0], [1, 3]), {}),
], ids=["A2-11x11", "A2-11x11-no-top", "C2-onebox-squared",
        "A3-filtered", "incomparable"])
def test_anchors_match_the_per_mode_search(build, want):
    graph = build()
    per_mode = {mode: _anchor_outcome(CrystalGraph.extremal, graph, mode)
                for mode in ("max", "min")}
    assert graph.anchors() == want == {
        mode: got for mode, got in per_mode.items()
        if not isinstance(got, str)}


# one adj·mu and height per distinct weight, for both modes together
def test_anchors_compute_each_height_once(monkeypatch):
    graph = explore_tensor(A2, [kr_typeA(2, 1, 1)] * 4)
    coords = []
    real = crystals.mat_vec

    def counted(a, v):
        coords.append(v)
        return real(a, v)

    monkeypatch.setattr(crystals, "mat_vec", counted)
    assert graph.anchors() == {"max": 0, "min": len(graph) - 1}
    assert Counter(coords) == Counter(set(graph.weights))
    assert len(coords) < len(graph)


# ---------------------------------------------------------------------------
# Demazure subsets


def test_demazure_subset_extremes():
    graph = hw_crystal(A2, (1, 0))
    group = build_weyl_group(A2)
    assert demazure_subset(graph, ()) == [highest_weight_node(graph)]
    assert len(demazure_subset(graph, group.reduced_word(group.w0))) == \
        len(graph)
    assert len(demazure_subset(graph, (1,))) == 2


@pytest.mark.parametrize("lam", [(-1, 0), (0, -1), (2, -1)])
def test_hw_crystal_rejects_non_dominant_lambda(lam):
    # (-1, 0) used to give the one-node crystal of weight (0, 0)
    with pytest.raises(NonDominantWeightError,
                       match=r"^lambda must be dominant: \(%d, %d\)$" % lam):
        hw_crystal(A2, lam)


@pytest.mark.parametrize("lam", [(), (1,), (1, 0, 0)])
def test_hw_crystal_rejects_lambda_of_wrong_length(lam):
    with pytest.raises(ValueError, match="^lambda needs 2 coordinates$"):
        hw_crystal(A2, lam)


# the types the fundamental-tensor oracle reaches: A, and C2
HW_CASES = [("A", 2, (1, 1)), ("A", 2, (3, 2)), ("A", 2, (4, 4)),
            ("A", 3, (1, 1, 1)), ("A", 3, (2, 0, 1)), ("A", 4, (1, 0, 1, 1)),
            ("C", 2, (2, 0)), ("C", 2, (1, 1)), ("C", 2, (2, 1)),
            ("C", 2, (0, 3))]

# B, C and D, which the oracle does not reach, and the one-node B(0)
BCD_CASES = [("B", 3, (1, 1, 1)), ("B", 3, (0, 2, 0)), ("B", 4, (1, 0, 1, 0)),
             ("C", 3, (2, 1, 0)), ("C", 4, (0, 1, 0, 1)),
             ("D", 4, (1, 1, 0, 1)), ("A", 2, (0, 0))]


def weyl_dimension(cartan, lam):
    """prod over positive roots beta of <lam + rho, beta^vee> / <rho,
    beta^vee>, in exact integers: both products are formed before the one
    division."""
    num = den = 1
    for beta in cartan.positive_roots_list:
        cor = cartan.coroot_coords(beta)
        num *= sum(c * (x + 1) for c, x in zip(cor, lam))
        den *= sum(cor)
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("family,rank,lam", HW_CASES + BCD_CASES)
def test_hw_crystal_size_is_the_weyl_dimension(family, rank, lam):
    ct = build_cartan(family, rank)
    graph = hw_crystal(ct, lam)
    assert len(graph) == weyl_dimension(ct, lam)
    assert is_connected(graph)
    assert highest_weight_node(graph) == 0
    assert graph.weights[0] == lam


@pytest.mark.parametrize("family,rank,lam", HW_CASES)
def test_hw_crystal_matches_the_per_node_signature_rule(family, rank, lam):
    # the oracle: the top element of the flat product of every fundamental,
    # closed under e_i and f_i one node at a time
    ct = build_cartan(family, rank)
    funds = fundamentals(ct)
    factors = [funds[i] for i in ct.classical_index_set
               for _ in range(lam[i - 1])]
    top = tuple(g.nodes[highest_weight_node(g)] for g in factors)
    want = explore(ct, TensorProduct(factors), [top])
    assert iso_check(hw_crystal(ct, lam), want, "max") is not None


def numbered(g):
    """Everything of g that node ids index: equal means node for node and
    edge for edge."""
    return g.colors, g.nodes, g.fs, g.weights, g.reprs


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (1, 1)), ("A", 3, (2, 0, 1)), ("C", 2, (2, 1)),
    ("B", 3, (1, 1, 0)), ("C", 3, (1, 0, 1)), ("D", 4, (1, 0, 0, 1)),
    ("B", 3, (0, 1, 0))])
def test_hw_crystal_is_the_top_component_of_the_quantum_model(family, rank,
                                                              lam):
    # the Bruhat subsets are the classical component of the empty subset
    # in A_1(Gamma), numbered alike: both DFS preorders ascend positions
    ct = build_cartan(family, rank)
    got = hw_crystal(ct, lam)
    want = component_graph(classical_restriction(alcove_crystal(ct, lam, 1)),
                           0)
    assert want.nodes[0] == ()
    assert numbered(got) == numbered(want)


def test_hw_crystal_node_cap_bounds_the_crystal():
    # B(2 omega_1) in A2 has 6 elements, B(0) only its top, which the cap
    # counts too
    for lam, size in [((2, 0), 6), ((0, 0), 1)]:
        with pytest.raises(ResourceLimitError, match="node cap %d$"
                           % (size - 1)):
            hw_crystal(A2, lam, node_cap=size - 1)
        assert len(hw_crystal(A2, lam, node_cap=size)) == size


def test_hw_crystal_weyl_cap_bounds_the_weyl_group():
    with pytest.raises(ResourceLimitError,
                       match="^Weyl group larger than cap 1$"):
        hw_crystal(build_cartan("A", 3), (1, 1, 1), weyl_cap=1)


def test_demazure_subset_rejects_nonreduced():
    graph = hw_crystal(A2, (1, 0))
    with pytest.raises(NonReducedWordError):
        demazure_subset(graph, (1, 1))


# the rho walk against the enumerated group: a word is reduced when the
# length of its product is its own length
@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3),
                                         ("C", 3)])
def test_demazure_subset_reducedness_against_group_lengths(family, rank):
    ct = build_cartan(family, rank)
    graph = hw_crystal(ct, (1,) + (0,) * (rank - 1))
    group = build_weyl_group(ct)
    for k in range(5):
        for word in itertools.product(ct.classical_index_set, repeat=k):
            w = group.identity
            for i in word:
                w = group.right[i - 1][w]
            try:
                demazure_subset(graph, word)
                reduced = True
            except NonReducedWordError:
                reduced = False
            assert reduced == (group.lengths[w] == k), word


# a letter outside I_0 = {1, 2} is no simple reflection: 0 would read the
# last coordinate of the walk's weight and 3 none at all
@pytest.mark.parametrize("word", [(0,), (3,), (1, 0), (2, 3)])
def test_demazure_subset_rejects_letters_outside_I0(word):
    graph = hw_crystal(A2, (1, 0))
    with pytest.raises(ValueError) as err:
        demazure_subset(graph, word)
    assert type(err.value) is ValueError
    assert str(err.value) == "word %r has a letter outside I_0" % (word,)


@pytest.mark.parametrize("family,rank,lam", [("A", 2, (1, 1)),
                                             ("C", 2, (1, 1))])
def test_demazure_subset_word_independence(family, rank, lam):
    ct = build_cartan(family, rank)
    graph = hw_crystal(ct, lam)
    group = build_weyl_group(ct)
    for w in range(len(group)):
        results = {tuple(demazure_subset(graph, word))
                   for word in all_reduced_words(group, w)}
        assert len(results) == 1


@pytest.mark.parametrize("family,rank,lam", [("A", 2, (1, 1)),
                                             ("C", 2, (1, 1))])
def test_bruhat_order_matches_demazure_containment(family, rank, lam):
    ct = build_cartan(family, rank)
    graph = hw_crystal(ct, lam)
    group = build_weyl_group(ct)
    subsets = {w: set(demazure_subset(graph, group.reduced_word(w)))
               for w in range(len(group))}
    for v in range(len(group)):
        for w in range(len(group)):
            contained = subsets[v] <= subsets[w]
            assert contained == bruhat_leq(group, v, w)


def test_excellent_filtration_a2():
    group = build_weyl_group(A2)
    small = [(1, 0), (0, 1), (1, 1)]
    for mu in small:
        for lam in small:
            for w in range(len(group)):
                assert decomposes_into_demazure(
                    A2, group, mu, lam, group.reduced_word(w))


def test_excellent_filtration_c2():
    group = build_weyl_group(C2)
    small = [(1, 0), (0, 1)]
    for mu in small:
        for lam in small:
            for w in range(len(group)):
                assert decomposes_into_demazure(
                    C2, group, mu, lam, group.reduced_word(w))


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4)])
def test_excellent_filtration_beyond_a_and_c2(family, rank):
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    ends = [tuple(int(j == i) for j in range(rank)) for i in (0, rank - 1)]
    for mu in ends:
        for lam in ends:
            for w in range(len(group)):
                assert decomposes_into_demazure(
                    ct, group, mu, lam, group.reduced_word(w))


# ---------------------------------------------------------------------------
# Weyl action, similarity, census


def test_weyl_action_fixed_point():
    g = kr_typeA(2, 2, 1)
    top = g.weights.index((0, 1))     # color-1 pairing is 0
    assert weyl_action(g, top, 1) == top


def test_weyl_action_a1_highest():
    ga1 = kr_typeA(1, 1, 1)
    top = ga1.weights.index((1,))
    assert weyl_action(ga1, top, 1) == ga1.f(top, 1)


def test_weyl_action_involutive_on_fixture():
    g = fixture_C2("B12")
    for b in range(len(g)):
        for c in g.colors:
            assert weyl_action(g, weyl_action(g, b, c), c) == b


def test_weyl_action_matches_pairing_on_classical_colors():
    g = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)])
    for b in range(len(g)):
        for c in (1, 2):
            k = g.weights[b][c - 1]
            img = weyl_action(g, b, c)
            assert g.phi(b, c) - g.eps(b, c) == k
            assert g.weights[img][c - 1] == -k


def test_similarity_identity_and_weight_breaking():
    g = kr_typeA(2, 1, 1)
    assert similarity_check(lambda b: b, 1, g, g)
    rotate = {g.nodes[i]: g.nodes[(i + 1) % len(g)] for i in range(len(g))}
    assert not similarity_check(lambda b: rotate[b], 1, g, g)


def test_census_examples():
    tensor = explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 1, 1)])
    assert hw_census(tensor, (1, 2)) == sorted([(2, 0), (0, 1)])
    # a fully 0-string-closed crystal has no affine highest weights
    assert hw_census(kr_typeA(2, 1, 1), (0, 1, 2)) == []
    assert hw_census(fixture_C2("B12"), (1, 2)) == sorted([(2, 0), (0, 0)])


def _e_free_per_node(graph, colors):
    """The census's definition, one e call per node and color."""
    return [i for i in range(len(graph))
            if all(graph.e(i, c) is None for c in colors)]


@pytest.mark.parametrize("graph", [
    lambda: build_filtered(A3, [(2, 1), (1, 1), (2, 1)], 1, "head"),
    lambda: alcove_crystal(A3, (1, 0, 1), 2),
], ids=["A3-head-filtered", "A3-alcove"])
def test_census_matches_the_per_node_definition(graph):
    g = graph()
    ct = g.cartan
    for colors in (g.colors, ct.classical_index_set, (2,), ()):
        want = _e_free_per_node(g, colors)
        assert hw_census(g, colors) == sorted(g.weights[i] for i in want)
    classical = classical_restriction(g)
    node = _e_free_per_node(g, ct.classical_index_set)[0]
    top = component_graph(classical, node)
    assert hw_census(top, top.colors) == \
        [top.weights[highest_weight_node(top)]]
    # read in place, the component has the census of its copy
    ids = sorted(component_ids_oracle(classical, node))
    assert hw_census(classical, top.colors, ids) == \
        hw_census(top, top.colors)


def test_weight_multiset_is_character():
    counts = Counter(kr_typeA(2, 1, 2).weights)
    assert sum(counts.values()) == 6
    assert counts[(2, 0)] == 1


# ---------------------------------------------------------------------------
# serialization


def test_json_schema_and_stability():
    g = kr_typeA(2, 1, 1)
    text = json_text(g)
    assert text == json_text(g)
    data = json.loads(text)
    assert set(data) == {"nodes", "edges", "anchors"}
    assert data["nodes"][0].keys() == {"id", "repr", "wt"}
    assert all(e.keys() == {"src", "dst", "color"} for e in data["edges"])
    assert data["anchors"]["max"] == g.extremal("max")


def test_dot_styling():
    g = fixture_C2("B12")
    dot = dot_text(g)
    assert dot == dot_text(g)
    assert "color=black" in dot    # the level-1 Demazure 0-edge
    assert "color=blue" in dot and "color=red" in dot
    assert 'label="0"' in dot


# the export is written EXPORT_BLOCK nodes at a time: the text held at once
# is one block's, and the writes join to the text of the whole graph
@pytest.mark.parametrize("graph", [
    lambda: explore_tensor(A2, [kr_typeA(2, 1, 1)] * 3),
    lambda: fixture_C2("B12"),
])
def test_dot_streams_in_blocks(monkeypatch, graph):
    g = graph()
    monkeypatch.setattr(weyl, "EXPORT_BLOCK", 5)
    assert len(g) > 5
    log = WriteLog()
    g.to_dot(log)
    assert "".join(log.writes) == crystal_dot_oracle(g)
    assert max(log.nodes_per_write()) == 5


def _edgeless(n):
    """n nodes of weight 0 and no edge."""
    return CrystalGraph(A2, (0, 1, 2), [(i,) for i in range(n)], {},
                        [(0, 0)] * n, ["b%d" % i for i in range(n)])


def _last_block_edges():
    """12 nodes whose one edge leaves the last of three 5-node blocks."""
    fs = {1: [None] * 10 + [11, None]}
    return CrystalGraph(A2, (0, 1, 2), [(i,) for i in range(12)], fs,
                        [(0, 0)] * 11 + [(-2, 1)],
                        ["b%d" % i for i in range(12)])


def _escaped_reprs():
    """Reprs that JSON must escape, or must write as they are."""
    reprs = ['say "hi"', "back\\slash", "\u00e9t\u00e9", "bell\x07",
             "tab\tnew\nline", "\x1f\u2297", "plain"]
    fs = {1: [1, 2, 3, None, 5, 6, None]}
    return CrystalGraph(A2, (1, 2), [(i,) for i in range(7)], fs,
                        [(i, 0) for i in range(7)], reprs)


# the JSON export writes the document json.dumps gives, EXPORT_BLOCK nodes
# at a time, with a comma before every array item but the first: over
# single-node, edgeless, multi-block and alcove graphs, blocks with no
# edges, and reprs that need escaping
@pytest.mark.parametrize("graph", [
    lambda: build_tensor(A2, []),
    lambda: _edgeless(1),
    lambda: _edgeless(12),
    _last_block_edges,
    lambda: explore_tensor(A2, [kr_typeA(2, 1, 1)] * 3),
    lambda: fixture_C2("B12"),
    _escaped_reprs,
])
def test_json_streams_in_blocks(monkeypatch, graph):
    g = graph()
    monkeypatch.setattr(weyl, "EXPORT_BLOCK", 5)
    log = WriteLog()
    g.to_json(log)
    assert "".join(log.writes) == crystal_json_oracle(g)
    assert max(log.nodes_per_write()) == min(5, len(g))


@pytest.mark.parametrize("ctype,lam,level", [
    (A2, (1, 1), 2),
    (build_cartan("B", 3), (1, 1, 0), 1),
])
def test_alcove_json_streams_in_blocks(monkeypatch, ctype, lam, level):
    g = alcove_crystal(ctype, lam, level)
    monkeypatch.setattr(weyl, "EXPORT_BLOCK", 5)
    assert len(g) > 5
    log = WriteLog()
    g.to_json(log, g.chain)
    assert "".join(log.writes) == alcove_json_oracle(g, g.chain)
    assert max(log.nodes_per_write()) == 5


# the anchors are searched before the first write: a failing search writes
# nothing
def test_json_finds_anchors_before_writing(monkeypatch):
    def broken(graph, mode, ids=None):
        raise InvariantError("no anchor")
    monkeypatch.setattr(CrystalGraph, "extremal", broken)
    log = WriteLog()
    with pytest.raises(InvariantError):
        kr_typeA(2, 1, 1).to_json(log)
    assert log.writes == []


class _Sink:
    """A text file that keeps nothing."""

    def write(self, text):
        return len(text)


# the exports hold one block's text at a time, not the whole graph's: on
# the 6,561-node A2 (1,1)^8 product each streamed export peaks near
# 120 KiB above the retained graph, 4,096-node blocks at over 1 MiB and
# the one-string JSON at 9.6 MiB
@pytest.mark.parametrize("name", ["to_dot", "to_json"])
def test_exports_hold_one_block_at_a_time(name):
    g = explore_tensor(A2, [kr_typeA(2, 1, 1)] * 8)
    assert len(g) == 6561
    export = getattr(g, name)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export(_Sink())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_graphs_equal_detects_edge_change():
    g = kr_typeA(2, 1, 1)
    h = demazure_filter(g, 1, "head")
    assert not graphs_equal(g, h)
    rebuilt = explore(A2, GraphSource(g), [((1,),), ((2,),), ((3,),)],
                      affine_complete=True)
    assert graphs_equal(g, rebuilt)


# ---------------------------------------------------------------------------
# the integer-indexed representation


def _c2_tensor_graph():
    return explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])


@pytest.mark.parametrize("build", [
    lambda: kr_typeA(3, 2, 1),
    lambda: explore(C2, c2_tensor(), c2_tensor().all_elements()),
    _c2_tensor_graph,
    lambda: explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 2)]),
    lambda: subgraph_oracle(_c2_tensor_graph(), range(3, 14)),
    lambda: component_graphs(
        components(demazure_filter(_c2_tensor_graph(), 1, "head")))[1],
    lambda: demazure_filter(_c2_tensor_graph(), 1, "head"),
    lambda: demazure_filter(kr_typeA(2, 1, 2), 1, "tail"),
    lambda: classical_restriction(_c2_tensor_graph()),
    lambda: fixture_C2("tensor11"),
    lambda: fixture_C2("B12"),
    lambda: trivial_crystal(A2, (0, 1, 2)),
    lambda: alcove_crystal(A2, (1, 1), 2),
    lambda: hw_crystal(build_cartan("C", 3), (1, 0, 1)),
], ids=["explore", "explore-tensor-product", "explore_tensor-C2",
        "explore_tensor-A2", "subgraph", "component", "demazure_filter-head",
        "demazure_filter-tail", "classical_restriction", "fixture-tensor11",
        "fixture-B12", "trivial", "alcove_crystal-A2-level2",
        "hw_crystal-C3"])
def test_e_lists_invert_f_lists(build):
    g = build()
    n = len(g)
    assert sorted(g.fs) == sorted(g.es) == sorted(g.colors)
    for c in g.colors:
        fc, ec = g.fs[c], g.es[c]
        assert len(fc) == len(ec) == n
        for b in range(n):
            if fc[b] is not None:
                assert ec[fc[b]] == b
            if ec[b] is not None:
                assert fc[ec[b]] == b
        assert sum(x is not None for x in fc) == \
            sum(x is not None for x in ec)


@pytest.mark.parametrize("cartan,factors,level,mode", FILTERED_CASES)
def test_components_match_per_start_bfs(cartan, factors, level, mode):
    graph = build_filtered(cartan, factors, level, mode)
    want = set()
    for start in range(len(graph)):
        want.add(tuple(sorted(component_ids_oracle(graph, start))))
    comps = components(graph)
    got = [tuple(ids) for _, ids in comps]
    assert len(got) > 1
    assert sorted(got) == sorted(want)
    for g, ids in comps:
        assert g is graph
        comp = subgraph_oracle(graph, ids)
        assert is_connected(comp)
        members = set(ids)
        assert comp.edge_count == sum(
            1 for s, _, d in graph.edges_sorted() if s in members)


# check_reduction and check_figure take the component holding a node from
# component_ids: for every node it is the BFS from that node alone
@pytest.mark.parametrize("cartan,factors,level,mode", FILTERED_CASES)
def test_component_of_is_the_component_holding_the_node(cartan, factors,
                                                        level, mode):
    graph = build_filtered(cartan, factors, level, mode)
    comps = graph.component_ids()
    for v in range(len(graph)):
        assert next(c for c in comps if v in c) == \
            sorted(component_ids_oracle(graph, v))


def test_constructor_rejects_duplicate_payloads():
    with pytest.raises(InvariantError, match="duplicate payloads"):
        CrystalGraph(A2, (1, 2), ["a", "b", "a"], {}, [(0, 0)] * 3,
                     ["a", "b", "a"])


def test_constructor_rejects_two_f_edges_into_one_node():
    with pytest.raises(InvariantError, match="two f_2-edges into one node"):
        CrystalGraph(A2, (1, 2), ["a", "b", "c"], {2: [2, 2, None]},
                     [(0, 0)] * 3, ["a", "b", "c"])


def test_edges_sorted_walks_sources_then_colors():
    g = _c2_tensor_graph()
    assert g.edges_sorted() == sorted(g.edges_sorted())
    assert len(g.edges_sorted()) == g.edge_count
    for c in g.colors:
        assert g.edges_of_color(c) == [(s, d) for s, cc, d in
                                       g.edges_sorted() if cc == c]
