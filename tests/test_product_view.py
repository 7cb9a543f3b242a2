"""A tensor product's payloads and reprs as mixed-radix views over its
factors' lists, against the lists they stand for."""

import functools
import gc
import itertools
import tracemalloc

import pytest

from helpers import classical_restriction, json_text, subgraph_oracle
from krcrystals.cartan import build_cartan
from krcrystals.crystals import (CrystalGraph, ProductView, demazure_filter,
                                 explore_tensor, graphs_equal,
                                 verify_isomorphism)
from krcrystals.kr import kr_typeA

A2 = build_cartan("A", 2)


def three_factors():
    return [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1), kr_typeA(2, 1, 2)]


def listed(graph):
    """The same graph with its payloads and reprs copied into lists."""
    return CrystalGraph(graph.cartan, graph.colors, list(graph.nodes),
                        graph.fs, graph.weights, list(graph.reprs),
                        affine_complete=graph.affine_complete, es=graph.es)


def test_elements_are_the_itertools_product_order():
    fs = three_factors()
    g = explore_tensor(A2, fs)
    nodes = list(itertools.product(*(f.nodes for f in fs)))
    # the reprs of the left fold the views replace
    reprs = [functools.reduce(lambda r, s: r + " (x) " + s, parts)
             for parts in itertools.product(*(f.reprs for f in fs))]
    assert isinstance(g.nodes, ProductView)
    assert isinstance(g.reprs, ProductView)
    assert len(g.nodes) == len(g.reprs) == len(nodes) == 54
    for x in range(len(nodes)):
        assert g.nodes[x] == nodes[x]
        assert g.reprs[x] == reprs[x]
    assert list(g.nodes) == nodes and list(g.reprs) == reprs


def test_indices_follow_list_semantics():
    g = explore_tensor(A2, three_factors())
    for view in (g.nodes, g.reprs):
        want = list(view)
        n = len(want)
        for x in range(-n, 0):
            assert view[x] == want[x]
        for x in (n, -n - 1):
            with pytest.raises(IndexError):
                view[x]


def test_equality_is_elementwise_against_lists_and_views():
    g = explore_tensor(A2, three_factors())
    h = explore_tensor(A2, three_factors())
    assert g.nodes == list(g.nodes) and list(g.nodes) == g.nodes
    assert g.nodes == h.nodes and g.reprs == h.reprs
    assert g.nodes != list(g.nodes)[:-1]
    assert g.reprs != list(g.reprs)[::-1]
    assert g.nodes != tuple(g.nodes)  # as a list is never a tuple
    assert g.nodes != g.reprs


def test_subgraphs_match_a_list_backed_copy():
    g = classical_restriction(explore_tensor(A2, three_factors()))
    copy = listed(g)
    comps = g.component_ids()
    assert len(comps) > 1
    for ids in comps:
        got, want = subgraph_oracle(g, ids), subgraph_oracle(copy, ids)
        assert type(got.nodes) is list and type(got.reprs) is list
        assert graphs_equal(got, want) and got.reprs == want.reprs
        # the component read in place: the identity map is an isomorphism
        assert verify_isomorphism(g, copy, {i: i for i in ids}, ids, ids)
        assert [g.reprs[i] for i in ids] == [copy.reprs[i] for i in ids]


def test_exports_match_a_list_backed_copy(tmp_path):
    g = explore_tensor(A2, three_factors())
    copy = listed(g)
    assert json_text(g) == json_text(copy)
    paths = tmp_path / "view.dot", tmp_path / "list.dot"
    for graph, path in zip((g, copy), paths):
        with open(path, "w") as fh:
            graph.to_dot(fh)
    assert paths[0].read_text() == paths[1].read_text()


@pytest.mark.parametrize("mode", ["head", "tail"])
def test_demazure_filter_keeps_the_views(mode):
    g = explore_tensor(A2, three_factors())
    filtered = demazure_filter(g, 1, mode)
    assert filtered.nodes is g.nodes and filtered.reprs is g.reprs


def test_a_product_of_products_is_a_view_of_views():
    # the payloads nest as the factors do; the reprs join flat
    left, right = three_factors()[:2], kr_typeA(2, 1, 2)
    inner = explore_tensor(A2, left)
    g = explore_tensor(A2, [inner, right])
    assert isinstance(g.nodes.lists[0], ProductView)
    assert list(g.nodes) == list(itertools.product(inner.nodes, right.nodes))
    assert g.reprs == explore_tensor(A2, three_factors()).reprs


def test_explore_tensor_retains_few_bytes_per_node():
    # A2 (1,1)^6 (x) (2,1), 2,187 nodes: the f and e lists and one int per
    # node id stay; a payload tuple and a repr string per node do not
    fs = [kr_typeA(2, 1, 1)] * 6 + [kr_typeA(2, 2, 1)]
    explore_tensor(A2, fs)  # fills the factors' string statistics
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = explore_tensor(A2, fs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g) == 2187
    assert retained / len(g) <= 160
