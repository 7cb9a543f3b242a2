import copy
import gc
import io
import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from helpers import (QBG_TYPES, WriteLog, bruhat_leq, decode_root, dot_text,
                     greedy_reduced_word, group_mul, length_by_inversions,
                     mat_mul, matrix_ids, qbg_dot_oracle, qbg_edges,
                     reflection, reflection_weight_matrix,
                     root_matrix_of_word, smallest_descent, subword_products)
from krcrystals import cli, weyl
from krcrystals.cartan import build_cartan, identity_matrix, mat_vec, vec_neg
from krcrystals.errors import InvariantError, ResourceLimitError
from krcrystals.weyl import (QuantumBruhatGraph, WeylGroup,
                             affine_simple_reflection, build_qbg,
                             build_weyl_group, dominantize)

# the QBG types plus the three the benchmark exports beyond D4
EXPORT_TYPES = QBG_TYPES + [("A", 5), ("B", 4), ("C", 4)]


def test_group_orders():
    for family, rank, order in [("A", 2, 6), ("A", 3, 24), ("C", 2, 8),
                                ("C", 3, 48), ("B", 3, 48), ("D", 4, 192)]:
        assert len(build_weyl_group(build_cartan(family, rank))) == order


def test_reflect_simple_on_weight():
    ct = build_cartan("A", 2)
    group = build_weyl_group(ct)
    s1 = reflection(group, (1, 0))
    # s_1(pi_1) = pi_1 - alpha_1
    assert mat_vec(group.weight_matrix(s1), (1, 0)) == (1 - 2, 0 + 1)
    assert group.lengths[s1] == 1


def test_reflect_theta_length():
    ct = build_cartan("A", 2)
    group = build_weyl_group(ct)
    s_theta = reflection(group, ct.theta)
    # oracle: count inversions of s_1 s_2 s_1
    assert length_by_inversions(ct, (1, 2, 1)) == 3
    assert group.lengths[s_theta] == 3


def test_reflections_are_involutions():
    for family, rank in [("A", 2), ("C", 2)]:
        ct = build_cartan(family, rank)
        group = build_weyl_group(ct)
        for k, beta in enumerate(ct.positive_roots_list):
            s = reflection(group, beta)
            assert group_mul(group, s, s) == group.identity == 0
            # s_beta(beta_k) = -beta_k
            assert group.roots[s][k] == -(k + 1)


# weight_matrix reads each row off the signed roots; the oracle multiplies
# the full reflection matrices along a reduced word
@pytest.mark.parametrize("family,rank", QBG_TYPES + [("A", 1)])
def test_weight_matrices_match_reflection_products(family, rank):
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    simple = [reflection_weight_matrix(ct, tuple(int(j == i)
                                                 for j in range(rank)))
              for i in range(rank)]
    for w in range(len(group)):
        mat = identity_matrix(rank)
        for i in group.reduced_word(w):
            mat = mat_mul(mat, simple[i - 1])
        assert group.weight_matrix(w) == mat


def test_lengths_match_inversion_oracle():
    for family, rank in QBG_TYPES:
        ct = build_cartan(family, rank)
        group = build_weyl_group(ct)
        for w in range(len(group)):
            word = group.reduced_word(w)
            assert length_by_inversions(ct, word) == group.lengths[w] \
                == len(word)


@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_right_table_matches_matrix_products(family, rank):
    group = build_weyl_group(build_cartan(family, rank))
    simple = [reflection(group, tuple(int(j == i) for j in range(rank)))
              for i in range(rank)]
    for i, column in enumerate(group.right):
        for w, ws in enumerate(column):
            assert ws == group_mul(group, w, simple[i])


# each s_beta's word is the greedy word of the element whose weight matrix
# is s_beta's, found by the oracle's own matrix -> id dict; the right table
# is rank columns of |W| ids
@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_reflection_words_match_the_matrix_oracle(family, rank):
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    ids = matrix_ids(group)
    for k, beta in enumerate(ct.positive_roots_list):
        s_beta = ids[reflection_weight_matrix(ct, beta)]
        assert group._reflection_words[k] == \
            greedy_reduced_word(group, s_beta)
    assert len(group.right) == rank
    assert all(len(column) == len(group) for column in group.right)


@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_times_reflection_matches_matrix_products(family, rank):
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    for w in range(len(group)):
        for k, beta in enumerate(ct.positive_roots_list):
            expected = group_mul(group, w, reflection(group, beta))
            assert group.times_reflection(w, k) == expected
            assert reflection(group, vec_neg(beta)) == reflection(group, beta)


# the descent table, read off the signed roots (i is a descent of w when
# w(alpha_i) < 0), against a scan of w's entry in each column of the right
# table against the lengths, and the words walked off it against the greedy
# oracle's
@pytest.mark.parametrize("family,rank", EXPORT_TYPES)
def test_descent_table_words_match_the_greedy_oracle(family, rank):
    group = build_weyl_group(build_cartan(family, rank))
    assert group.descents[group.identity] is None
    for w in range(1, len(group)):
        assert group.descents[w] == smallest_descent(group, w)
    for w in range(len(group)):
        word = group.reduced_word(w)
        assert word == greedy_reduced_word(group, w)
        assert len(word) == group.lengths[w]


# the id order is a contract: by length, and within a length class by the
# weight matrix, whose rows are the coroots of w^-1(alpha_i)
@pytest.mark.parametrize("family,rank", EXPORT_TYPES + [("A", 1)])
def test_ids_are_sorted_by_length_then_weight_matrix(family, rank):
    group = build_weyl_group(build_cartan(family, rank))
    keys = [(group.lengths[w], group.weight_matrix(w))
            for w in range(len(group))]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert keys[0] == (0, identity_matrix(rank))


@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_signed_roots_match_reflection_matrices(family, rank):
    # roots[w][k] names w(beta_k), with w multiplied out as simple-root-basis
    # reflection matrices along a reduced word
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    for w in range(len(group)):
        mat = root_matrix_of_word(ct, group.reduced_word(w))
        assert tuple(decode_root(ct, g) for g in group.roots[w]) == \
            tuple(mat_vec(mat, beta) for beta in ct.positive_roots_list)


def test_w0_maps_positives_to_negatives():
    for family, rank in QBG_TYPES:
        ct = build_cartan(family, rank)
        group = build_weyl_group(ct)
        assert group.w0 == len(group) - 1
        images = {decode_root(ct, g) for g in group.roots[group.w0]}
        assert images == {vec_neg(beta) for beta in ct.positive_roots_list}


def test_weyl_cap():
    with pytest.raises(ResourceLimitError):
        WeylGroup(build_cartan("A", 3), cap=10)


def _peak_bytes(build):
    gc.collect()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# |W| = prod (m_i + 1), the exponents m_i the conjugate partition of the
# numbers of positive roots by height (Kostant); the cap is read against it
# before the walk, so cap |W| builds the group and cap |W| - 1 refuses it
@pytest.mark.parametrize("family,rank", EXPORT_TYPES + [("A", 1), ("D", 5)])
def test_cap_is_read_against_the_group_order(family, rank):
    ct = build_cartan(family, rank)
    by_height = Counter(map(sum, ct.positive_roots_list)).values()
    order = math.prod(1 + sum(c > i for c in by_height) for i in range(rank))
    assert len(WeylGroup(ct, cap=order)) == order
    with pytest.raises(ResourceLimitError, match="cap %d" % (order - 1)):
        WeylGroup(ct, cap=order - 1)


# D7's 322,560 elements are refused before any element is made
def test_over_cap_group_is_refused_before_the_walk():
    d7 = build_cartan("D", 7)

    def build():
        with pytest.raises(ResourceLimitError, match="cap 100000"):
            WeylGroup(d7)
    assert _peak_bytes(build) < 1024 * 1024


def test_walk_is_checked_against_the_group_order(monkeypatch):
    # a wrong |W| (here 1 // 1) is an invariant error once the walk ends
    monkeypatch.setattr(weyl, "prod", lambda values: 1)
    with pytest.raises(InvariantError, match="walked 6"):
        WeylGroup(build_cartan("A", 2))


# every element's signed root ids are shared objects: one int per distinct
# id
@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_equal_rows_and_root_ids_are_one_object(family, rank):
    group = WeylGroup(build_cartan(family, rank))
    ids = [t for roots in group.roots for t in roots]
    assert len({id(t) for t in ids}) == len(set(ids))


# the group build keeps no per-element walk tuples, rows or negated ids:
# A5 peaks near 365 KiB and B5 near 1,930 KiB, under half of what such
# tuples took
@pytest.mark.parametrize("family,rank,bound", [
    ("A", 5, 512 * 1024), ("B", 5, 3 * 1024 * 1024)])
def test_group_build_peak(family, rank, bound):
    ct = build_cartan(family, rank)
    assert _peak_bytes(lambda: WeylGroup(ct)) < bound


# one right table, as columns, and no weight matrix -> id dict: B5 peaks
# near 1,930 KiB, where a row table beside a transposed copy and the dict
# peaked near 2,500 KiB
def test_group_build_peak_with_one_right_table():
    ct = build_cartan("B", 5)
    assert _peak_bytes(lambda: WeylGroup(ct)) < 2400 * 1024


# the group keeps no weight matrix per element: B5 retains near 1,260 KiB
# once a full collection has emptied the free lists, where a table of
# matrices beside the signed roots retained near 1,590 KiB
def test_group_retains_no_weight_matrices():
    ct = build_cartan("B", 5)
    gc.collect()
    tracemalloc.start()
    try:
        group = WeylGroup(ct)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group) == 3840
    assert retained < 1536 * 1024


# ---------------------------------------------------------------------------
# quantum Bruhat graph


def test_qbg_rank_one():
    ct = build_cartan("A", 1)
    qbg = build_qbg(ct)
    assert qbg.vertex_count == 2
    assert qbg.edge_count == 2
    # identity up to s_1, s_1 down to the identity
    assert qbg_edges(qbg) == {(0, 0): (1, False), (1, 0): (0, True)}


@pytest.mark.parametrize("family,rank,count", [
    ("A", 2, 15), ("A", 3, 104), ("B", 3, 240), ("C", 3, 238),
    ("D", 4, 1336)])
def test_qbg_against_brute_force(family, rank, count):
    # the edge rule from matrix products and inversion counts, against
    # has_edge on every (w, k) and against edge_count
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    qbg = build_qbg(ct)
    expected = {}
    for w in range(len(group)):
        lw = length_by_inversions(ct, group.reduced_word(w))
        for k, beta in enumerate(ct.positive_roots_list):
            ws = group_mul(group, w, reflection(group, beta))
            lws = length_by_inversions(ct, group.reduced_word(ws))
            if lws == lw + 1:
                expected[(w, k)] = (ws, False)
            elif lws == lw - 2 * ct.pairing(beta, ct.rho) + 1:
                expected[(w, k)] = (ws, True)
    assert len(expected) == count
    assert qbg_edges(qbg) == expected
    assert qbg.edge_count == count
    for w in range(len(group)):
        for k in range(len(ct.positive_roots_list)):
            assert qbg.has_edge(w, k) == expected.get((w, k))


# the exports read whole columns w -> w s_beta, has_edge one pair's word
# walk: each column is the walk's w s_beta for every w (the DOT oracle
# checks the columns' kinds against has_edge)
@pytest.mark.parametrize("family,rank", EXPORT_TYPES)
def test_qbg_rows_match_has_edge_in_root_order(family, rank):
    ct = build_cartan(family, rank)
    group = build_qbg(ct).group
    for k in range(len(ct.positive_roots_list)):
        assert group.reflection_column(k) == tuple(
            group.times_reflection(w, k) for w in range(len(group)))


# the kinds 0/1/2 read per slot as the rule from the length difference to
# None (no edge), False (up) or True (down): has_edge and edge_count
@pytest.mark.parametrize("family,rank", EXPORT_TYPES + [("A", 1)])
def test_qbg_kinds_follow_the_length_difference_rule(family, rank):
    ct = build_cartan(family, rank)
    qbg = QuantumBruhatGraph(ct)
    group = qbg.group
    expected = {}
    for k, beta in enumerate(ct.positive_roots_list):
        rule = {1: False, 1 - 2 * ct.pairing(beta, ct.rho): True}
        for w in range(len(group)):
            ws = group.times_reflection(w, k)
            down = rule.get(group.lengths[ws] - group.lengths[w])
            edge = None if down is None else (ws, down)
            assert qbg.has_edge(w, k) == edge
            if edge is not None:
                expected[(w, k)] = edge
    assert qbg_edges(qbg) == expected
    assert qbg.edge_count == len(expected)


# the sweeps read the column table: with only its up edges nothing leads back
# to the identity, and with only its down edges nothing leaves it
@pytest.mark.parametrize("keep", [{1, 2}, {1}, {2}], ids=["all", "up", "down"])
@pytest.mark.parametrize("family,rank", QBG_TYPES + [("A", 1)])
def test_qbg_strong_connectivity_needs_both_kinds(family, rank, keep):
    qbg = QuantumBruhatGraph(build_cartan(family, rank))
    for kinds in qbg._kinds:
        kinds[:] = bytes(kind if kind in keep else 0 for kind in kinds)
    assert qbg.is_strongly_connected() == (keep == {1, 2})


@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_qbg_strong_connectivity_and_down_identity(family, rank):
    ct = build_cartan(family, rank)
    group = build_weyl_group(ct)
    qbg = build_qbg(ct)
    assert qbg.is_strongly_connected()
    for (src, k), (dst, down) in qbg_edges(qbg).items():
        lw = group.lengths[src]
        lws = group.lengths[dst]
        beta = ct.positive_roots_list[k]
        if down:
            assert lw - lws == 2 * ct.pairing(beta, ct.rho) - 1
        else:
            assert lws == lw + 1


def test_qbg_at_most_one_edge_per_pair():
    # the column table lists each root once, in sorted order, so the
    # exports write at most one edge per (vertex, root) pair
    for family, rank in QBG_TYPES:
        qbg = build_qbg(build_cartan(family, rank))
        pos = qbg.cartan.positive_roots_list
        roots = [pos[k] for k, _, _ in qbg._columns]
        assert roots == sorted(set(pos))


def test_qbg_dot_output():
    dot = dot_text(build_qbg(build_cartan("A", 2)))
    assert dot.startswith("digraph qbg {")
    assert "style=dashed" in dot
    assert 'label="1,1"' in dot  # the theta-labeled edges


# the text is written in blocks: its writes join to the one-join text
@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_qbg_dot_streams_in_blocks(monkeypatch, family, rank):
    qbg = build_qbg(build_cartan(family, rank))
    monkeypatch.setattr(weyl, "EXPORT_BLOCK", 5)
    log = WriteLog()
    qbg.to_dot(log)
    assert "".join(log.writes) == qbg_dot_oracle(qbg)
    assert max(log.nodes_per_write()) == 5


# the export labels every vertex in one pass over the descent table, not
# with one word walk per vertex
def test_qbg_export_never_calls_reduced_word(monkeypatch):
    qbg = build_qbg(build_cartan("A", 3))

    def unused(group, w):
        pytest.fail("WeylGroup.reduced_word called by the QBG export")

    monkeypatch.setattr(WeylGroup, "reduced_word", unused)
    log = WriteLog()
    qbg.to_dot(log)
    assert "".join(log.writes) == qbg_dot_oracle(qbg)


# edge_count and the DOT export read the column table, and the qbg
# command writes the bytes of the graph's own export
@pytest.mark.parametrize("name,edges", [("A5", 6264), ("B4", 2908),
                                        ("C4", 2876), ("D4", 1336)])
def test_qbg_export_never_builds_the_adjacency(tmp_path, name, edges):
    qbg = weyl.QuantumBruhatGraph(build_cartan(name[0], int(name[1:])))
    assert qbg.edge_count == edges
    out = tmp_path / "qbg.dot"
    assert cli.main(["qbg", "--type", name, "--out", str(out)]) == 0
    assert out.read_text() == dot_text(qbg)


# a length table that disagrees with the right-multiplication table:
# reduced_word checks each word's length against it, and so the QBG export
def test_word_of_the_wrong_length_is_an_invariant_error():
    qbg = copy.copy(build_qbg(build_cartan("A", 2)))
    group = qbg.group = copy.copy(qbg.group)
    group.lengths = group.lengths[:-1] + (group.lengths[-1] + 1,)
    with pytest.raises(InvariantError, match="reduced word of the wrong length"):
        group.reduced_word(group.w0)
    with pytest.raises(InvariantError, match="reduced word of the wrong length"):
        qbg.to_dot(io.StringIO())


# ---------------------------------------------------------------------------
# Bruhat order


def test_bruhat_extremes():
    group = build_weyl_group(build_cartan("A", 2))
    for w in range(len(group)):
        assert bruhat_leq(group, group.identity, w)
        assert bruhat_leq(group, group.w0, w) == (w == group.w0)


def test_bruhat_a2_example():
    group = build_weyl_group(build_cartan("A", 2))
    s1 = reflection(group, (1, 0))
    s2s1 = group_mul(group, reflection(group, (0, 1)), s1)
    assert bruhat_leq(group, s1, s2s1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2)])
def test_bruhat_against_subword_oracle(family, rank):
    group = build_weyl_group(build_cartan(family, rank))
    for w in range(len(group)):
        lower = subword_products(group, w)
        for v in range(len(group)):
            assert bruhat_leq(group, v, w) == (v in lower)


# ---------------------------------------------------------------------------
# dominantization


def test_dominantize_fixed_point():
    ct = build_cartan("A", 2)
    (dom, level), word = dominantize(ct, (1, 0), 1)
    assert dom == (1, 0) and level == 1 and word == ()


def test_dominantize_a1_single_step():
    ct = build_cartan("A", 1)
    (dom, _), word = dominantize(ct, (-1,), 1)
    assert dom == (1,) and word == (1,)


def orbit_distance(ct, start, target, level, max_depth):
    """Oracle: shortest reflection count from start to target in the
    level-l orbit, by depth-bounded BFS (the full orbit is infinite)."""
    if start == target:
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, max_depth + 1):
        new = []
        for mu in frontier:
            for i in range(0, ct.rank + 1):
                img = affine_simple_reflection(ct, i, mu, level)
                if img == target:
                    return depth
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return None


def test_dominantize_c2_minimal_by_bfs():
    ct = build_cartan("C", 2)
    mu = (-2, 0)  # w0(2 pi_1)
    (dom, _), word = dominantize(ct, mu, 1)
    assert dom == (0, 0)
    assert len(word) == 4
    assert orbit_distance(ct, dom, mu, 1, len(word)) == 4


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2)])
@pytest.mark.parametrize("level", [1, 2])
def test_dominantize_round_trip(family, rank, level):
    ct = build_cartan(family, rank)
    box = range(-2, 3)
    for mu in itertools.product(box, repeat=rank):
        (dom, _), word = dominantize(ct, mu, level)
        assert all(x >= 0 for x in dom)
        assert level - ct.pairing(ct.theta, dom) >= 0
        back = dom
        for i in reversed(word):
            back = affine_simple_reflection(ct, i, back, level)
        assert back == tuple(mu)
        # greedy path length is minimal
        assert orbit_distance(ct, dom, tuple(mu), level, len(word)) == len(word)
