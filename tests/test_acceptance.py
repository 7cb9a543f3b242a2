"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget."""

import itertools
import time

import pytest

from helpers import (TensorProduct, all_reduced_words, column_replication,
                     demazure_subset, is_connected, is_rect_ssyt, phi0,
                     qbg_edges, similarity_check)
from krcrystals.alcove import (build_lambda_chain, enumerate_admissible,
                               hw_crystal)
from krcrystals.cartan import build_cartan
from krcrystals.crystals import (components, demazure_filter, explore_tensor,
                                 graphs_equal)
from krcrystals.errors import LevelBoundError
from krcrystals.experiments import (check_alcove_correspondence, check_bmin,
                                    check_character_qsystem, check_figure,
                                    check_qsystem_typeA, check_reduction)
from krcrystals.kr import (fixture_C2, kr_C_onebox, kr_typeA, promotion,
                           rect_tableaux)
from krcrystals.weyl import build_qbg, build_weyl_group

A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
C2 = build_cartan("C", 2)


def stamp(number, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "criterion %d exceeded %gs" % (number, budget)
    print("PASS criterion %d: %s  [%.2fs < %gs]"
          % (number, detail, elapsed, budget))


def test_criterion_1_figure_exactness():
    t0 = time.perf_counter()
    rep = check_figure()
    assert rep.passed, rep.witnesses
    assert rep.witnesses["tensor11"] == {"nodes": 16, "edges": 15,
                                         "zero_edges": 1}
    # the figure's right-hand crystal carries 11 edges (6+4 classical + 1)
    assert rep.witnesses["B12"] == {"nodes": 11, "edges": 11,
                                    "zero_edges": 1}
    fx = fixture_C2("tensor11")
    (edge,) = fx.edges_of_color(0)
    assert fx.nodes[edge[0]] == (-1, 1) and fx.nodes[edge[1]] == (1, 1)
    fb = fixture_C2("B12")
    (edge,) = fb.edges_of_color(0)
    assert fb.nodes[edge[0]] == () and fb.nodes[edge[1]] == (1, 1)
    computed = demazure_filter(
        explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]), 1, "head")
    assert graphs_equal(computed, fx)
    stamp(1, "figure crystals reconstructed bit-exactly", t0, 1.0)


def test_criterion_2_example_typeC():
    t0 = time.perf_counter()
    filtered = demazure_filter(
        explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]), 1, "head")
    comps = components(filtered)
    assert [len(ids) for _, ids in comps] == [5, 11]
    rep = check_reduction(C2, [(1, 1), (1, 1)], [(1, 2)], 1, "head")
    assert rep.passed
    assert rep.witnesses["component_sizes"] == [11, 11]
    stamp(2, "two components (11, 5); 11-node piece isomorphic to "
          "filtered B^{1,2}", t0, 1.0)


@pytest.mark.parametrize("cartan,lam", [
    (A2, (1, 0)), (A2, (0, 1)), (A2, (1, 1)), (A2, (2, 0)), (A2, (1, 2)),
    (A3, (0, 1, 0)), (A3, (1, 0, 1)),
])
def test_criterion_3_alcove_model_correspondence(cartan, lam):
    t0 = time.perf_counter()
    rep = check_alcove_correspondence(cartan, lam, 1)
    assert rep.passed, rep.witnesses
    stamp(3, "alcove model matches dual filtration, %s lambda=%s (%d nodes)"
          % (cartan.type_name, list(lam), rep.witnesses["alcove_size"]),
          t0, 10.0)


@pytest.mark.parametrize("n,r,level", [(2, 1, 2), (2, 1, 3), (2, 2, 2),
                                       (3, 2, 2)])
def test_criterion_4_single_column_reduction(n, r, level):
    t0 = time.perf_counter()
    cartan = build_cartan("A", n)
    perfect = demazure_filter(kr_typeA(n, r, level), level, "tail")
    assert is_connected(perfect)
    rep = check_reduction(cartan, [(r, level)], [(r, 1)] * level,
                          level, "tail")
    assert rep.passed, rep.witnesses
    stamp(4, "B^{%d,%d} ~ (B^{%d,1})^%d at level %d, component size %d"
          % (r, level, r, level, level, rep.witnesses["component_sizes"][0]),
          t0, 30.0)


def test_criterion_5_demazure_decomposition():
    # the level bound is a stated precondition of check_bmin; the two
    # level-1 combinations below violate it and must raise, the rest pass
    valid = [(A2, [(1, 1), (2, 1)], 1), (A2, [(1, 1), (2, 1)], 2),
             (A2, [(1, 2), (1, 1)], 2), (A2, [(2, 2)], 2),
             (C2, [(1, 1), (1, 1)], 1), (C2, [(1, 2)], 1)]
    for cartan, factors, level in valid:
        t0 = time.perf_counter()
        rep = check_bmin(cartan, factors, level)
        assert rep.passed, (factors, level, rep.witnesses)
        stamp(5, "bmin/census %s %s level %d, components %s"
              % (cartan.type_name, factors, level,
                 rep.witnesses["component_sizes"]), t0, 10.0)
    for factors in ([(1, 2), (1, 1)], [(2, 2)]):
        with pytest.raises(LevelBoundError):
            check_bmin(A2, factors, 1)
    print("PASS criterion 5: level-1 runs on level-2 factors rejected "
          "per the level-bound precondition")


@pytest.mark.parametrize("n,a,m,level,ledger", [
    (2, 1, 2, 2, [9, [6, 3]]),
    (2, 1, 3, 3, [36, [30, 6]]),
    (2, 2, 2, 2, [9, [6, 3]]),
    (3, 2, 2, 2, [36, [20, 16]]),
])
def test_criterion_6_qsystem_crystal_level(n, a, m, level, ledger):
    t0 = time.perf_counter()
    rep = check_qsystem_typeA(build_cartan("A", n), a, m, level)
    assert rep.passed, rep.witnesses
    assert rep.witnesses["size_ledger"] == ledger
    stamp(6, "Q-system instance (n,a,m,l)=(%d,%d,%d,%d), sizes %s"
          % (n, a, m, level, ledger), t0, 60.0)


def test_criterion_7_qsystem_character_level():
    t0 = time.perf_counter()
    for n in (2, 3):
        for a in range(1, n + 1):
            for m in (1, 2, 3):
                rep = check_character_qsystem(build_cartan("A", n), a, m)
                assert rep.passed, (n, a, m, rep.witnesses)
    stamp(7, "character Q-system identity for all a, m <= 3, in A2 and A3",
          t0, 30.0)


def test_criterion_8a_seminormality_suite():
    t0 = time.perf_counter()
    graphs = [kr_C_onebox(2), kr_C_onebox(3),
              kr_typeA(2, 1, 1), kr_typeA(2, 2, 1), kr_typeA(2, 1, 2),
              kr_typeA(2, 2, 2), kr_typeA(3, 1, 1), kr_typeA(3, 2, 2),
              explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]),
              explore_tensor(A2, [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)]),
              fixture_C2("tensor11"), fixture_C2("B12")]
    from krcrystals.alcove import alcove_crystal
    graphs += [alcove_crystal(A2, (1, 1), 1), alcove_crystal(A2, (2, 0), 2),
               alcove_crystal(C2, (2, 0), 1)]
    graphs += [demazure_filter(g, 1, mode)
               for mode in ("head", "tail")
               for g in graphs[:10] if 0 in g.colors]
    for g in graphs:
        assert g.seminormal() == []
    stamp(8, "seminormality on every constructed crystal (%d graphs)"
          % len(graphs), t0, 60.0)


def test_criterion_8b_tensor_associativity_suite():
    t0 = time.perf_counter()
    pool = [kr_typeA(2, 1, 1), kr_typeA(2, 2, 1)]
    for g3, g2, g1 in itertools.product(pool, repeat=3):
        flat = TensorProduct([g3, g2, g1])
        left = TensorProduct([explore_tensor(A2, [g3, g2]), g1])
        right = TensorProduct([g3, explore_tensor(A2, [g2, g1])])
        for b in flat.all_elements():
            bl, br = ((b[0], b[1]), b[2]), (b[0], (b[1], b[2]))
            for c in flat.colors:
                fl = left.f(bl, c)
                fr = right.f(br, c)
                want = flat.f(b, c)
                assert (None if fl is None else (fl[0][0], fl[0][1], fl[1])) \
                    == want
                assert (None if fr is None else (fr[0], fr[1][0], fr[1][1])) \
                    == want
    stamp(8, "tensor associativity on all triples from {B^{1,1}, B^{2,1}}",
          t0, 60.0)


def test_criterion_8c_alcove_inverse_suite():
    t0 = time.perf_counter()
    from krcrystals.alcove import alcove_crystal
    cases = [(A2, (1, 0), 1), (A2, (1, 1), 1), (A2, (2, 0), 1),
             (A2, (2, 0), 2), (A3, (1, 0, 1), 1), (C2, (2, 0), 1)]
    for cartan, lam, level in cases:
        g = alcove_crystal(cartan, lam, level)
        for i in range(len(g)):
            for c in g.colors:
                img = g.f(i, c)
                if img is not None:
                    assert g.e(img, c) == i
                img = g.e(i, c)
                if img is not None:
                    assert g.f(img, c) == i
    stamp(8, "e/f inverse pairing on all alcove-model graphs", t0, 60.0)


def test_criterion_8d_promotion_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3):
        for r in range(1, n + 1):
            for s in range(1, 7):
                if r * s > 6:
                    continue
                for tab in rect_tableaux(n, r, s):
                    img = tab
                    for _ in range(n + 1):
                        img = promotion(img, n)
                        assert is_rect_ssyt(img, n)
                    assert img == tab
                    checked += 1
    stamp(8, "pr^(n+1) = id on %d rectangular tableaux with <= 6 cells"
          % checked, t0, 60.0)


def test_criterion_8e_demazure_word_independence_suite():
    t0 = time.perf_counter()
    for cartan in (A2, C2):
        graph = hw_crystal(cartan, (1, 1))
        group = build_weyl_group(cartan)
        for w in range(len(group)):
            words = all_reduced_words(group, w)
            results = {tuple(demazure_subset(graph, word)) for word in words}
            assert len(results) == 1
    stamp(8, "Demazure subsets reduced-word independent in A2 and C2",
          t0, 60.0)


def test_criterion_8f_qbg_suite():
    t0 = time.perf_counter()
    for family, rank in [("A", 2), ("A", 3), ("C", 2), ("C", 3),
                         ("B", 3), ("D", 4)]:
        ct = build_cartan(family, rank)
        group = build_weyl_group(ct)
        qbg = build_qbg(ct)
        assert qbg.is_strongly_connected()
        for (src, k), (dst, down) in qbg_edges(qbg).items():
            drop = group.lengths[src] - group.lengths[dst]
            beta = ct.positive_roots_list[k]
            if down:
                assert drop == 2 * ct.pairing(beta, ct.rho) - 1
            else:
                assert drop == -1
    stamp(8, "QBG strong connectivity and down-edge lengths in "
          "A2 A3 C2 C3 B3 D4", t0, 60.0)


def test_criterion_8g_similarity_suite():
    t0 = time.perf_counter()
    for n, r, s in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
        assert similarity_check(lambda tab: column_replication(tab, 2), 2,
                                kr_typeA(n, r, s), kr_typeA(n, r, 2 * s))
    stamp(8, "similarity maps B^{r,s} -> B^{r,2s} verified", t0, 60.0)


@pytest.mark.parametrize("lam", [(1, 1), (2, 0)])
def test_criterion_9_phi0_formula(lam):
    t0 = time.perf_counter()
    from krcrystals.alcove import alcove_crystal
    chain = build_lambda_chain(A2, lam)
    graph = alcove_crystal(A2, lam, 1)
    for J in enumerate_admissible(chain):
        assert phi0(chain, J) == graph.phi(graph.index[J], 0)
    stamp(9, "phi_0 = max(M-1, 0) equals counted 0-string length, "
          "lambda=%s" % (list(lam),), t0, 5.0)
