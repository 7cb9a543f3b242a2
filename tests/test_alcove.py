import gc
import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (QBG_TYPES, alcove_e, alcove_f, decode_root,
                     e_on_oracle, f_on_oracle, fold_oracle,
                     folding_direction_oracle, folding_gamma_oracle,
                     folding_weight_oracle, g_graph_oracle, _height_walks,
                     is_admissible, is_bruhat_admissible, phi0,
                     validate_chain, walk_table_oracle)
from krcrystals import alcove
from krcrystals.alcove import (LambdaChain, alcove_crystal,
                               build_lambda_chain, enumerate_admissible, fold,
                               hw_crystal)
from krcrystals.cartan import build_cartan, vec_add, vec_sub
from krcrystals.crystals import (components, demazure_filter, explore_tensor,
                                 iso_check, match_components)
from krcrystals.errors import (InvariantError, NonDominantWeightError,
                               ResourceLimitError)
from krcrystals.kr import kr_C_onebox, kr_typeA
from krcrystals.weyl import QuantumBruhatGraph, build_qbg, build_weyl_group

A1 = build_cartan("A", 1)
A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
C2 = build_cartan("C", 2)
B3 = build_cartan("B", 3)
C3 = build_cartan("C", 3)
D4 = build_cartan("D", 4)

CHAIN_CASES = [
    (A1, (1,)), (A1, (2,)),
    (A2, (1, 0)), (A2, (0, 1)), (A2, (1, 1)), (A2, (2, 0)), (A2, (1, 2)),
    (A3, (0, 1, 0)), (A3, (1, 0, 1)),
    (C2, (1, 0)), (C2, (0, 1)), (C2, (2, 0)), (C2, (1, 1)),
    (C3, (1, 0, 0)), (B3, (1, 0, 0)), (D4, (1, 0, 0, 0)),
]

# multi-column chains whose foldings are checked against fold_oracle
ORACLE_CASES = [
    (A2, (2, 1), "lex"), (A3, (2, 2, 1), "lex"), (A3, (2, 2, 1), "revlex"),
    (B3, (1, 1, 0), "lex"), (C3, (1, 1, 0), "lex"), (D4, (1, 0, 0, 1), "lex"),
]
ORACLE_IDS = ["%s%d-%s-%s" % (ct.family, ct.rank, "".join(map(str, lam)),
                               order) for ct, lam, order in ORACLE_CASES]


# ---------------------------------------------------------------------------
# chains


def test_chain_empty_for_zero_weight():
    chain = build_lambda_chain(A2, (0, 0))
    assert chain.m == 0
    assert list(enumerate_admissible(chain)) == [()]


def test_chain_a1_double():
    chain = build_lambda_chain(A1, (2,))
    assert chain.roots == ((1,), (1,))
    assert chain.l == (0, 1)
    assert chain.l_tilde == (2, 1)


def test_chain_c2_two_omega1():
    chain = build_lambda_chain(C2, (2, 0))
    assert chain.m == sum(C2.pairing(beta, (2, 0))
                          for beta in C2.positive_roots_list) == 6


def test_chain_rejects_nondominant():
    with pytest.raises(NonDominantWeightError):
        build_lambda_chain(A2, (1, -1))


# (1,) gave a chain with m = 2 and (1, 0, 5) a bare IndexError in the folding
@pytest.mark.parametrize("lam", [(), (1,), (1, 0, 5)])
def test_chain_rejects_lambda_of_wrong_length(lam):
    with pytest.raises(ValueError, match="^lambda needs 2 coordinates$"):
        build_lambda_chain(A2, lam)
    with pytest.raises(ValueError, match="^lambda needs 2 coordinates$"):
        alcove_crystal(A2, lam)


@pytest.mark.parametrize("cartan,lam", CHAIN_CASES)
def test_chain_multiplicity_invariant(cartan, lam):
    chain = build_lambda_chain(cartan, lam)
    for beta in cartan.positive_roots_list:
        count = sum(1 for b in chain.roots if b == beta)
        assert count == cartan.pairing(beta, lam)
    for i in range(chain.m):
        assert chain.l[i] == sum(1 for j in range(i)
                                 if chain.roots[j] == chain.roots[i])
        assert chain.l_tilde[i] == sum(1 for j in range(i, chain.m)
                                       if chain.roots[j] == chain.roots[i])


@pytest.mark.parametrize("cartan,lam", CHAIN_CASES)
@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_chain_is_reduced_alcove_path(cartan, lam, order):
    # full geometric validation: every crossing uses a wall of the current
    # alcove, crosses against the root, and the walk ends at A_{-lambda}
    assert validate_chain(build_lambda_chain(cartan, lam, order))


def fraction_key_order(cartan, lam, order):
    """The lambda-chain order from the unscaled keys (k/p, beta^vee/p) as
    Fractions, under the same stable sort."""
    items = []
    for beta in cartan.positive_roots_list:
        p = cartan.pairing(beta, lam)
        cor = cartan.coroot_coords(beta)
        if order == "revlex":
            cor = tuple(reversed(cor))
        for k in range(max(p, 0)):
            key = (Fraction(k, p),) + tuple(Fraction(c, p) for c in cor)
            items.append((key, beta))
    items.sort(key=lambda t: t[0])
    return tuple(beta for _, beta in items)


@pytest.mark.parametrize("order", ["lex", "revlex"])
@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_chain_order_matches_fraction_keys(family, rank, order):
    ct = build_cartan(family, rank)
    # rho, and a weight whose pairings p have several distinct values
    for lam in (ct.rho, (2,) + (0,) * (rank - 2) + (3,)):
        assert LambdaChain(ct, lam, order).roots == \
            fraction_key_order(ct, lam, order)


# ---------------------------------------------------------------------------
# admissible subsets


def test_empty_set_always_admissible():
    for cartan, lam in [(A2, (1, 1)), (C2, (2, 0))]:
        chain = build_lambda_chain(cartan, lam)
        assert () in enumerate_admissible(chain)
        assert is_admissible(chain, ())


def test_admissible_counts_match_kr_sizes():
    assert len(enumerate_admissible(build_lambda_chain(A2, (1, 0)))) == 3
    assert len(enumerate_admissible(build_lambda_chain(A2, (1, 1)))) == 9
    assert len(enumerate_admissible(build_lambda_chain(A2, (2, 0)))) == 9
    assert len(enumerate_admissible(build_lambda_chain(A3, (1, 0, 1)))) == 16


def test_enumeration_is_dfs_ordered():
    subsets = list(enumerate_admissible(build_lambda_chain(A2, (2, 0))))
    assert subsets[0] == ()
    assert subsets == sorted(subsets)


@pytest.mark.parametrize("family,rank", QBG_TYPES)
def test_bruhat_enumeration_keeps_the_walks_of_covers(family, rank):
    # the quantum subsets whose walk only goes up, in the same order
    ct = build_cartan(family, rank)
    lam = (1,) + (0,) * (rank - 2) + (1,)
    chain = build_lambda_chain(ct, lam)
    bruhat = enumerate_admissible(chain, quantum=False)
    subsets = enumerate_admissible(chain)
    assert list(bruhat) == [J for J in subsets
                            if is_bruhat_admissible(chain, J)]
    assert len(bruhat) < len(subsets)


def fold_step_log(monkeypatch):
    """The position j of every _walk_step call, in call order."""
    log = []
    step = alcove._walk_step

    def logged(chain, parent, J, j, skel):
        log.append(j)
        return step(chain, parent, J, j, skel)

    monkeypatch.setattr(alcove, "_walk_step", logged)
    return log


def has_edge_log(monkeypatch):
    """Every QBG edge the DFS asks for, in call order: (w, the edge found
    or None, the map of subsets the DFS is filling, read from its local
    out, and the depth of the Python stack at the call)."""
    log = []
    has_edge = QuantumBruhatGraph.has_edge

    def logged(qbg, w, root_idx):
        caller = sys._getframe(1)
        depth, frame = 0, caller
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        edge = has_edge(qbg, w, root_idx)
        log.append((w, edge, caller.f_locals["out"], depth))
        return edge

    monkeypatch.setattr(QuantumBruhatGraph, "has_edge", logged)
    return log


def test_enumeration_stops_at_the_node_cap(monkeypatch):
    # the cap is hit at the edge that would make the 9th subset: the map
    # holds the first 8 subsets and no edge is asked for after it
    chain = build_lambda_chain(A2, (1, 1))
    subsets = list(enumerate_admissible(chain, node_cap=9))
    assert len(subsets) == 9
    asked = has_edge_log(monkeypatch)
    with pytest.raises(ResourceLimitError, match="node cap 8"):
        enumerate_admissible(chain, node_cap=8)
    made = asked[-1][2]
    assert list(made) == subsets[:8]
    assert asked[-1][1] is not None
    assert sum(edge is not None for _, edge, _, _ in asked) == 8


def test_enumeration_is_not_recursive(monkeypatch):
    # every subset of the 1100 positions is admissible, and the first DFS
    # path goes 1100 levels deep before the cap is reached, asking every
    # edge from one Python stack depth
    chain = build_lambda_chain(A1, (1100,))
    asked = has_edge_log(monkeypatch)
    with pytest.raises(ResourceLimitError):
        enumerate_admissible(chain, node_cap=1200)
    made = list(asked[-1][2])
    assert len(made) == 1200
    assert made[:1101] == [tuple(range(1, k + 1)) for k in range(1101)]
    assert len({depth for _, _, _, depth in asked}) == 1


# a map that lacks an inner subset no operator of an earlier subset
# reaches: the parent check, not the operator check, refuses it at the
# subset's first child, where on A2 (1,1) the path is too short and on
# A2 (2,1) the entry one level up is an earlier sibling's.  Only the
# subsets before the gap are walked: none folded afresh, none walked from
# a stale entry
@pytest.mark.parametrize("lam,missing", [((1, 1), (1, 2)), ((2, 1), (3,))])
def test_a_subset_without_its_parent_is_never_folded(monkeypatch, lam,
                                                     missing):
    chain = build_lambda_chain(A2, lam)
    dirs = enumerate_admissible(chain)
    subsets = list(dirs)
    gap = subsets.index(missing)
    assert subsets[gap + 1][:-1] == missing
    kept = {K: w for K, w in dirs.items() if K != missing}
    monkeypatch.setattr(alcove, "fold",
                        lambda *args: pytest.fail("a subset folded afresh"))
    folded = fold_step_log(monkeypatch)
    with pytest.raises(InvariantError, match="^%s$" % re.escape(
            "the admissible map lacks %r, the parent of %r"
            % (missing, subsets[gap + 1]))):
        alcove.explore(chain, kept, 1, range(3))
    assert folded == [J[-1] if J else 0 for J in subsets[:gap]]


# ---------------------------------------------------------------------------
# foldings


def test_fold_empty_subset():
    chain = build_lambda_chain(A2, (1, 1))
    fol = fold(chain, ())
    assert fol.weight == (1, 1)
    assert fol.gamma == tuple(k + 1 for k in chain.root_indices)
    assert fol.levels == chain.l
    assert fol.gamma_inf == A2.rho


def test_fold_single_reflection_a1():
    chain = build_lambda_chain(A1, (1,))
    assert fold(chain, (1,)).weight == (-1,)


@pytest.mark.parametrize("cartan,lam", [(A2, (1, 1)), (A2, (2, 0)),
                                        (C2, (2, 0)), (A3, (1, 0, 1))])
def test_fold_weight_matches_reflection_oracle(cartan, lam):
    chain = build_lambda_chain(cartan, lam)
    group = build_weyl_group(cartan)
    for J in enumerate_admissible(chain):
        fol = fold(chain, J)
        assert fol.weight == folding_weight_oracle(chain, J)
        assert group.weight_matrix(fol.final_dir) == \
            folding_direction_oracle(chain, J)
        assert tuple(decode_root(cartan, g) for g in fol.gamma) == \
            folding_gamma_oracle(chain, J)


@pytest.mark.parametrize("cartan,lam,order", ORACLE_CASES, ids=ORACLE_IDS)
def test_fold_matches_from_scratch_oracle(cartan, lam, order):
    # the table build's weights, each walk from its parent's, the final
    # elements of the quantum and the Bruhat-only subsets, and fold, against
    # the one-pass loop
    chain = build_lambda_chain(cartan, lam, order)
    for quantum in (True, False):
        dirs = enumerate_admissible(chain, quantum=quantum)
        walked = list(alcove._walks(chain, dirs))
        assert [J for J, _, _ in walked] == list(dirs)
        for J, weight, _ in walked:
            want = fold_oracle(chain, J)
            assert weight == want.weight
            assert dirs[J] == want.final_dir
            assert fold(chain, J) == want
    assert not hasattr(chain, "foldings")


@pytest.mark.parametrize("cartan,lam,order", ORACLE_CASES, ids=ORACLE_IDS)
def test_fold_of_any_subset_matches_oracle(cartan, lam, order):
    chain = build_lambda_chain(cartan, lam, order)
    enumerate_admissible(chain)
    positions = range(1, chain.m + 1)
    rng = random.Random(9)
    subsets = [tuple(positions)] + [
        tuple(sorted(rng.sample(positions, rng.randint(1, chain.m))))
        for _ in range(40)]
    assert sum(not is_admissible(chain, J) for J in subsets) >= 15
    # fold and fold_oracle run one loop; the weight, the direction and the
    # roots are also checked against reflections built afresh
    group = build_weyl_group(cartan)
    for J in subsets:
        fol = fold(chain, J)
        assert fol == fold_oracle(chain, J)
        assert fol.weight == folding_weight_oracle(chain, J)
        assert group.weight_matrix(fol.final_dir) == \
            folding_direction_oracle(chain, J)
        assert tuple(decode_root(cartan, g) for g in fol.gamma) == \
            folding_gamma_oracle(chain, J)


@pytest.mark.parametrize("bad", [0, -1, 5])
def test_positions_outside_the_chain_are_rejected(bad):
    # m = 4: fold, and every operator that folds afresh, names the bad
    # position
    chain = build_lambda_chain(A2, (1, 1))
    enumerate_admissible(chain)
    assert chain.m == 4
    message = "^position %d outside 1..4$" % bad
    for call in (lambda: fold(chain, (bad,)), lambda: fold(chain, (1, bad)),
                 lambda: alcove_f(chain, (bad,), 1),
                 lambda: alcove_e(chain, (bad,), 1),
                 lambda: phi0(chain, (bad,))):
        with pytest.raises(ValueError, match=message):
            call()


def test_sign_partition_matches_qbg_tags():
    # J- (folding positions with negative gamma) are the quantum steps
    chain = build_lambda_chain(A2, (1, 1))
    qbg = build_qbg(A2)
    for J in enumerate_admissible(chain):
        fol = fold(chain, J)
        cur = qbg.group.identity
        for j in J:
            root_idx = A2._root_index[chain.roots[j - 1]]
            dst, down = qbg.has_edge(cur, root_idx)
            assert (fol.gamma[j - 1] < 0) == down
            cur = dst
        assert fol.final_dir == cur


# ---------------------------------------------------------------------------
# height profiles


def empty_walk(chain, p):
    """The table build's walk of color p's root over the empty subset."""
    (J, _, walks), *_ = alcove._walks(chain, enumerate_admissible(chain))
    assert J == ()
    return walks[chain.alphas[p][1]]


def test_ggraph_trivial_no_occurrences():
    chain = build_lambda_chain(A2, (0, 1))
    walk = empty_walk(chain, 1)  # alpha_1 never occurs
    assert list(walk[0]) == [] and walk[2] == 0
    assert alcove._rule(walk, 1, (), 0)[0] == 0


def test_ggraph_a1_basic():
    chain = build_lambda_chain(A1, (1,))
    assert alcove._rule(empty_walk(chain, 1), 1, (), 0)[0] == 1
    assert alcove_f(chain, (), 1) == (1,)


PROFILE_CASES = [(A1, (5,)), (A2, (1, 1)), (C2, (2, 0)), (B3, (1, 1, 0)),
                 (D4, (1, 0, 0, 1))]


@pytest.mark.parametrize("order", ["lex", "revlex"])
@pytest.mark.parametrize("cartan,lam", PROFILE_CASES, ids=[
    "%s%d-%s" % (ct.family, ct.rank, "".join(map(str, lam)))
    for ct, lam in PROFILE_CASES])
def test_height_profiles_match_per_color_oracle(cartan, lam, order):
    # every color's walk from the table build, read with the color's
    # sign, and the rule's maximum, against a separate scan of Gamma(J)
    # per color
    chain = build_lambda_chain(cartan, lam, order)
    for J, _, walks in alcove._walks(chain, enumerate_admissible(chain)):
        assert set(walks) == {rid for _, rid in chain.alphas}
        for p, (sign, rid) in enumerate(chain.alphas):
            want = g_graph_oracle(chain, J, p)
            positions, levels, l_inf = walks[rid]
            assert tuple(positions) == want.positions
            assert tuple(sign * h for h in levels) == want.heights
            assert sign * l_inf == want.h_inf
            assert alcove._rule(walks[rid], sign, J, int(p == 0))[0] == want.M


@pytest.mark.parametrize("J", [(), (2,), (1, 3)])
def test_height_profiles_cross_check_the_folding(J):
    # the oracle walk of a folding checks its levels and endpoint; the
    # table build's own check is test_the_table_checks_each_walked_level
    chain = build_lambda_chain(A2, (1, 1))
    fol = fold(chain, J)
    build = _height_walks
    positions = {i for p in range(3)
                 for i in g_graph_oracle(chain, J, p).positions}
    assert positions
    for i in positions:
        levels = list(fol.levels)
        levels[i - 1] += 1
        with pytest.raises(InvariantError,
                           match="^height/slope mismatch at position %d$" % i):
            build(chain, J, fol._replace(levels=tuple(levels)))
    with pytest.raises(InvariantError, match="^endpoint height mismatch$"):
        build(chain, J, fol._replace(weight=vec_add(fol.weight, (1, 0))))
    with pytest.raises(InvariantError,
                       match="^gamma_inf orthogonal to alpha$"):
        build(chain, J, fol._replace(gamma_inf=(0, 0)))


def skeleton_patch(monkeypatch, change):
    """Patch the table build's skeleton builder: change(gamma, signed,
    gamma_inf, wlam) returns the arguments the builder gets instead."""
    build = alcove._skeleton

    def patched(chain, *args):
        return build(chain, *change(*args))

    monkeypatch.setattr(alcove, "_skeleton", patched)


def first_tail(chain, dirs):
    """The first subset J (in the map's order) whose final element no
    earlier subset reaches and whose walk of some root has two positions
    or more past J's last: (the number of elements reached before J, the
    second of those positions)."""
    seen = set()
    for J, _, walks in alcove._walks(chain, dirs):
        w = dirs[J]
        if J and w not in seen:
            for positions, _, _ in walks.values():
                tail = [i for i in positions if i > J[-1]]
                if len(tail) >= 2:
                    return len(seen), tail[1]
        seen.add(w)
    raise AssertionError("no subset with a two-position tail")


TABLE_CHECK_CASES = [(A2, (1, 1)), (A3, (1, 2, 0))]


# the table build checks each level where a tail joins its parent's walk
# and by the skeleton's next bad index inside the tail: one signed l off by
# one at a walked position i is named as i, inside the empty subset's
# tails and at its junctions, and inside the tail of the first subset
# that reaches a new element, where no earlier subset sees the fault
@pytest.mark.parametrize("cartan,lam", TABLE_CHECK_CASES, ids=[
    "%s%d-%s" % (ct.family, ct.rank, "".join(map(str, lam)))
    for ct, lam in TABLE_CHECK_CASES])
def test_the_table_checks_each_walked_level(monkeypatch, cartan, lam):
    chain = build_lambda_chain(cartan, lam)
    dirs = enumerate_admissible(chain)
    _, _, walks = next(alcove._walks(chain, dirs))
    # (i, the skeleton build to patch, None for every build)
    cases = [(i, None) for positions, _, _ in walks.values()
             for i in positions]
    junctions = {positions[0] for positions, _, _ in walks.values()
                 if positions}
    assert {i for i, _ in cases} - junctions
    built, i = first_tail(chain, dirs)
    assert built > 0
    cases.append((i, built))
    for i, patched in cases:
        calls = []

        def off_by_one(gamma, signed, gamma_inf, wlam, i=i, patched=patched,
                       calls=calls):
            calls.append(i)
            if patched in (None, len(calls) - 1):
                signed = list(signed)
                signed[i - 1] += 1
            return gamma, signed, gamma_inf, wlam

        skeleton_patch(monkeypatch, off_by_one)
        with pytest.raises(InvariantError,
                           match="^height/slope mismatch at position %d$" % i):
            alcove.explore(chain, dirs, 1, range(cartan.rank + 1))
        assert len(calls) == (patched or 0) + 1
        monkeypatch.undo()
    steps = fold_step_log(monkeypatch)
    assert len(alcove.explore(chain, dirs, 1, range(cartan.rank + 1))) \
        == len(steps) == len(dirs)


@pytest.mark.parametrize("cartan,lam", TABLE_CHECK_CASES, ids=[
    "%s%d-%s" % (ct.family, ct.rank, "".join(map(str, lam)))
    for ct, lam in TABLE_CHECK_CASES])
def test_the_table_checks_each_endpoint(monkeypatch, cartan, lam):
    chain = build_lambda_chain(cartan, lam)
    dirs = enumerate_admissible(chain)
    colors = range(cartan.rank + 1)
    skeleton_patch(monkeypatch, lambda gamma, signed, gamma_inf, wlam: (
        gamma, signed, gamma_inf, (wlam[0] + 1,) + wlam[1:]))
    with pytest.raises(InvariantError, match="^endpoint height mismatch$"):
        alcove.explore(chain, dirs, 1, colors)
    monkeypatch.undo()
    skeleton_patch(monkeypatch, lambda gamma, signed, gamma_inf, wlam: (
        gamma, signed, (0,) * len(gamma_inf), wlam))
    with pytest.raises(InvariantError,
                       match="^gamma_inf orthogonal to alpha$"):
        alcove.explore(chain, dirs, 1, colors)


@pytest.mark.parametrize("cartan,lam", [(A2, (1, 1)), (A2, (2, 0)),
                                        (C2, (2, 0))])
def test_M_nonnegative_integer_everywhere(cartan, lam):
    chain = build_lambda_chain(cartan, lam)
    for J, _, walks in alcove._walks(chain, enumerate_admissible(chain)):
        for p in range(0, cartan.rank + 1):
            sign, rid = chain.alphas[p]
            M = alcove._rule(walks[rid], sign, J, int(p == 0))[0]
            assert isinstance(M, int) and M >= 0


# ---------------------------------------------------------------------------
# operators


def test_alcove_f_a1_examples():
    chain = build_lambda_chain(A1, (1,))
    assert alcove_f(chain, (), 1) == (1,)
    assert alcove_f(chain, (1,), 1) is None
    assert alcove_e(chain, (1,), 1) == ()
    assert alcove_e(chain, (), 0) is None


@pytest.mark.parametrize("cartan,lam", [(A2, (1, 1)), (A2, (2, 0)),
                                        (C2, (2, 0)), (A3, (0, 1, 0))])
@pytest.mark.parametrize("level", [1, 2])
def test_ef_inverse_weight_rule_admissibility(cartan, lam, level):
    chain = build_lambda_chain(cartan, lam)
    subsets = enumerate_admissible(chain)
    for J in subsets:
        for p in range(0, cartan.rank + 1):
            img = alcove_f(chain, J, p, level)
            if img is not None:
                assert is_admissible(chain, img)
                assert alcove_e(chain, img, p, level) == J
                alpha_wt = (tuple(-x for x in cartan.theta_weight)
                            if p == 0 else cartan.simple_root_weight(p))
                assert fold(chain, img).weight == \
                    vec_sub(fold(chain, J).weight, alpha_wt)
            up = alcove_e(chain, J, p, level)
            if up is not None:
                assert is_admissible(chain, up)
                assert alcove_f(chain, up, p, level) == J


def test_e_kills_empty_subset_classically():
    for cartan, lam in [(A2, (1, 1)), (A2, (2, 0)), (C2, (2, 0))]:
        chain = build_lambda_chain(cartan, lam)
        for p in cartan.classical_index_set:
            assert alcove_e(chain, (), p) is None


# colors run over 0..r and levels from 1, as in alcove_crystal: a color
# -1 must not index alpha_r from the end, a color r + 1 must not end in an
# IndexError, and a level 0 is a user error, not a broken invariant
@pytest.mark.parametrize("p", [-1, 3])
def test_colors_outside_0_to_r_are_rejected(p):
    chain = build_lambda_chain(A2, (1, 1))
    for call in (lambda: alcove_f(chain, (), p),
                 lambda: alcove_e(chain, (), p)):
        with pytest.raises(ValueError, match=r"^color %d outside 0\.\.2$" % p):
            call()


@pytest.mark.parametrize("level", [0, -1])
def test_levels_below_1_are_rejected(level):
    chain = build_lambda_chain(A2, (1, 1))
    for op in (alcove_f, alcove_e):
        for p in range(3):
            with pytest.raises(ValueError, match="^level must be >= 1$"):
                op(chain, (), p, level)


@pytest.mark.parametrize("level", [0, -1])
def test_explore_rejects_levels_below_1(monkeypatch, level):
    # a user error, raised before any subset is walked, not the rule's
    # broken invariant on the first subset
    chain = build_lambda_chain(A2, (1, 1))
    foldings = enumerate_admissible(chain)
    monkeypatch.setattr(alcove, "_walk_step",
                        lambda *args: pytest.fail("a subset was walked"))
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        alcove.explore(chain, foldings, level, range(3))


OPERATOR_CASES = [(A2, (1, 1)), (A3, (1, 2, 0)), (C3, (1, 1, 0)),
                  (D4, (1, 0, 0, 1)), (B3, (0, 1, 1))]


@pytest.mark.parametrize("build", ["level1", "level2", "hw"])
@pytest.mark.parametrize("cartan,lam", OPERATOR_CASES, ids=[
    "%s%d-%s" % (ct.family, ct.rank, "".join(map(str, lam)))
    for ct, lam in OPERATOR_CASES])
def test_operator_tables_match_the_profile_oracle(cartan, lam, build):
    # every color's f and e table, read off one walk per subset, against
    # the per-profile rule on a separate scan of Gamma(J) per color
    if build == "hw":
        graph, level = hw_crystal(cartan, lam), 1
    else:
        level = int(build[-1])
        graph = alcove_crystal(cartan, lam, level)
    nodes = graph.nodes
    for k, J in enumerate(nodes):
        for p in graph.colors:
            gg = g_graph_oracle(graph.chain, J, p)
            for table, oracle in ((graph.fs, f_on_oracle),
                                  (graph.es, e_on_oracle)):
                img = table[p][k]
                assert (None if img is None else nodes[img]) == \
                    oracle(gg, J, level)


BOUND_CASES = list(dict.fromkeys(
    CHAIN_CASES + PROFILE_CASES + OPERATOR_CASES))


# w -> w s_i is a QBG edge for every w and simple root alpha_i (the length
# changes by 1 = -(1 - 2 <rho, alpha_i^vee>)), and the chain crosses alpha_i
# lambda_i times, so every subset of those sum(lambda) positions is
# admissible: the bound the alcove command's node-cap pre-check refuses by,
# an equality in A1, where every position crosses alpha_1
@pytest.mark.parametrize("cartan,lam", BOUND_CASES, ids=[
    "%s%d-%s" % (ct.family, ct.rank, "".join(map(str, lam)))
    for ct, lam in BOUND_CASES])
def test_alcove_crystal_has_two_to_the_sum_of_lambda_subsets(cartan, lam):
    size = len(alcove_crystal(cartan, lam))
    assert size >= 2 ** sum(lam)
    assert (size == 2 ** sum(lam)) == (cartan.rank == 1 or sum(lam) == 0)


# instances where many subsets share a final element, so most walks are
# a parent's walk extended by a tail of a skeleton built once: A1 lambda=8
# has 256 subsets on 2 elements, A3 (1,2,2) 2304 subsets on 24
REUSE_CASES = [(A1, (8,), order) for order in ("lex", "revlex")] + \
    [(A3, (1, 2, 2), order) for order in ("lex", "revlex")]


@pytest.mark.parametrize("build", ["level1", "level2", "hw"])
@pytest.mark.parametrize("cartan,lam,order", REUSE_CASES, ids=[
    "%s%d-%s-%s" % (ct.family, ct.rank, "".join(map(str, lam)), order)
    for ct, lam, order in REUSE_CASES])
def test_operator_tables_match_the_oracle_table(cartan, lam, order, build):
    # every f, e and weight of the table against the same rule on walks
    # of foldings made from scratch, subset by subset
    chain = build_lambda_chain(cartan, lam, order)
    quantum = build != "hw"
    dirs = enumerate_admissible(chain, quantum=quantum)
    level = int(build[-1]) if quantum else 1
    colors = tuple(range(cartan.rank + 1)) if quantum \
        else cartan.classical_index_set
    graph = alcove.explore(chain, dirs, level, colors)
    fs, es, weights = walk_table_oracle(chain, dirs, level, colors)
    assert {c: list(graph.fs[c]) for c in colors} == fs
    assert {c: list(graph.es[c]) for c in colors} == es
    assert list(graph.weights) == weights
    if quantum:
        assert 10 * len(set(dirs.values())) < len(dirs)


# ---------------------------------------------------------------------------
# phi_0 and the assembled crystal


@pytest.mark.parametrize("lam", [(1, 1), (2, 0)])
def test_phi0_formula_equals_string_length(lam):
    chain = build_lambda_chain(A2, lam)
    graph = alcove_crystal(A2, lam, 1)
    for J in enumerate_admissible(chain):
        node = graph.index[J]
        assert phi0(chain, J) == graph.phi(node, 0)


def test_each_height_profile_is_built_once(monkeypatch):
    # one step per subset makes the walks all r + 1 colors read
    built = []
    build = alcove._walk_step

    def counted(chain, parent, J, j, skel):
        built.append(J)
        return build(chain, parent, J, j, skel)

    monkeypatch.setattr(alcove, "_walk_step", counted)
    graph = alcove_crystal(A3, (1, 1, 1))
    assert len(built) == len(graph) == len(set(built))


# the DFS asks the QBG one edge at a time: a use of the column table on
# the alcove path would build the whole graph; a data descriptor on the
# class wins over a table cached on an instance by an earlier test
def test_alcove_path_never_builds_the_qbg_adjacency(monkeypatch):
    def unused(qbg):
        pytest.fail("QuantumBruhatGraph._columns read on the alcove path")

    monkeypatch.setattr(QuantumBruhatGraph, "_columns", property(unused))
    assert len(alcove_crystal(D4, (1, 0, 0, 1))) == 64  # |B^{1,1}| |B^{4,1}|
    assert len(hw_crystal(D4, (1, 0, 0, 1))) == 56      # dim V(w1 + w4)


# the table build holds one folding per level of depth, not one per
# subset: alcove_crystal(A3, (2, 2, 1)) peaks about 260 KiB above the graph
# it returns, and a subset -> folding map took it to about 970 KiB
def test_alcove_table_build_holds_no_folding_map():
    alcove_crystal(A3, (2, 2, 1))     # the group and the QBG, built once
    gc.collect()
    tracemalloc.start()
    try:
        graph = alcove_crystal(A3, (2, 2, 1))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == 2304
    assert peak - retained <= 512 * 1024


# the one check that refuses A2 (1,1)'s map without each subset: an earlier
# subset's operator reaching it, or, for (1, 2), which no earlier operator
# reaches, the parent check at its first child (1, 2, 3)
LEFT = "crystal operators left the admissible family"
DROPPED = {(1,): LEFT,
           (1, 2): "the admissible map lacks (1, 2), the parent of (1, 2, 3)",
           (1, 2, 3): LEFT, (1, 2, 3, 4): LEFT, (1, 3): LEFT, (1, 4): LEFT,
           (3,): LEFT, (3, 4): LEFT}


@pytest.mark.parametrize("quantum", [True, False])
def test_operators_leaving_the_admissible_family(quantum):
    # drop one subset from the DFS's map: the table build refuses to fold
    # it afresh
    chain = build_lambda_chain(A2, (1, 1))
    foldings = enumerate_admissible(chain, quantum=quantum)
    colors = range(3) if quantum else A2.classical_index_set
    subsets = list(foldings)[1:]
    # (1, 2, 3, 4) takes a quantum step
    assert subsets == [J for J in DROPPED if quantum or J != (1, 2, 3, 4)]
    for J in subsets:
        kept = {K: fol for K, fol in foldings.items() if K != J}
        with pytest.raises(InvariantError,
                           match="^%s$" % re.escape(DROPPED[J])):
            alcove.explore(chain, kept, 1, colors)


def test_alcove_crystal_a2_fundamental():
    graph = alcove_crystal(A2, (1, 0), 1)
    assert len(graph) == 3
    dual = demazure_filter(kr_typeA(2, 1, 1), 1, "tail")
    assert iso_check(graph, dual, "max") is not None


def test_alcove_size_independent_of_level():
    for level in (1, 2, 3):
        assert len(alcove_crystal(A2, (2, 0), level)) == 9


def test_alcove_character_is_product_of_factors():
    graph = alcove_crystal(A2, (1, 1), 1)
    chars = Counter(graph.weights)
    prod = Counter()
    for w1, k1 in Counter(kr_typeA(2, 1, 1).weights).items():
        for w2, k2 in Counter(kr_typeA(2, 2, 1).weights).items():
            prod[vec_add(w1, w2)] += k1 * k2
    assert chars == prod
    # and in type C via the one-box factors
    graph = alcove_crystal(C2, (2, 0), 1)
    prod = Counter()
    for w1, k1 in Counter(kr_C_onebox(2).weights).items():
        for w2, k2 in Counter(kr_C_onebox(2).weights).items():
            prod[vec_add(w1, w2)] += k1 * k2
    assert Counter(graph.weights) == prod


def test_alcove_seminormal():
    for cartan, lam in [(A2, (1, 1)), (A2, (2, 0)), (C2, (2, 0))]:
        for level in (1, 2):
            assert alcove_crystal(cartan, lam, level).seminormal() == []


def test_higher_level_strips_zero_string_tails():
    # the level-l crystal equals the level-1 crystal with the last l-1
    # edges of every 0-string removed
    for lam in [(2, 0), (1, 1)]:
        base = alcove_crystal(A2, lam, 1)
        for level in (2, 3):
            expect = demazure_filter(base, level - 1, "tail")
            got = alcove_crystal(A2, lam, level)
            assert got.nodes == expect.nodes
            assert got.edges_sorted() == expect.edges_sorted()


def test_c2_two_omega1_matches_figure_zero_edge():
    graph = alcove_crystal(C2, (2, 0), 1)
    zero = graph.edges_of_color(0)
    assert len(zero) == 1
    src, dst = zero[0]
    assert graph.weights[src] == (-2, 0) and graph.weights[dst] == (0, 0)
    assert sorted(len(ids) for _, ids in components(graph)) == [5, 11]
    # same component data as the dual filtration of the box tensor
    dual = demazure_filter(
        explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)]), 1, "tail")
    assert match_components(components(graph), components(dual), "max") \
        is not None


def test_revlex_chain_gives_isomorphic_model():
    for cartan, lam in [(A2, (1, 1)), (C2, (2, 0))]:
        g1 = alcove_crystal(cartan, lam, 1, order="lex")
        g2 = alcove_crystal(cartan, lam, 1, order="revlex")
        assert match_components(components(g1), components(g2), "max") \
            is not None
