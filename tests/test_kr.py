import pytest

from helpers import (column_replication, is_rect_ssyt, promotion_inverse,
                     promotion_oracle, rect_tableaux_oracle, similarity_check,
                     ssyt_count_oracle)
from krcrystals import kr
from krcrystals.cartan import build_cartan, mat_vec, vec_sub
from krcrystals.crystals import (demazure_filter, explore_tensor,
                                 graphs_equal, hw_census)
from krcrystals.errors import (InvariantError, ResourceLimitError,
                               UnsupportedFactorError)
from krcrystals.kr import (fixture_C2, kn_letters, kn_weight, kr_C_onebox,
                           kr_typeA, promotion, rect_tableaux, tableau_ops,
                           tableau_weight)
from krcrystals.weyl import build_weyl_group

A2 = build_cartan("A", 2)
C2 = build_cartan("C", 2)


# ---------------------------------------------------------------------------
# tableaux and promotion


def test_rect_tableaux_counts():
    assert len(rect_tableaux(2, 1, 1)) == 3
    assert len(rect_tableaux(2, 1, 2)) == 6
    assert len(rect_tableaux(2, 2, 1)) == 3
    assert len(rect_tableaux(2, 2, 2)) == 6
    assert len(rect_tableaux(3, 2, 2)) == 20


# the tableaux come from a stack of column iterators, and promotion moves
# a hole along the top row at once: both against step-by-step references
# on every rectangle with n <= 4 and s <= 4
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tableaux_and_promotion_match_their_step_by_step_oracles(n):
    for r in range(1, n + 1):
        for s in range(1, 5):
            tableaux = rect_tableaux(n, r, s)
            assert tableaux == rect_tableaux_oracle(n, r, s)
            for t in tableaux:
                assert promotion(t, n) == promotion_oracle(t, n)


# the cap is tested against MacMahon's count before any column is made:
# exactly |B^{r,s}| tableaux, by the hook-content formula, fit a cap of
# that size and not one below it
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rect_tableaux_count_is_exact_at_the_cap(n):
    for r in range(1, n + 1):
        for s in range(1, 5):
            count = ssyt_count_oracle(n, r, s)
            assert len(rect_tableaux(n, r, s, count)) == count
            with pytest.raises(ResourceLimitError, match="^tableaux of "
                               "B\\^\\{%d,%d\\} exceed node cap %d$"
                               % (r, s, count - 1)):
                rect_tableaux(n, r, s, count - 1)


# B^{1,3000000} in A2 has 4.5e12 tableaux: refused from the count, before
# the columns of the rectangle are listed
def test_rect_tableaux_cap_stops_before_any_column(monkeypatch):
    def no_columns(*args):
        raise AssertionError("columns listed for an over-cap factor")
    monkeypatch.setattr(kr, "combinations", no_columns)
    with pytest.raises(ResourceLimitError,
                       match="exceed node cap 10$"):
        rect_tableaux(2, 1, 3_000_000, 10)


# every operator and promotion image is looked up in the factor's own
# index: one outside the family is an InvariantError, not a KeyError
@pytest.mark.parametrize("name", ["promotion", "tableau_ops"])
def test_an_image_outside_the_factor_is_an_invariant_error(monkeypatch,
                                                           name):
    not_a_tableau = ((0, 0),)
    fake = {"promotion": lambda t, n: not_a_tableau,
            "tableau_ops": lambda t, i: (not_a_tableau, None)}[name]
    monkeypatch.setattr(kr, name, fake)
    with pytest.raises(InvariantError, match="is not a tableau of "
                       "B\\^\\{1,2\\}$"):
        kr_typeA.__wrapped__(2, 1, 2)


# B^{1,1500} is wider than Python's recursion limit: the tableaux are
# made column by column without recursing
def test_a_factor_wider_than_the_recursion_limit():
    assert len(kr_typeA(1, 1, 1500)) == 1501


def test_promotion_single_box_cycles():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert promotion(((k,),), n) == ((k + 1,),)
        assert promotion(((n + 1,),), n) == ((1,),)


def all_small_rectangles(n):
    for r in range(1, n + 1):
        for s in range(1, 7):
            if r * s <= 6:
                yield r, s


@pytest.mark.parametrize("n", [2, 3])
def test_promotion_order_and_weight_rotation(n):
    for r, s in all_small_rectangles(n):
        seen = set()
        for t in rect_tableaux(n, r, s):
            img = t
            counts = [0] * (n + 1)
            for row in t:
                for x in row:
                    counts[x - 1] += 1
            for _ in range(n + 1):
                img = promotion(img, n)
                assert is_rect_ssyt(img, n)
            assert img == t            # pr^{n+1} = id
            once = promotion(t, n)
            rotated = [0] * (n + 1)
            for row in once:
                for x in row:
                    rotated[x - 1] += 1
            assert rotated == [counts[-1]] + counts[:-1]
            seen.add(once)
        assert len(seen) == len(rect_tableaux(n, r, s))  # bijective


def test_promotion_inverse():
    for t in rect_tableaux(2, 2, 2):
        assert promotion_inverse(promotion(t, 2), 2) == t


# ---------------------------------------------------------------------------
# the type A KR crystal


def test_kr_typeA_counts_and_zero_edges():
    g = kr_typeA(2, 1, 1)
    assert len(g) == 3
    zero = g.edges_of_color(0)
    assert [(g.nodes[s], g.nodes[d]) for s, d in zero] == [(((3,),), ((1,),))]
    assert len(kr_typeA(2, 1, 2)) == 6
    g21 = kr_typeA(2, 2, 1)
    assert len(g21) == 3
    assert hw_census(g21, (1, 2)) == [(0, 1)]   # classical B(pi_2)


@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2),
                                   (2, 2, 2), (2, 1, 3), (3, 1, 1),
                                   (3, 2, 2)])
def test_kr_typeA_seminormal_and_irreducible(n, r, s):
    g = kr_typeA(n, r, s)
    assert g.seminormal() == []
    lam = tuple(s if j == r - 1 else 0 for j in range(n))
    assert hw_census(g, g.cartan.classical_index_set) == [lam]
    assert g.weights[g.extremal("max")] == lam
    group = build_weyl_group(g.cartan)
    assert g.weights[g.extremal("min")] == \
        mat_vec(group.weight_matrix(group.w0), lam)


def test_zero_arrow_weight_rule_picks_orientation():
    # chosen convention: f_0 = pr^{-1} . f_1 . pr raises the weight by theta
    g = kr_typeA(2, 2, 1)
    (edge,) = g.edges_of_color(0)
    src, dst = edge
    assert vec_sub(g.weights[dst], g.weights[src]) == A2.theta_weight
    # the swapped orientation pr . f_1 . pr^{-1} breaks the weight rule here
    t = ((1,), (2,))
    img, _ = tableau_ops(promotion_inverse(t, 2), 1)
    assert img is not None
    swapped = promotion(img, 2)
    delta = vec_sub(tableau_weight(swapped, 2), tableau_weight(t, 2))
    assert delta != A2.theta_weight


@pytest.fixture
def promotion_calls(monkeypatch):
    """The tableaux kr.promotion is called on, in call order."""
    calls = []

    def counted(t, n):
        calls.append(t)
        return promotion(t, n)
    monkeypatch.setattr(kr, "promotion", counted)
    return calls


@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 2), (3, 2, 2),
                                   (3, 1, 4)])
def test_one_promotion_per_tableau(promotion_calls, n, r, s):
    g = kr_typeA.__wrapped__(n, r, s)    # bypass the build cache
    assert sorted(promotion_calls) == sorted(rect_tableaux(n, r, s))
    assert len(promotion_calls) == len(g)


@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 2), (3, 2, 2),
                                   (3, 1, 4)])
def test_one_signature_pass_per_tableau_and_color(monkeypatch, n, r, s):
    calls = []

    def counted(t, i):
        calls.append((t, i))
        return tableau_ops(t, i)
    monkeypatch.setattr(kr, "tableau_ops", counted)
    g = kr_typeA.__wrapped__(n, r, s)    # bypass the build cache
    assert len(calls) == n * len(g)
    assert sorted(calls) == sorted((t, i) for t in rect_tableaux(n, r, s)
                                   for i in range(1, n + 1))


@pytest.mark.parametrize("n", [2, 3])
def test_zero_arrows_match_the_promotion_power_oracle(n):
    for r, s in all_small_rectangles(n):
        g = kr_typeA(n, r, s)
        for k, t in enumerate(g.nodes):
            for table, img in zip((g.fs[0], g.es[0]),
                                  tableau_ops(promotion(t, n), 1)):
                want = None if img is None \
                    else g.index[promotion_inverse(img, n)]
                assert table[k] == want


def test_promotion_that_is_no_bijection_is_an_invariant_error(monkeypatch):
    first = rect_tableaux(2, 1, 2)[0]
    monkeypatch.setattr(kr, "promotion", lambda t, n: first)
    with pytest.raises(InvariantError, match="not a bijection of B"):
        kr_typeA.__wrapped__(2, 1, 2)


def test_zero_string_lengths_b12():
    g = kr_typeA(2, 1, 2)
    lengths = {g.eps(i, 0) + g.phi(i, 0) for i in range(len(g))}
    assert max(lengths) == 2   # one 0-string of length 2, one of length 1
    assert len(g.edges_of_color(0)) == 3


def test_kr_invalid_factors():
    with pytest.raises(UnsupportedFactorError):
        kr_typeA(2, 3, 1)
    with pytest.raises(UnsupportedFactorError):
        kr_typeA(2, 1, 0)


# ---------------------------------------------------------------------------
# the type C one-box crystal


def test_kn_letters_and_weights():
    assert kn_letters(2) == [1, 2, -2, -1]
    assert kn_weight(1, 2) == (1, 0)
    assert kn_weight(2, 2) == (-1, 1)
    assert kn_weight(-2, 2) == (1, -1)
    assert kn_weight(-1, 2) == (-1, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_kr_C_onebox(n):
    g = kr_C_onebox(n)
    assert len(g) == 2 * n
    assert g.seminormal() == []
    ct = g.cartan
    one = g.index[1]
    barone = g.index[-1]
    assert g.f(barone, 0) == one
    assert g.e(one, 0) == barone
    # the affine pairing at the letter 1: phi_0 - eps_0 = -<theta^vee, wt(1)>
    assert g.phi(one, 0) - g.eps(one, 0) == -ct.pairing(ct.theta, (1,) + (0,) * (n - 1))
    assert g.phi(one, 0) - g.eps(one, 0) == -1


# ---------------------------------------------------------------------------
# the C2 fixtures


def test_fixture_counts_match_figure():
    ft = fixture_C2("tensor11")
    assert len(ft) == 16 and ft.edge_count == 15
    per_color = {c: len(ft.edges_of_color(c)) for c in (0, 1, 2)}
    assert per_color == {0: 1, 1: 8, 2: 6}
    fb = fixture_C2("B12")
    assert len(fb) == 11 and fb.edge_count == 11
    per_color = {c: len(fb.edges_of_color(c)) for c in (0, 1, 2)}
    assert per_color == {0: 1, 1: 6, 2: 4}


def test_fixture_nodes_from_figure():
    ft = fixture_C2("tensor11")
    for node in [(1, 1), (-1, -1), (-2, -1)]:
        assert node in ft.index
    fb = fixture_C2("B12")
    assert () in fb.index
    (zero_edge,) = fb.edges_of_color(0)
    assert fb.nodes[zero_edge[0]] == () and fb.nodes[zero_edge[1]] == (1, 1)


def test_fixture_equals_computed_filtration():
    graph = explore_tensor(C2, [kr_C_onebox(2), kr_C_onebox(2)])
    assert graphs_equal(demazure_filter(graph, 1, "head"),
                        fixture_C2("tensor11"))


def test_fixtures_pass_seminormality():
    assert fixture_C2("tensor11").seminormal() == []
    assert fixture_C2("B12").seminormal() == []


# ---------------------------------------------------------------------------
# similarity


@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (3, 1, 1)])
def test_column_replication_similarity(n, r, s):
    small = kr_typeA(n, r, s)
    big = kr_typeA(n, r, 2 * s)
    assert similarity_check(lambda t: column_replication(t, 2), 2,
                            small, big)


def test_column_replication_shape():
    assert column_replication(((1, 2), (2, 3)), 2) == ((1, 1, 2, 2),
                                                       (2, 2, 3, 3))
