from fractions import Fraction
from operator import mul

import pytest

from helpers import (fraction_inverse, is_root, mat_mul, root_sign,
                     roots_and_coroots_oracle)
from krcrystals import cartan
from krcrystals.cartan import _MIN_RANK, build_cartan, c_value, parse_type
from krcrystals.crystals import CrystalGraph
from krcrystals.errors import AmbiguousAnchorError, UnsupportedRankError

# every family from its smallest supported rank up to rank 8
RANKS_UP_TO_8 = [(family, rank) for family, low in sorted(_MIN_RANK.items())
                 for rank in range(low, 9)]

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5)]


def solve_labels(affine):
    """Oracle: the normalized positive rational right/left null vectors of
    the affine Cartan matrix, by exact elimination."""
    n = len(affine)

    def nullvec(rows):
        mat = [[Fraction(x) for x in row] for row in rows]
        # x_0 := 1, solve the rest from rows 1..n-1 (row 0 is dependent)
        rhs = [-mat[i][0] for i in range(n)]
        sub = [[mat[i][j] for j in range(1, n)] for i in range(n)]
        # gaussian elimination on the (n x n-1) system, consistent by theory
        sol = [None] * (n - 1)
        rows_ = [list(r) + [rhs[i]] for i, r in enumerate(sub)]
        piv_rows = []
        col = 0
        for col in range(n - 1):
            prow = next(r for r in rows_ if r not in piv_rows and r[col] != 0)
            piv_rows.append(prow)
            for r in rows_:
                if r is not prow and r[col] != 0:
                    fac = r[col] / prow[col]
                    for k in range(n):
                        r[k] -= fac * prow[k]
        for i, prow in enumerate(piv_rows):
            sol[i] = prow[n - 1] / prow[i]
        return (Fraction(1),) + tuple(sol)

    marks = nullvec(affine)
    comarks = nullvec([[affine[j][i] for j in range(n)] for i in range(n)])
    return marks, comarks


def test_a1_affine_matrix_and_labels():
    ct = build_cartan("A", 1)
    assert ct.affine_cartan == ((2, -2), (-2, 2))
    assert ct.kac_labels == (1, 1)
    assert ct.dual_kac_labels == (1, 1)


def test_c2_labels_solved_from_null_conditions():
    ct = build_cartan("C", 2)
    marks, comarks = solve_labels(ct.affine_cartan)
    assert marks == (1, 2, 1)
    assert comarks == (1, 1, 1)
    assert ct.kac_labels == (1, 2, 1)
    assert ct.dual_kac_labels == (1, 1, 1)


def test_a3_labels_all_one():
    ct = build_cartan("A", 3)
    assert ct.kac_labels == (1, 1, 1, 1)
    assert ct.dual_kac_labels == (1, 1, 1, 1)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_labels_match_null_space_oracle(family, rank):
    ct = build_cartan(family, rank)
    marks, comarks = solve_labels(ct.affine_cartan)
    assert tuple(marks) == ct.kac_labels
    assert tuple(comarks) == ct.dual_kac_labels


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_affine_matrix_invariants(family, rank):
    ct = build_cartan(family, rank)
    aff = ct.affine_cartan
    n1 = rank + 1
    for i in range(n1):
        assert aff[i][i] == 2
        for j in range(n1):
            if i != j:
                assert aff[i][j] <= 0
            assert (aff[i][j] == 0) == (aff[j][i] == 0)
        assert sum(aff[i][j] * ct.kac_labels[j] for j in range(n1)) == 0
        assert sum(ct.dual_kac_labels[k] * aff[k][i] for k in range(n1)) == 0


def test_c_value_examples():
    assert c_value(build_cartan("C", 2), 1) == 2
    assert c_value(build_cartan("C", 2), 2) == 1
    for r in (1, 2, 3):
        assert c_value(build_cartan("A", 3), r) == 1


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_c_value_patterns(family, rank):
    ct = build_cartan(family, rank)
    for r in ct.classical_index_set:
        c = c_value(ct, r)
        if family in ("A", "D"):
            assert c == 1
        elif family == "C":
            assert c == (2 if r < rank else 1)
        else:  # B
            assert c == (2 if r == rank else 1)


def test_positive_root_counts():
    assert len(build_cartan("A", 2).positive_roots_list) == 3
    assert len(build_cartan("C", 2).positive_roots_list) == 4
    assert len(build_cartan("D", 4).positive_roots_list) == 12


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_count_formula(family, rank):
    n = rank
    expect = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
              "D": n * (n - 1)}[family]
    ct = build_cartan(family, rank)
    roots = ct.positive_roots_list
    assert len(roots) == expect
    assert len(set(roots)) == expect
    for beta in roots:
        assert root_sign(beta) == 1
        assert is_root(ct, beta)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_pairing_duality_and_rho(family, rank):
    ct = build_cartan(family, rank)
    for i in ct.classical_index_set:
        alpha = tuple(1 if j == i - 1 else 0 for j in range(rank))
        for j in ct.classical_index_set:
            assert ct.pairing(alpha, ct.fundamental_weight(j)) == \
                (1 if i == j else 0)
        assert ct.pairing(alpha, ct.rho) == 1


def test_pairing_examples():
    a2 = build_cartan("A", 2)
    assert a2.pairing(a2.theta, a2.rho) == 2
    for beta in a2.positive_roots_list:
        assert a2.pairing(beta, (0, 0)) == 0
    assert a2.pairing((1, 0), (1, 0)) == 1


def test_pairing_linear():
    ct = build_cartan("C", 3)
    beta = ct.theta
    u, v = (1, -2, 3), (0, 4, -1)
    s = tuple(a + b for a, b in zip(u, v))
    assert ct.pairing(beta, s) == ct.pairing(beta, u) + ct.pairing(beta, v)


def test_rank_range_errors():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("D", 2)]:
        with pytest.raises(UnsupportedRankError):
            build_cartan(family, rank)
    with pytest.raises(UnsupportedRankError):
        parse_type("E6~")


# a rank above 100 is refused before its Cartan matrix is made: at A99999
# that matrix has 10^10 entries
def test_rank_ceiling_is_checked_before_the_matrix(monkeypatch):
    def no_matrix(family, n):
        raise AssertionError("Cartan matrix built for rank %d" % n)
    monkeypatch.setattr(cartan, "_finite_cartan", no_matrix)
    for family in sorted(_MIN_RANK):
        with pytest.raises(UnsupportedRankError,
                           match="^rank 101 exceeds the rank ceiling 100$"):
            build_cartan(family, 101)
    with pytest.raises(UnsupportedRankError, match="rank ceiling 100$"):
        parse_type("A99999")


def test_parse_type():
    assert parse_type("C2~") is build_cartan("C", 2)
    assert parse_type("A3") is build_cartan("A", 3)
    with pytest.raises(UnsupportedRankError):
        parse_type("Q5")


def _dominance_leq(ct, mu, nu):
    """mu <= nu in dominance order, as CrystalGraph.extremal reads it off
    the Cartan data: nu is the unique maximum of two nodes of weights mu
    and nu, and mu the unique minimum."""
    g = CrystalGraph(ct, ct.index_set, ["mu", "nu"], {}, [mu, nu],
                     ["mu", "nu"])
    try:
        return g.extremal("max") == 1 and g.extremal("min") == 0
    except AmbiguousAnchorError:
        return False


def test_dominanceutilities():
    ct = build_cartan("A", 2)
    assert _dominance_leq(ct, (-1, -1), (1, 1))
    assert not _dominance_leq(ct, (1, 1), (-1, -1))
    # incomparable: difference not in the root lattice
    assert not _dominance_leq(ct, (0, 0), (1, 0))
    assert _dominance_leq(ct, (0, 0), (1, 1))             # theta


@pytest.mark.parametrize("family,rank", RANKS_UP_TO_8)
def test_adjugate_is_det_times_inverse(family, rank):
    ct = build_cartan(family, rank)
    det_identity = tuple(tuple(ct.det if i == j else 0 for j in range(rank))
                         for i in range(rank))
    assert mat_mul(ct.adj, ct.cartan) == det_identity
    assert mat_mul(ct.cartan, ct.adj) == det_identity
    assert ct.det == {"A": rank + 1, "B": 2, "C": 2, "D": 4}[family]
    inv = fraction_inverse(ct.cartan)
    assert ct.adj == tuple(tuple(ct.det * x for x in row) for row in inv)


# the root walk tries s_i only where a root's weight is nonzero and sums
# over the nonzero entries of a column; the dense walk over every s_i and
# every entry finds the same roots and coroots, and the weights it keeps
# are the roots' images under the Cartan matrix
@pytest.mark.parametrize("family,rank", RANKS_UP_TO_8 + [("A", 30),
                                                         ("D", 30)])
def test_root_walk_matches_the_dense_walk(family, rank):
    ct = cartan.CartanData(family, rank)
    assert ct._coroot_of == roots_and_coroots_oracle(ct)
    assert ct._root_weights == tuple(map(ct.root_to_weight,
                                         ct.positive_roots_list))


# the root data are read off the Cartan matrix alone; these check them with
# no symmetrizer, through <beta^vee, x> = beta^vee . A . x for roots x
@pytest.mark.parametrize("family,rank", RANKS_UP_TO_8)
def test_root_data_from_the_cartan_matrix(family, rank):
    ct = build_cartan(family, rank)
    positive = ct.positive_roots_list
    roots = set(positive) | {tuple(-x for x in beta) for beta in positive}
    for beta in roots:
        row = [sum(map(mul, ct.coroot_coords(beta), col))
               for col in zip(*ct.cartan)]
        assert sum(map(mul, row, beta)) == 2
        # s_beta is linear and s_beta(-x) = -s_beta(x): it permutes the
        # roots if it maps the positive ones to distinct roots
        images = {tuple(x - c * b for x, b in zip(gamma, beta))
                  for gamma in positive for c in [sum(map(mul, row, gamma))]}
        assert len(images) == len(positive) and images <= roots
    theta = ct.theta
    assert ct.is_dominant(ct.root_to_weight(theta))
    for i in range(rank):
        assert tuple(x + (j == i) for j, x in enumerate(theta)) not in roots
    assert ct.dual_kac_labels == (1,) + ct.coroot_coords(theta)
