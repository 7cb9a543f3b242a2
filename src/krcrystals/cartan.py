"""Cartan data for the untwisted affine families A, B, C, D, all read off
the finite Cartan matrix, the only per-family table.

Conventions used throughout the package:

* classical nodes are numbered 1..n (Bourbaki), the affine node is 0;
* classical weights are integer vectors in the fundamental-weight basis,
  stored as plain tuples, with position i-1 holding the coefficient of
  the i-th fundamental weight;
* row i of the Cartan matrix holds <alpha_i^vee, alpha_j>;
* roots are integer vectors in the simple-root basis, coroots in the
  simple-coroot basis, also tuples;
* all arithmetic is exact integer arithmetic, never floats.
"""

import re
from functools import lru_cache
from operator import mul

from .errors import InvariantError, UnsupportedRankError

# the families and their least ranks: the one table the others come from
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
FAMILIES = tuple(_MIN_RANK)
_TYPE_RE = re.compile(r"^([%s])(\d+)~?$" % "".join(FAMILIES))


# ---------------------------------------------------------------------------
# small exact linear algebra on tuples


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_neg(u):
    return tuple(-x for x in u)


def vec_scale(c, u):
    return tuple(c * x for x in u)


def _adjugate(matrix):
    """(det, adj) with adj·A = det·I, for a finite-type Cartan matrix A.

    Bareiss's fraction-free Gauss-Jordan elimination of [A | I]: entries
    stay minors of [A | I], so every division is exact, and the pivots are
    A's leading principal minors, all positive, so no row is swapped."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        p = aug[k]
        aug = [row if row is p else
               [(p[k] * x - row[k] * y) // prev for x, y in zip(row, p)]
               for row in aug]
        prev = p[k]
    return prev, tuple(tuple(row[n:]) for row in aug)


# ---------------------------------------------------------------------------
# construction of the finite data


def _finite_cartan(family, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if family == "B":
        a[n - 1][n - 2] = -2
    elif family == "C":
        a[n - 2][n - 1] = -2
    elif family == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


class CartanData:
    """Affine Cartan datum for one of A_n~, B_n~, C_n~, D_n~.

    One walk over the roots of the finite Cartan matrix gives each root
    with its coroot; theta is the root of greatest height, the Kac labels
    are (1,) + theta and (1,) + theta^vee, and ``_check_labels`` checks
    them against the affine matrix.  Immutable after construction; shared
    freely.  Instances are obtained through :func:`build_cartan`, which
    memoizes per (family, rank).
    """

    def __init__(self, family, rank):
        if family not in FAMILIES:
            raise UnsupportedRankError("unknown family %r" % (family,))
        if rank < _MIN_RANK[family]:
            raise UnsupportedRankError(
                "family %s needs rank >= %d, got %d"
                % (family, _MIN_RANK[family], rank))
        self.family = family
        self.rank = rank
        n = rank
        self.cartan = _finite_cartan(family, n)
        self.det, self.adj = _adjugate(self.cartan)
        self.rho = (1,) * n

        self._coroot_of = self._roots_and_coroots()
        self.positive_roots_list = tuple(sorted(
            (r for r in self._coroot_of if all(x >= 0 for x in r)),
            key=lambda r: (sum(r), r)))
        self.theta = self.positive_roots_list[-1]
        self.theta_weight = self.root_to_weight(self.theta)
        self.kac_labels = (1,) + self.theta
        # theta^vee = sum a_i^vee alpha_i^vee (Kac, section 6.1)
        self.dual_kac_labels = (1,) + self.coroot_coords(self.theta)

        self._root_index = {r: i for i, r in enumerate(self.positive_roots_list)}
        self._coroots = tuple(map(self.coroot_coords,
                                  self.positive_roots_list))
        self._root_weights = tuple(self.root_to_weight(r)
                                   for r in self.positive_roots_list)
        self.affine_cartan = self._affine_cartan()
        self._check_labels()

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, CartanData)
                and (self.family, self.rank) == (other.family, other.rank))

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return "CartanData(%s%d~)" % (self.family, self.rank)

    @property
    def type_name(self):
        return "%s%d~" % (self.family, self.rank)

    @property
    def index_set(self):
        return tuple(range(self.rank + 1))

    @property
    def classical_index_set(self):
        return tuple(range(1, self.rank + 1))

    # -- root/weight arithmetic --------------------------------------------

    def coroot_coords(self, root):
        """Coordinates of beta^vee in the simple-coroot basis."""
        return self._coroot_of[root]

    def pairing(self, root, weight):
        """<beta^vee, mu> for a root beta (alpha-basis) and weight mu (pi-basis)."""
        return sum(map(mul, self._coroot_of[root], weight))

    def root_to_weight(self, root):
        """Rewrite a root-basis vector in fundamental-weight coordinates."""
        return mat_vec(self.cartan, root)

    def simple_root_weight(self, i):
        """alpha_i (1-based i) in fundamental-weight coordinates."""
        return tuple(row[i - 1] for row in self.cartan)

    def fundamental_weight(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def dominance_leq(self, mu, nu):
        """mu <= nu in dominance order: nu - mu in Q_0^+, that is, its
        det-scaled simple-root coordinates adj·(nu - mu) are nonnegative
        multiples of det."""
        diff = vec_sub(nu, mu)
        return all(c >= 0 and c % self.det == 0
                   for c in (sum(map(mul, row, diff)) for row in self.adj))

    def is_dominant(self, weight):
        return all(x >= 0 for x in weight)

    # -- root system --------------------------------------------------------

    def _roots_and_coroots(self):
        """{root: coroot} over every root, negatives included: the orbit of
        the simple roots and coroots under the s_i, which act on a root
        through row i of the Cartan matrix and on a coroot through column
        i, since (s_i beta)^vee = s_i(beta^vee)."""
        a, n = self.cartan, self.rank
        coroot_of = {e: e for e in identity_matrix(n)}
        frontier = list(coroot_of)
        while frontier:
            new = []
            for beta in frontier:
                cor = coroot_of[beta]
                for i in range(n):
                    img = self.simple_reflection_on_root(i + 1, beta)
                    if img not in coroot_of:
                        c = sum(cor[j] * a[j][i] for j in range(n))
                        coroot_of[img] = cor[:i] + (cor[i] - c,) + cor[i + 1:]
                        new.append(img)
            frontier = new
        return coroot_of

    def simple_reflection_on_root(self, i, root):
        """s_i acting on a root-basis vector."""
        c = sum(self.cartan[i - 1][j] * root[j] for j in range(self.rank))
        out = list(root)
        out[i - 1] -= c
        return tuple(out)

    def root_sign(self, root):
        if all(x >= 0 for x in root) and any(x > 0 for x in root):
            return 1
        if all(x <= 0 for x in root) and any(x < 0 for x in root):
            return -1
        raise ValueError("not a root: %r" % (root,))

    # -- reflection matrices --------------------------------------------------

    def reflection_weight_matrix(self, root):
        """Matrix of s_beta on fundamental-weight coordinates."""
        n = self.rank
        bw = self.root_to_weight(root)
        cor = self.coroot_coords(root)
        return tuple(
            tuple((1 if i == j else 0) - bw[i] * cor[j] for j in range(n))
            for i in range(n)
        )

    # -- invariants -----------------------------------------------------------

    def _affine_cartan(self):
        n = self.rank
        top = [2] + [-self.pairing(self.theta, self.simple_root_weight(j))
                     for j in range(1, n + 1)]
        theta_w = self.theta_weight
        rows = [tuple(top)]
        for i in range(1, n + 1):
            pair0 = -theta_w[i - 1]  # <alpha_i^vee, theta>
            rows.append(tuple([pair0] + list(self.cartan[i - 1])))
        return tuple(rows)

    def _check_labels(self):
        aff = self.affine_cartan
        n1 = self.rank + 1
        for i in range(n1):
            if sum(aff[i][j] * self.kac_labels[j] for j in range(n1)) != 0:
                raise InvariantError("Kac labels fail the null-root condition")
            if sum(self.dual_kac_labels[k] * aff[k][i] for k in range(n1)) != 0:
                raise InvariantError("dual Kac labels fail the central condition")
        for i in range(n1):
            if aff[i][i] != 2:
                raise InvariantError("diagonal of affine Cartan matrix")
            for j in range(n1):
                if i != j and aff[i][j] > 0:
                    raise InvariantError("positive off-diagonal entry")
                if (aff[i][j] == 0) != (aff[j][i] == 0):
                    raise InvariantError("asymmetric zero pattern")


@lru_cache(maxsize=None)
def build_cartan(family, rank):
    """Affine Cartan data for the given family letter and rank."""
    return CartanData(family, int(rank))


def parse_type(name):
    """Parse a type string such as "C2" or "C2~" into CartanData."""
    m = _TYPE_RE.match(name.strip())
    if not m:
        raise UnsupportedRankError("cannot parse Cartan type %r" % (name,))
    return build_cartan(m.group(1), int(m.group(2)))


def c_value(cartan, r):
    """c_r = max(a_r / a_r^vee, 1), the level denominator of node r."""
    if r not in cartan.classical_index_set:
        raise UnsupportedRankError("node %r not in I_0" % (r,))
    a = cartan.kac_labels[r]
    av = cartan.dual_kac_labels[r]
    if a <= av:
        return 1
    if a % av:
        raise InvariantError("a_r not divisible by a_r^vee")
    return a // av
