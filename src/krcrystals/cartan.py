"""Cartan data for the untwisted affine families A, B, C, D.

Conventions used throughout the package:

* classical nodes are numbered 1..n (Bourbaki), the affine node is 0;
* classical weights are integer vectors in the fundamental-weight basis,
  stored as plain tuples, with position i-1 holding the coefficient of
  the i-th fundamental weight;
* roots are integer vectors in the simple-root basis, also tuples;
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
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


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


def _symmetrizers(family, n):
    # (alpha_i, alpha_i)/2 up to overall scale; D*A is then symmetric.
    if family == "B":
        return (2,) * (n - 1) + (1,)
    if family == "C":
        return (1,) * (n - 1) + (2,)
    return (1,) * n


def _highest_root(family, n):
    if family == "A":
        return (1,) * n
    if family == "B":
        if n == 2:
            return (1, 2)
        return (1,) + (2,) * (n - 1)
    if family == "C":
        return (2,) * (n - 1) + (1,)
    # D
    return (1,) + (2,) * (n - 3) + (1, 1)


class CartanData:
    """Affine Cartan datum for one of A_n~, B_n~, C_n~, D_n~.

    Immutable after construction; shared freely.  Instances are obtained
    through :func:`build_cartan`, which memoizes per (family, rank).
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
        self.d = _symmetrizers(family, n)
        self.det, self.adj = _adjugate(self.cartan)
        self.theta = _highest_root(family, n)
        self.rho = (1,) * n

        # coroot coordinates of every root are integral; cache the scale of theta
        self._d_theta = self._half_norm(self.theta)
        self.theta_weight = self.root_to_weight(self.theta)

        # Kac labels: a_0 = 1 and theta = sum a_i alpha_i;
        # dual labels: a_i^vee = a_i d_i / d_theta with a_0^vee = 1.
        marks = (1,) + self.theta
        comarks = (1,) + tuple(
            a * d // self._d_theta for a, d in zip(self.theta, self.d))
        for a, d in zip(self.theta, self.d):
            if (a * d) % self._d_theta:
                raise InvariantError("non-integral dual Kac label")
        self.kac_labels = marks
        self.dual_kac_labels = comarks

        self.positive_roots_list = self._positive_roots()
        self._root_index = {r: i for i, r in enumerate(self.positive_roots_list)}
        self._coroots = tuple(self.coroot_coords(r) for r in self.positive_roots_list)
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

    def _half_norm(self, root):
        # (beta, beta)/2 in the scaled invariant form.
        av = mat_vec(self.cartan, root)
        tot = sum(b * d * x for b, d, x in zip(root, self.d, av))
        if tot % 2:
            raise InvariantError("odd squared root length")
        return tot // 2

    def coroot_coords(self, root):
        """Coordinates of beta^vee in the simple-coroot basis."""
        db = self._half_norm(root)
        out = []
        for b, d in zip(root, self.d):
            num = b * d
            if num % db:
                raise InvariantError("non-integral coroot coordinate")
            out.append(num // db)
        return tuple(out)

    def pairing(self, root, weight):
        """<beta^vee, mu> for a root beta (alpha-basis) and weight mu (pi-basis)."""
        k = self._root_index.get(root)
        cor = self.coroot_coords(root) if k is None else self._coroots[k]
        return sum(c * m for c, m in zip(cor, weight))

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

    def _positive_roots(self):
        n = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(1, n + 1):
                    img = self.simple_reflection_on_root(i, beta)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        pos = [r for r in seen if all(x >= 0 for x in r)]
        pos.sort(key=lambda r: (sum(r), r))
        return tuple(pos)

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
