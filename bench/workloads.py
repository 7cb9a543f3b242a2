"""The benchmark's workloads: ops as `krcrystals` CLI argv lists, chosen
from a seed.

Each workload is a list of slots.  A slot holds variants that do the same
work (Dynkin-mirror images, or orderings of one factor multiset); the seed
picks one variant per slot, and for `alcove-qbg` also shuffles the order of
the ops.  Every op writes one file, whose expected node count comes from a
closed formula here, independent of the library.
"""

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, prod

# argv: the CLI arguments without --out; ext: "json" or "dot"; nodes: the
# node count of the exported graph, or None for a check report
Op = namedtuple("Op", "argv ext nodes")


def op_key(op):
    """The op's identity in the recorded digests."""
    return " ".join(op.argv + ("--out", "OUT." + op.ext))


# -- closed-form sizes --------------------------------------------------------


def kr_size(family, n, r, s):
    """|B^{r,s}| for the factors the library can build: the number of
    semistandard r x s rectangles with entries <= n+1 (hook-content
    formula) in type A_n, and 2n for the one-box crystal of type C_n."""
    if family == "A":
        return int(prod(Fraction(n + 1 + j - i, r - i + s - j + 1)
                        for i in range(1, r + 1) for j in range(1, s + 1)))
    if (family, r, s) == ("C", 1, 1):
        return 2 * n
    raise ValueError("no size formula for %s%d B^{%d,%d}" % (family, n, r, s))


def column_size(family, n, i):
    """|B^{i,1}|, the size of one column of the alcove model's lambda:
    the i-th fundamental representation (plus nothing else for the types
    used here)."""
    if family == "A":
        return comb(n + 1, i)
    if family == "C":
        return comb(2 * n, i) - (comb(2 * n, i - 2) if i >= 2 else 0)
    if family == "D" and i == 1:
        return 2 * n
    if family == "D" and i in (n - 1, n):
        return 2 ** (n - 1)
    raise ValueError("no column size for %s%d i=%d" % (family, n, i))


def weyl_order(family, n):
    return {"A": factorial(n + 1), "B": 2 ** n * factorial(n),
            "C": 2 ** n * factorial(n),
            "D": 2 ** (n - 1) * factorial(n)}[family]


# -- op builders --------------------------------------------------------------


def _fmt(factors):
    return ":".join("%d,%d" % rs for rs in factors)


def check(*argv):
    return Op(("check",) + argv, "json", None)


def build(type_name, factors, ext, *view):
    family, n = type_name[0], int(type_name[1:])
    nodes = prod(kr_size(family, n, r, s) for r, s in factors)
    return Op(("build", "--type", type_name, "--factors", _fmt(factors))
              + view, ext, nodes)


def builds(type_name, multiset, ext, *view):
    """One build per distinct ordering of the factor multiset."""
    orders = sorted(set(itertools.permutations(multiset)))
    return [build(type_name, order, ext, *view) for order in orders]


def alcove(type_name, lam, ext):
    family, n = type_name[0], int(type_name[1:])
    nodes = prod(column_size(family, n, i) ** k
                 for i, k in enumerate(lam, 1) if k)
    return Op(("alcove", "--type", type_name,
               "--lambda", ",".join(map(str, lam))), ext, nodes)


def qbg(type_name):
    family, n = type_name[0], int(type_name[1:])
    return Op(("qbg", "--type", type_name), "dot", weyl_order(family, n))


# -- the workloads ------------------------------------------------------------

# verify-sweep: the paper's named checks, as a researcher re-verifying it,
# plus one anchored JSON export.  Anchor search (CrystalGraph.extremal)
# dominates; tensor exploration is a few per cent.
VERIFY_SWEEP = [
    [check("qsystem", "--type", "A3", "--a", "2", "--m", "3",
           "--level", "3")],
    [check("qsystem", "--type", "A4", "--a", a, "--m", "2", "--level", "2")
     for a in ("2", "3")],
    [check("bmin", "--type", "A3", "--factors", "2,1:2,1:2,1:2,1",
           "--level", "4")],
    [check("reduction", "--type", "A3", "--factors", "1,1:1,1:1,1",
           "--factors2", "1,3", "--level", "3")],
    [check("figure")],
    [check("qchar", "--type", "A3", "--a", a, "--m", "3")
     for a in ("1", "3")],
    [check("alcove", "--type", "A3", "--lambda", "1,1,1")],
    builds("A3", [(2, 1), (2, 1), (1, 1)], "json"),
]

# tensor-build: large tensor products exported to DOT.  Signature-rule
# exploration dominates and no anchor is searched, so this workload
# bypasses anchor-search changes and exercises tensor-exploration ones.
TENSOR_BUILD = [
    builds("A3", [(1, 1)] * 5 + [(3, 1)] * 2, "dot"),
    builds("A3", [(2, 1)] * 3 + [(1, 1)] * 3, "dot"),
    [build("C3", [(1, 1)] * 5, "dot", "--view", "demazure", "--level", "1")],
    builds("A2", [(1, 2), (2, 1), (1, 1), (2, 2)], "dot",
           "--view", "dual", "--level", "2"),
]

# alcove-qbg: the quantum alcove model (folding, the alcove operators) and
# the quantum Bruhat graph, cold across types and reused within one.
ALCOVE_QBG = [
    [alcove("A3", lam, "dot") for lam in ((2, 2, 1), (1, 2, 2))],
    [alcove("A1", (12,), "dot")],
    [alcove("D4", lam, "json")
     for lam in ((1, 0, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1))],
    [alcove("C3", (1, 1, 0), "dot")],
    [qbg("A5")], [qbg("B4")], [qbg("C4")], [qbg("D4")],
]

# name -> (slots, whether the seed shuffles the op order)
WORKLOADS = {
    "verify-sweep": (VERIFY_SWEEP, False),
    "tensor-build": (TENSOR_BUILD, False),
    "alcove-qbg": (ALCOVE_QBG, True),
}


def ops(workload, seed):
    """The op list of one workload for one seed."""
    slots, shuffle = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    chosen = [rng.choice(slot) for slot in slots]
    if shuffle:
        rng.shuffle(chosen)
    return chosen


def all_variants():
    """Every op any seed can choose, once each."""
    seen = {}
    for slots, _ in WORKLOADS.values():
        for slot in slots:
            for op in slot:
                seen.setdefault(op_key(op), op)
    return list(seen.values())
