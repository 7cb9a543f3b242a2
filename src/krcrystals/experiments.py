"""Named verifications of the isomorphism, decomposition, and Q-system
statements, each returning a machine-readable Report."""

import time
from collections import Counter
from functools import reduce

from .cartan import build_cartan, c_value, vec_add, vec_scale
from .crystals import (components, demazure_filter, explore_tensor,
                       graphs_equal, hw_census, iso_check, match_components,
                       trivial_crystal, DEFAULT_NODE_CAP)
from .errors import (AmbiguousAnchorError, LevelBoundError,
                     MaxWeightMismatchError, ResourceLimitError,
                     UnsupportedFactorError)
from .kr import fixture_C2, kr_C_onebox, kr_typeA
from .weyl import DEFAULT_WEYL_CAP, dominantize


class Report:
    """Outcome of one named check: it fails exactly when its witnesses
    carry a concrete counterexample."""

    def __init__(self, name, parameters, witnesses, elapsed):
        self.name = name
        self.parameters = parameters
        self.witnesses = witnesses
        self.elapsed = elapsed

    @property
    def status(self):
        return "fail" if "counterexample" in self.witnesses else "pass"

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        """The report without elapsed, which would make its bytes vary."""
        import json
        return json.dumps({"name": self.name, "parameters": self.parameters,
                           "status": self.status, "witnesses": self.witnesses},
                          separators=(",", ":")) + "\n"


def to_junit(reports):
    """JUnit-style XML for a list of reports (no timing attributes, so the
    output is byte-stable)."""
    from xml.sax.saxutils import escape, quoteattr
    failures = sum(1 for r in reports if not r.passed)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<testsuite name="krcrystals" tests="%d" failures="%d">'
             % (len(reports), failures)]
    for r in reports:
        name = quoteattr("%s %r" % (r.name, r.parameters))
        if r.passed:
            lines.append("  <testcase name=%s/>" % name)
        else:
            lines.append("  <testcase name=%s>" % name)
            lines.append("    <failure message=%s/>"
                         % quoteattr(escape(str(r.witnesses))))
            lines.append("  </testcase>")
    lines.append("</testsuite>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tensor-spec plumbing


def factor_name(r, s):
    return "B^{%d,%d}" % (r, s)


def max_weight(cartan, factors):
    total = (0,) * cartan.rank
    for r, s in factors:
        total = vec_add(total, vec_scale(s, cartan.fundamental_weight(r)))
    return total


def check_level_bound(cartan, factors, level):
    for r, s in factors:
        if s <= 0:
            continue
        c = c_value(cartan, r)
        need = -(-s // c)
        if need > level:
            raise LevelBoundError(
                "factor %s has level ceil(%d/%d) = %d > %d"
                % (factor_name(r, s), s, c, need, level))


def _check_node_cap(graph, what, node_cap):
    """The graph, or ResourceLimitError if it has more than node_cap nodes.
    The cached builders keep their cache keys: this runs on their result."""
    if len(graph) > node_cap:
        raise ResourceLimitError("%s of %d elements exceeds node cap %d"
                                 % (what, len(graph), node_cap))
    return graph


def build_factor(cartan, r, s, node_cap=DEFAULT_NODE_CAP):
    """One KR factor as an explored affine crystal graph of at most
    node_cap nodes."""
    if r not in cartan.classical_index_set or s < 0:
        raise UnsupportedFactorError("no factor %s in type %s"
                                     % (factor_name(r, s), cartan.type_name))
    if s == 0:
        g = trivial_crystal(cartan, cartan.index_set)
    elif cartan.family == "A":
        g = kr_typeA(cartan.rank, r, s, node_cap)
    elif cartan.family == "C" and (r, s) == (1, 1):
        g = kr_C_onebox(cartan.rank)
    else:
        raise UnsupportedFactorError(
            "factor %s is not constructible in type %s"
            % (factor_name(r, s), cartan.type_name))
    return _check_node_cap(g, "factor " + factor_name(r, s), node_cap)


def build_tensor(cartan, factors, node_cap=DEFAULT_NODE_CAP):
    """The unfiltered tensor product of KR factors, leftmost factor first."""
    if not factors:
        return _check_node_cap(trivial_crystal(cartan, cartan.index_set),
                               "empty tensor product", node_cap)
    graphs = [build_factor(cartan, r, s, node_cap) for r, s in factors]
    if len(graphs) == 1:
        return graphs[0]
    return explore_tensor(cartan, graphs, node_cap)


def build_filtered(cartan, factors, level, mode,
                   node_cap=DEFAULT_NODE_CAP):
    """The filtered tensor; the C_2 B^{1,2} fixture stands in for its own
    level-1 Demazure filtration and cannot be combined or refiltered."""
    factors = list(factors)
    if (cartan.family, cartan.rank) == ("C", 2) and (1, 2) in factors:
        if factors == [(1, 2)] and level == 1 and mode == "head":
            return _check_node_cap(fixture_C2("B12"), "factor B^{1,2}",
                                   node_cap)
        raise UnsupportedFactorError(
            "C2 B^{1,2} exists only as the level-1 Demazure fixture "
            "(single factor, level 1, head mode)")
    full = build_tensor(cartan, factors, node_cap)
    return demazure_filter(full, level, mode)


# ---------------------------------------------------------------------------
# the checks


def check_reduction(cartan, factors_b, factors_bp, level, mode="head",
                    node_cap=DEFAULT_NODE_CAP):
    """After filtering, are the components holding the minimal (head) or
    maximal (tail) elements of B and B' isomorphic?  CrystalGraph.extremal
    finds them: filtering keeps every node, so w0(lambda) and lambda stay
    the unique lowest and highest weights, and no Weyl group is built."""
    t0 = time.perf_counter()
    lam = max_weight(cartan, factors_b)
    lam2 = max_weight(cartan, factors_bp)
    if lam != lam2:
        raise MaxWeightMismatchError(
            "maximal weights differ: %r vs %r" % (lam, lam2))
    check_level_bound(cartan, factors_b, level)
    check_level_bound(cartan, factors_bp, level)

    graphs = [build_filtered(cartan, fs, level, mode, node_cap)
              for fs in (factors_b, factors_bp)]
    anchor_mode = "min" if mode == "head" else "max"
    comps = []
    sizes = []
    for g in graphs:
        node = g.extremal(anchor_mode)
        anchor_wt = g.weight(node)
        ids = g.component_ids()
        comps.append(next(c for c in ids if node in c))
        sizes.append(sorted(map(len, ids)))
    mapping = iso_check(graphs[0], graphs[1], anchor_mode, *comps)
    witnesses = {
        "component_sizes": [len(comps[0]), len(comps[1])],
        "anchor_weight": list(anchor_wt),
        "all_component_sizes": sizes,
    }
    if mapping is None:
        weights_b, weights_bp = (sorted(list(g.weights[i]) for i in ids)
                                 for g, ids in zip(graphs, comps))
        witnesses["counterexample"] = {"weights_b": weights_b,
                                       "weights_bp": weights_bp}
    return Report("reduction",
                  {"type": cartan.type_name, "factors": list(map(list, factors_b)),
                   "factors2": list(map(list, factors_bp)),
                   "level": level, "mode": mode},
                  witnesses, time.perf_counter() - t0)


def check_bmin(cartan, factors, level, node_cap=DEFAULT_NODE_CAP):
    """Every component of the level-l Demazure filtration has a unique
    minimal element with weight gaps in Q_0^+, and dominantizing the
    minima reproduces the affine highest-weight census."""
    t0 = time.perf_counter()
    check_level_bound(cartan, factors, level)
    filtered = build_filtered(cartan, factors, level, "head", node_cap)
    comps = components(filtered)
    minima = []
    lambdas = []
    words = []
    counterexample = None
    for k, (_, ids) in enumerate(comps):
        try:
            bmin = filtered.extremal("min", ids)
        except AmbiguousAnchorError as err:
            counterexample = {"component": k, "reason": str(err)}
            break
        mu = filtered.weight(bmin)
        minima.append(list(mu))
        (dom, _), word = dominantize(cartan, mu, level)
        lambdas.append(tuple(dom))
        words.append(list(word))
    census = hw_census(filtered, filtered.colors)
    witnesses = {
        "component_sizes": [len(ids) for _, ids in comps],
        "minima": minima,
        "lambda_classical": sorted(map(list, lambdas)),
        "words": words,
        "census": [list(w) for w in census],
    }
    if counterexample is not None:
        witnesses["counterexample"] = counterexample
    elif sorted(lambdas) != census:
        witnesses["counterexample"] = {
            "reason": "census mismatch",
            "from_dominantize": sorted(map(list, lambdas)),
            "census": [list(w) for w in census],
        }
    return Report("bmin",
                  {"type": cartan.type_name,
                   "factors": list(map(list, factors)), "level": level},
                  witnesses, time.perf_counter() - t0)


def _neighbors(cartan, a):
    """The nodes of the Dynkin diagram joined to node a."""
    return [b for b in cartan.classical_index_set
            if b != a and cartan.cartan[a - 1][b - 1]]


def _type_A_only(name, cartan):
    """UnsupportedFactorError unless cartan is of type A, where the check
    named name holds."""
    if cartan.family != "A":
        raise UnsupportedFactorError("check %r runs in type A only, not %s%d"
                                     % (name, cartan.family, cartan.rank))


def _check_node_and_m(name, cartan, a, m):
    """Reject a Q-system instance Q_m^a outside type A_n, 1 <= a <= n,
    m >= 1."""
    _type_A_only(name, cartan)
    if not 1 <= a <= cartan.rank:
        raise UnsupportedFactorError("node a=%d out of range" % a)
    if m < 1:
        raise ValueError("m must be >= 1")


def check_qsystem_typeA(cartan, a, m, level, node_cap=DEFAULT_NODE_CAP):
    """Crystal-level Q-system instance: the filtered (B^{a,m-1})^(x)2 has
    the same component multiset as the filtered B^{a,m} (x) B^{a,m-2}
    together with the filtered product over the neighbors of a."""
    t0 = time.perf_counter()
    _check_node_and_m("qsystem", cartan, a, m)
    if level < m:
        raise LevelBoundError("need level >= m = %d, got %d" % (m, level))

    lhs_factors = [(a, m - 1), (a, m - 1)]
    rhs1_factors = [(a, m), (a, m - 2)]
    rhs2_factors = [(b, m - 1) for b in _neighbors(cartan, a)]

    def build(fs):
        if any(s < 0 for _, s in fs):
            return None  # an s = -1 factor kills the whole summand
        return build_filtered(cartan, fs, level, "head", node_cap)

    lhs, rhs1, rhs2 = map(build, (lhs_factors, rhs1_factors, rhs2_factors))

    rhs = [g for g in (rhs1, rhs2) if g is not None]
    comps_lhs = components(lhs)
    comps_rhs = [c for g in rhs for c in components(g)]
    comps_rhs.sort(key=lambda c: (len(c[1]),
                                  sorted(map(c[0].weights.__getitem__, c[1]))))
    # a perfect matching pairs components of equal size, so the size
    # ledger always balances when pairs is not None
    pairs = match_components(comps_lhs, comps_rhs, "min")
    witnesses = {
        "size_ledger": [len(lhs), [len(g) for g in rhs]],
        "lhs_component_sizes": [len(ids) for _, ids in comps_lhs],
        "rhs_component_sizes": [len(ids) for _, ids in comps_rhs],
    }
    if pairs is None:
        witnesses["counterexample"] = {
            "unmatched": "no perfect component matching"}
    else:
        witnesses["pairs"] = pairs
    return Report("qsystem",
                  {"type": cartan.type_name, "a": a, "m": m, "level": level},
                  witnesses, time.perf_counter() - t0)


def _char_product(c1, c2):
    out = Counter()
    for w1, k1 in c1.items():
        for w2, k2 in c2.items():
            out[vec_add(w1, w2)] += k1 * k2
    return out


def check_character_qsystem(cartan, a, m, node_cap=DEFAULT_NODE_CAP):
    """Monomial-exact classical character identity
    (Q_m^a)^2 = Q_{m+1}^a Q_{m-1}^a + Q_m^{a-1} Q_m^{a+1} in type A_n."""
    t0 = time.perf_counter()
    _check_node_and_m("qchar", cartan, a, m)

    def char(a, m):
        return Counter(build_factor(cartan, a, m, node_cap).weights)

    lhs = _char_product(char(a, m), char(a, m))
    # the neighbor product starts at Q^a_0 = 1, the trivial crystal
    rhs = _char_product(char(a, m + 1), char(a, m - 1)) + reduce(
        _char_product, (char(b, m) for b in _neighbors(cartan, a)),
        char(a, 0))
    witnesses = {"monomials_lhs": sum(lhs.values()),
                 "monomials_rhs": sum(rhs.values())}
    if lhs != rhs:
        diff = (lhs - rhs) + (rhs - lhs)
        w = sorted(diff)[0]
        witnesses["counterexample"] = {
            "weight": list(w), "lhs": lhs.get(w, 0), "rhs": rhs.get(w, 0)}
    return Report("qchar", {"type": cartan.type_name, "a": a, "m": m},
                  witnesses, time.perf_counter() - t0)


def check_alcove_correspondence(cartan, lam, level=1,
                                node_cap=DEFAULT_NODE_CAP,
                                weyl_cap=DEFAULT_WEYL_CAP):
    """A_l(Gamma) against the dual filtration of the matching single-column
    tensor product, component by component with maximal anchors."""
    t0 = time.perf_counter()
    _type_A_only("alcove", cartan)
    from .alcove import alcove_crystal
    lam = tuple(lam)
    alc = alcove_crystal(cartan, lam, level, node_cap=node_cap,
                         weyl_cap=weyl_cap)
    cols = [(i, 1) for i in cartan.classical_index_set
            for _ in range(lam[i - 1])]
    dual = build_filtered(cartan, cols, level, "tail", node_cap)
    comps_a = components(alc)
    comps_b = components(dual)
    pairs = match_components(comps_a, comps_b, "max")
    witnesses = {
        "alcove_size": len(alc),
        "tensor_size": len(dual),
        "alcove_component_sizes": [len(ids) for _, ids in comps_a],
        "tensor_component_sizes": [len(ids) for _, ids in comps_b],
    }
    if pairs is None:
        witnesses["counterexample"] = {
            "alcove_weights": sorted(map(list, alc.weights)),
            "tensor_weights": sorted(map(list, dual.weights)),
        }
    return Report("alcove",
                  {"type": cartan.type_name, "lambda": list(lam),
                   "level": level},
                  witnesses, time.perf_counter() - t0)


def check_figure(node_cap=DEFAULT_NODE_CAP):
    """Reconstruct both paper-figure crystals exactly: the computed level-1
    filtration of B^{1,1} (x) B^{1,1} must equal the transcribed fixture
    node-for-node, and the B^{1,2} fixture must carry the figure's node,
    edge, and 0-edge data."""
    t0 = time.perf_counter()
    cartan = build_cartan("C", 2)
    computed = build_filtered(cartan, [(1, 1), (1, 1)], 1, "head", node_cap)
    fix_t = fixture_C2("tensor11")
    fix_b = fixture_C2("B12")

    problems = []
    if not graphs_equal(computed, fix_t):
        problems.append("computed filtration differs from tensor11 fixture")
    if not (len(fix_t) == 16 and fix_t.edge_count == 15):
        problems.append("tensor11 fixture counts")
    zt = fix_t.edges_of_color(0)
    if not (len(zt) == 1
            and fix_t.nodes[zt[0][0]] == (-1, 1)
            and fix_t.nodes[zt[0][1]] == (1, 1)):
        problems.append("tensor11 zero-edge")
    if not (len(fix_b) == 11 and fix_b.edge_count == 11):
        problems.append("B12 fixture counts")
    zb = fix_b.edges_of_color(0)
    if not (len(zb) == 1
            and fix_b.nodes[zb[0][0]] == ()
            and fix_b.nodes[zb[0][1]] == (1, 1)):
        problems.append("B12 zero-edge")
    if fix_t.seminormal() or fix_b.seminormal():
        problems.append("fixture seminormality")

    node = computed.extremal("min")
    comp = next(c for c in computed.component_ids() if node in c)
    iso = iso_check(computed, fix_b, "min", comp)
    if iso is None:
        problems.append("11-node component not isomorphic to B12 fixture")

    witnesses = {
        "tensor11": {"nodes": len(fix_t), "edges": fix_t.edge_count,
                     "zero_edges": len(zt)},
        "B12": {"nodes": len(fix_b), "edges": fix_b.edge_count,
                "zero_edges": len(zb)},
        "min_component_size": len(comp),
    }
    if problems:
        witnesses["counterexample"] = problems
    return Report("figure", {}, witnesses, time.perf_counter() - t0)


# name -> (its function here, the CLI options it takes in call order, lam
# after the type it is parsed against); the CLI looks the function up by
# name as it runs, so a wrapped check is run
CHECKS = {
    "reduction": ("check_reduction",
                  ("type", "factors", "factors2", "level", "mode", "node_cap")),
    "bmin": ("check_bmin", ("type", "factors", "level", "node_cap")),
    "qsystem": ("check_qsystem_typeA",
                ("type", "a", "m", "level", "node_cap")),
    "qchar": ("check_character_qsystem", ("type", "a", "m", "node_cap")),
    "alcove": ("check_alcove_correspondence",
               ("type", "lam", "level", "node_cap", "weyl_cap")),
    "figure": ("check_figure", ("node_cap",)),
}
