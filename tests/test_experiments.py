import json

import pytest

from krcrystals import experiments
from krcrystals.cartan import build_cartan
from krcrystals.cli import main
from krcrystals.crystals import CrystalGraph, trivial_crystal
from krcrystals.errors import (AmbiguousAnchorError, LevelBoundError,
                               MaxWeightMismatchError, UnsupportedFactorError)
from krcrystals.experiments import (Report, build_factor, build_filtered,
                                    build_tensor, check_alcove_correspondence,
                                    check_bmin, check_character_qsystem,
                                    check_figure, check_qsystem_typeA,
                                    check_reduction, to_junit)

A2 = build_cartan("A", 2)
A3 = build_cartan("A", 3)
C2 = build_cartan("C", 2)


def test_reduction_reflexive():
    for mode in ("head", "tail"):
        rep = check_reduction(A2, [(1, 1), (2, 1)], [(1, 1), (2, 1)], 1, mode)
        assert rep.passed


def test_reduction_c2_example():
    rep = check_reduction(C2, [(1, 1), (1, 1)], [(1, 2)], 1, "head")
    assert rep.passed
    assert rep.witnesses["component_sizes"] == [11, 11]


def test_reduction_a2_dual_example():
    rep = check_reduction(A2, [(1, 2)], [(1, 1), (1, 1)], 2, "tail")
    assert rep.passed
    assert rep.witnesses["component_sizes"] == [6, 6]


def test_reduction_factor_order_swap():
    rep = check_reduction(A2, [(1, 1), (2, 1)], [(2, 1), (1, 1)], 1, "head")
    assert rep.passed


def test_reduction_rejects_mismatched_weights():
    with pytest.raises(MaxWeightMismatchError):
        check_reduction(A2, [(1, 1)], [(2, 1)], 1, "head")


def test_reduction_rejects_unbounded_level():
    with pytest.raises(LevelBoundError, match=r"B\^\{1,2\}"):
        check_reduction(A2, [(1, 2)], [(1, 1), (1, 1)], 1, "head")


def test_unconstructible_factor_named():
    with pytest.raises(UnsupportedFactorError, match=r"B\^\{2,1\}"):
        build_factor(C2, 2, 1)
    with pytest.raises(UnsupportedFactorError):
        build_filtered(C2, [(1, 2), (1, 1)], 1, "head")
    with pytest.raises(UnsupportedFactorError):
        build_filtered(C2, [(1, 2)], 2, "head")


def test_trivial_factors():
    g = build_tensor(A2, [])
    assert len(g) == 1
    g = build_tensor(A2, [(1, 0), (2, 1)])
    assert len(g) == 3


def test_bmin_examples():
    cases = [(A2, [(1, 1), (2, 1)], 1), (A2, [(1, 1), (2, 1)], 2),
             (A2, [(1, 2), (1, 1)], 2), (A2, [(2, 2)], 2),
             (C2, [(1, 1), (1, 1)], 1), (C2, [(1, 2)], 1)]
    for ct, factors, level in cases:
        rep = check_bmin(ct, factors, level)
        assert rep.passed, (factors, level, rep.witnesses)
        assert len(rep.witnesses["census"]) == \
            len(rep.witnesses["component_sizes"])


def test_bmin_c2_fixture_details():
    rep = check_bmin(C2, [(1, 1), (1, 1)], 1)
    assert rep.witnesses["component_sizes"] == [5, 11]
    assert sorted(rep.witnesses["census"]) == [[0, 0], [0, 1]]


def test_bmin_single_node():
    rep = check_bmin(A2, [], 1)
    assert rep.passed
    assert rep.witnesses["component_sizes"] == [1]


def test_bmin_level_bound_enforced():
    for factors in ([(1, 2), (1, 1)], [(2, 2)]):
        with pytest.raises(LevelBoundError):
            check_bmin(A2, factors, 1)


def test_qsystem_examples():
    rep = check_qsystem_typeA(A2, 1, 2, 2)
    assert rep.passed
    assert rep.witnesses["size_ledger"] == [9, [6, 3]]
    rep = check_qsystem_typeA(A3, 2, 2, 2)
    assert rep.passed
    assert rep.witnesses["size_ledger"] == [36, [20, 16]]


def test_qsystem_degenerate_m1():
    rep = check_qsystem_typeA(A2, 1, 1, 1)
    assert rep.passed


def test_qsystem_level_bound():
    with pytest.raises(LevelBoundError):
        check_qsystem_typeA(A2, 1, 2, 1)


# both Q-system checks are type-A statements: a C3 or D4 CartanData is
# refused, not run as the type-A instance of its rank
@pytest.mark.parametrize("cartan", [build_cartan("C", 3),
                                    build_cartan("D", 4)], ids=["C3", "D4"])
@pytest.mark.parametrize("check,name", [
    (lambda cartan: check_qsystem_typeA(cartan, 1, 1, 1), "qsystem"),
    (lambda cartan: check_character_qsystem(cartan, 1, 1), "qchar"),
], ids=["qsystem", "qchar"])
def test_qsystem_checks_refuse_other_families(cartan, check, name):
    with pytest.raises(UnsupportedFactorError, match="^check %r runs in type "
                       "A only, not %s%d$" % (name, cartan.family,
                                              cartan.rank)):
        check(cartan)


def test_qchar_examples():
    assert check_character_qsystem(A2, 1, 1).passed
    assert check_character_qsystem(A3, 2, 2).passed
    # boundary convention Q^{(0)} = Q^{(n+1)} = 1
    assert check_character_qsystem(A2, 2, 2).passed


def test_alcove_correspondence_examples():
    assert check_alcove_correspondence(A2, (1, 0), 1).passed
    rep = check_alcove_correspondence(A2, (1, 1), 1)
    assert rep.passed
    assert rep.witnesses["alcove_size"] == 9


def test_alcove_correspondence_type_restriction():
    with pytest.raises(UnsupportedFactorError):
        check_alcove_correspondence(C2, (1, 0), 1)


def test_figure_check():
    rep = check_figure()
    assert rep.passed
    assert rep.witnesses["tensor11"] == {"nodes": 16, "edges": 15,
                                         "zero_edges": 1}
    assert rep.witnesses["B12"] == {"nodes": 11, "edges": 11,
                                    "zero_edges": 1}


def test_report_serialization():
    rep = check_figure()
    data = json.loads(rep.to_json())
    assert set(data) == {"name", "parameters", "status", "witnesses"}
    assert rep.to_json() == rep.to_json()
    assert rep.elapsed >= 0


def test_junit_output():
    reports = [check_figure(),
               Report("demo", {"x": 1}, {"counterexample": "n/a"}, 0.0)]
    xml = to_junit(reports)
    assert xml.startswith('<?xml version="1.0"')
    assert 'tests="2" failures="1"' in xml
    assert "<failure" in xml


# a report's verdict is read off its witnesses: it fails exactly when they
# carry a counterexample
def test_report_fails_exactly_with_a_counterexample():
    failing = Report("demo", {}, {"size": 3, "counterexample": [1]}, 0.0)
    passing = Report("demo", {}, {"size": 3}, 0.0)
    assert (failing.status, failing.passed) == ("fail", False)
    assert (passing.status, passing.passed) == ("pass", True)
    assert json.loads(failing.to_json())["status"] == "fail"
    assert json.loads(passing.to_json())["status"] == "pass"


# ---------------------------------------------------------------------------
# failing reports: each check's failure branch, forced in-process


def _no_anchor(self, mode, ids=None):
    raise AmbiguousAnchorError("forced")


def _no_iso(g1, g2, mode, ids1=None, ids2=None):
    return None


def _trivial_factor(n, a, m, node_cap):
    return trivial_crystal(build_cartan("A", n), range(n + 1))


# (patched owner, name, replacement), the check, and its counterexample:
# the whole witness where it is small, else its keys
FAILING_CASES = [
    ((experiments, "hw_census", lambda graph, colors: []),
     lambda: check_bmin(A2, [(1, 1), (2, 1)], 1),
     {"reason": "census mismatch", "from_dominantize": [[0, 0]],
      "census": []}),
    ((CrystalGraph, "extremal", _no_anchor),
     lambda: check_bmin(A2, [(1, 1), (2, 1)], 1),
     {"component": 0, "reason": "forced"}),
    ((experiments, "iso_check", _no_iso),
     lambda: check_reduction(A2, [(1, 1), (2, 1)], [(2, 1), (1, 1)], 1),
     {"weights_b", "weights_bp"}),
    ((experiments, "match_components", lambda c1, c2, mode: None),
     lambda: check_qsystem_typeA(A2, 1, 2, 2),
     {"unmatched": "no perfect component matching"}),
    # every factor one node of weight 0: Q^2 = 1, but Q Q + Q Q = 2
    ((experiments, "kr_typeA", _trivial_factor),
     lambda: check_character_qsystem(A2, 1, 1),
     {"weight": [0, 0], "lhs": 1, "rhs": 2}),
    ((experiments, "match_components", lambda c1, c2, mode: None),
     lambda: check_alcove_correspondence(A2, (1, 0), 1),
     {"alcove_weights", "tensor_weights"}),
    ((experiments, "iso_check", _no_iso),
     check_figure,
     ["11-node component not isomorphic to B12 fixture"]),
]


@pytest.mark.parametrize("patch,check,want", FAILING_CASES, ids=[
    "bmin-census", "bmin-anchor", "reduction", "qsystem", "qchar", "alcove",
    "figure"])
def test_failing_check_reports_its_counterexample(monkeypatch, patch, check,
                                                   want):
    monkeypatch.setattr(*patch)
    rep = check()
    assert rep.status == "fail" and not rep.passed
    got = rep.witnesses["counterexample"]
    assert (set(got) if isinstance(want, set) else got) == want
    assert json.loads(rep.to_json())["status"] == "fail"


def test_failing_check_exits_one_with_its_report(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "iso_check", _no_iso)
    out = tmp_path / "r.json"
    assert main(["check", "figure", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["status"] == "fail"
    assert data["witnesses"]["counterexample"] == [
        "11-node component not isomorphic to B12 fixture"]
