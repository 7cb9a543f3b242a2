import hashlib
import json
import os
import random
import time

import pytest

from krcrystals import alcove, cartan, cli, experiments, kr, weyl
from krcrystals.cartan import build_cartan
from krcrystals.cli import main, parse_factors
from krcrystals.crystals import CrystalGraph
from krcrystals.weyl import QuantumBruhatGraph


def run(args):
    return main(args)


def test_build_c2_figure_dot(tmp_path):
    out = tmp_path / "g.dot"
    code = run(["build", "--type", "C2~", "--factors", "1,1:1,1",
                "--level", "1", "--view", "demazure", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("[label=") >= 16
    assert text.count('label="0"') == 1


def test_build_a2_json(tmp_path):
    out = tmp_path / "g.json"
    code = run(["build", "--type", "A2", "--factors", "1,1",
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 3


def test_build_empty_factors_trivial(tmp_path):
    out = tmp_path / "g.json"
    assert run(["build", "--type", "A2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 1


def test_build_unconstructible_factor(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(["build", "--type", "C2", "--factors", "2,1",
                "--out", str(out)])
    assert code == 2
    assert "B^{2,1}" in capsys.readouterr().err


# a zero-width factor is the trivial one only for a node r in I_0: B^{99,0}
# in A2 is refused, not read as a one-node graph of weight 0
@pytest.mark.parametrize("argv", [
    ["build", "--type", "A2", "--factors", "99,0"],
    ["check", "bmin", "--type", "A2", "--factors", "99,0:1,1", "--level", "1"],
], ids=["build", "check-bmin"])
def test_zero_width_factor_needs_a_classical_node(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no factor B^{99,0} in type A2~\n"
    assert not out.exists()


def test_build_bad_extension(tmp_path):
    assert run(["build", "--type", "A2", "--factors", "1,1",
                "--out", str(tmp_path / "g.txt")]) == 2


@pytest.fixture
def builder_calls(monkeypatch):
    """The names of the CLI's graph builders, in call order: each one is
    wrapped to record its name."""
    calls = []
    for owner, name in [(experiments, "build_tensor"),
                        (experiments, "build_filtered"),
                        (cli, "alcove_crystal"), (cli, "build_qbg")]:
        def wrapper(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("argv,name,expect", [
    (["build", "--type", "A2", "--factors", "1,1:2,1"], "g.txt",
     "must end in .dot or .json"),
    (["build", "--type", "A2", "--factors", "1,1:2,1", "--view", "dual"],
     "g.txt", "must end in .dot or .json"),
    (["alcove", "--type", "A2", "--lambda", "1,1"], "a.txt",
     "must end in .dot or .json"),
    (["qbg", "--type", "A2"], "q.txt", "must end in .dot:"),
    (["qbg", "--type", "A2"], "q.json", "must end in .dot:"),
], ids=["build", "build-dual", "alcove", "qbg-txt", "qbg-json"])
def test_bad_out_suffix_is_rejected_before_building(
        tmp_path, capsys, builder_calls, argv, name, expect):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 2
    assert expect in capsys.readouterr().err
    assert builder_calls == []
    assert not out.exists()


def test_good_out_suffix_reaches_the_builders(tmp_path, builder_calls):
    assert run(["build", "--type", "A2", "--factors", "1,1:2,1",
                "--out", str(tmp_path / "g.dot")]) == 0
    assert run(["build", "--type", "A2", "--factors", "1,1:2,1",
                "--view", "dual", "--out", str(tmp_path / "g.json")]) == 0
    assert run(["alcove", "--type", "A2", "--lambda", "1,0",
                "--out", str(tmp_path / "a.json")]) == 0
    assert run(["qbg", "--type", "A2", "--out", str(tmp_path / "q.dot")]) == 0
    # build_filtered builds its tensor through build_tensor
    assert builder_calls == ["build_tensor", "build_filtered", "build_tensor",
                             "alcove_crystal", "build_qbg"]


def test_build_deterministic_across_runs(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        assert run(["build", "--type", "C2", "--factors", "1,1:1,1",
                    "--view", "dual", "--level", "1",
                    "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_build_node_cap_bounds_the_tensor_product(tmp_path):
    out = tmp_path / "g.json"
    assert run(["build", "--type", "A3", "--factors",
                "1,1:1,1:1,1:1,1:1,1", "--node-cap", "100",
                "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name", ["qsystem", "qchar"])
def test_check_node_cap_bounds_the_kr_factors(tmp_path, capsys, name):
    out = tmp_path / "r.json"
    assert run(["check", name, "--type", "A3", "--a", "2", "--m", "3",
                "--level", "3", "--node-cap", "5", "--out", str(out)]) == 2
    assert "exceed node cap 5" in capsys.readouterr().err
    assert not out.exists()


# the cap bounds every factor, the cached ones and the C2 B^{1,2} fixture
# included, check figure's factor and tensor product, and the one-node
# empty product
@pytest.mark.parametrize("argv", [
    ["build", "--type", "C3", "--factors", "1,1", "--node-cap", "2"],
    ["build", "--type", "C2", "--factors", "1,2", "--view", "demazure",
     "--level", "1", "--node-cap", "5"],
    ["check", "figure", "--node-cap", "-1"],
    ["build", "--type", "A2", "--factors", "", "--node-cap", "0"],
], ids=["C-one-box", "C2-B12-fixture", "check-figure", "empty-product"])
def test_node_cap_bounds_every_factor(tmp_path, capsys, argv):
    out = tmp_path / "g.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert "node cap" in capsys.readouterr().err
    assert not out.exists()


def test_check_figure_fits_its_tensor_product_node_cap():
    assert run(["check", "figure", "--node-cap", "16"]) == 0


def test_node_cap_stops_a_factor_before_promotion(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(kr, "promotion", lambda t, n: calls.append(t))
    out = tmp_path / "g.json"
    assert run(["build", "--type", "A3", "--factors", "2,6",
                "--node-cap", "10", "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


# the cap counts the empty subset too: lambda = 0 has no other
@pytest.mark.parametrize("ctype,lam,cap", [
    ("A1", "8", "100"), ("A2", "0,0", "0"), ("A2", "0,0", "-1")],
    ids=["A1-8-cap100", "A2-0-cap0", "A2-0-cap-1"])
def test_alcove_node_cap_bounds_the_subsets(tmp_path, capsys, ctype, lam,
                                            cap):
    out = tmp_path / "a.dot"
    assert run(["alcove", "--type", ctype, "--lambda", lam,
                "--node-cap", cap, "--out", str(out)]) == 2
    assert "node cap" in capsys.readouterr().err
    assert not out.exists()


def test_alcove_node_cap_stops_the_enumeration(tmp_path, capsys):
    # 2^40 admissible subsets: 40 >= 10, the bit length of the cap, so the
    # cap stops the command before the lambda-chain, before any subset
    out = tmp_path / "a.dot"
    start = time.perf_counter()
    assert run(["alcove", "--type", "A1", "--lambda", "40",
                "--node-cap", "1000", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10
    assert "node cap" in capsys.readouterr().err
    assert not out.exists()


# 2^sum(lambda) subsets (every subset of the positions crossing a simple
# root) are admissible, so a smaller cap stops before the lambda-chain of
# millions of crossings is built
@pytest.mark.parametrize("argv", [
    ["alcove", "--type", "C2", "--lambda", "1000000,0", "--node-cap", "10"],
    ["alcove", "--type", "A3", "--lambda", "3000000,0,0", "--node-cap", "10"],
    ["check", "alcove", "--type", "A3", "--lambda", "3000000,0,0"],
], ids=["alcove-C2", "alcove-A3", "check-alcove-A3"])
def test_node_cap_stops_before_the_lambda_chain(tmp_path, capsys, argv):
    out = tmp_path / "a.json"
    start = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 2
    assert "admissible subsets exceed node cap" in capsys.readouterr().err
    assert not out.exists()


# a cap below 2^sum(lambda) refuses before the DFS, which on A1 (2000)
# would hold about cap x 2000 ids in its subset map first (the fake fails
# the test instead of running it); on A2 (4, 4) 256 <= 1000 < 6,561
# subsets, so the DFS runs and stops at the cap
@pytest.mark.parametrize("ctype,lam,cap,dfs", [
    ("A1", "2000", 3000, False), ("A2", "4,4", 1000, True)],
    ids=["A1-2000-before-the-dfs", "A2-44-in-the-dfs"])
def test_alcove_node_cap_stops_before_or_in_the_dfs(tmp_path, capsys,
                                                    monkeypatch, ctype, lam,
                                                    cap, dfs):
    caps = []
    enumerate_admissible = alcove.enumerate_admissible

    def logged(chain, node_cap, quantum):
        if not dfs:
            pytest.fail("enumerate_admissible called under a refusing cap")
        caps.append(node_cap)
        return enumerate_admissible(chain, node_cap, quantum)

    monkeypatch.setattr(alcove, "enumerate_admissible", logged)
    out = tmp_path / "a.json"
    assert run(["alcove", "--type", ctype, "--lambda", lam,
                "--node-cap", str(cap), "--out", str(out)]) == 2
    assert caps == [cap] * dfs
    assert capsys.readouterr() == (
        "", "error: admissible subsets exceed node cap %d\n" % cap)
    assert not out.exists()


# D7's 322,560 elements are refused from |W| before any element is walked
def test_weyl_cap_refuses_before_the_walk(tmp_path, capsys):
    out = tmp_path / "a.json"
    start = time.perf_counter()
    assert run(["alcove", "--type", "D7", "--lambda", "0,1,0,0,0,0,0",
                "--out", str(out)]) == 2
    assert time.perf_counter() - start < 2
    assert "Weyl group larger than cap 100000" in capsys.readouterr().err
    assert not out.exists()


# a factor wider than Python's recursion limit: the tableaux are made
# column by column without recursing
def test_build_a_factor_wider_than_the_recursion_limit(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["build", "--type", "A1", "--factors", "1,1200",
                "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        "wrote %s: 1201 nodes, 2400 edges\n" % out, "")


def test_node_cap_stops_the_tableau_enumeration(tmp_path, capsys):
    # 184,225,041 tableaux of B^{4,8}: the cap must stop rect_tableaux
    out = tmp_path / "x.dot"
    start = time.perf_counter()
    assert run(["build", "--type", "A7", "--factors", "4,8",
                "--node-cap", "100", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10
    assert "exceed node cap 100" in capsys.readouterr().err
    assert not out.exists()


# a type-A factor is refused from its count before any column is made: a
# per-tableau cap test would come after B^{1,99999999}'s 10^8-cell prefix
@pytest.mark.parametrize("argv,factor,cap", [
    (["check", "qchar", "--type", "A2", "--a", "1", "--m", "99999999",
      "--node-cap", "10"], "1,99999999", 10),
    (["build", "--type", "A2", "--factors", "1,300000"], "1,300000",
     1000000),
], ids=["qchar-m-99999999", "build-B1-300000"])
def test_over_cap_factor_is_refused_from_its_count(tmp_path, capsys, argv,
                                                   factor, cap):
    out = tmp_path / "x.json"
    start = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr() == (
        "", "error: tableaux of B^{%s} exceed node cap %d\n" % (factor, cap))
    assert not out.exists()


# a rank above the ceiling exits 2 before its Cartan matrix is made
@pytest.mark.parametrize("argv", [
    ["qbg", "--type", "A99999", "--out", "x.dot"],
    ["build", "--type", "A99999", "--factors", "1,1", "--out", "x.json"],
], ids=["qbg", "build"])
def test_rank_above_the_ceiling_exits_two(tmp_path, monkeypatch, capsys,
                                          argv):
    def no_matrix(family, n):
        raise AssertionError("Cartan matrix built for rank %d" % n)
    monkeypatch.setattr(cartan, "_finite_cartan", no_matrix)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", "error: rank 99999 exceeds the rank ceiling 100\n")
    assert list(tmp_path.iterdir()) == []


def test_alcove_weyl_cap_bounds_the_group(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["alcove", "--type", "D4", "--lambda", "1,0,0,0",
                "--weyl-cap", "10", "--out", str(out)]) == 2
    assert "cap 10" in capsys.readouterr().err
    assert not out.exists()


def test_check_alcove_weyl_cap_bounds_the_group():
    assert run(["check", "alcove", "--type", "A3", "--lambda", "1,1,1",
                "--weyl-cap", "1"]) == 2


def test_alcove_level_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "a.dot"
    assert run(["alcove", "--type", "A2", "--lambda", "1,1", "--level", "0",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: level must be >= 1\n"
    assert not out.exists()


def test_check_alcove_level_zero_is_usage_error(capsys):
    assert run(["check", "alcove", "--type", "A2", "--lambda", "1,1",
                "--level", "0"]) == 2
    assert capsys.readouterr().err == "error: level must be >= 1\n"


def test_check_figure_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    assert run(["check", "figure", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"


def test_check_qsystem(tmp_path):
    assert run(["check", "qsystem", "--type", "A2", "--a", "1",
                "--m", "2", "--level", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["check", "qsystem", "--type", "C3", "--a", "1", "--m", "2",
     "--level", "2"],
    ["check", "qchar", "--type", "D4", "--a", "1", "--m", "2"],
], ids=["qsystem-C3", "qchar-D4"])
def test_check_qsystem_rejects_other_families(tmp_path, capsys, argv):
    # both checks are type-A statements: another family must not run the
    # type-A instance of the same rank
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: check %r runs in type A only, not %s\n"
        % (argv[1], argv[3]))
    assert not out.exists()


@pytest.mark.parametrize("name", ["qsystem", "qchar"])
@pytest.mark.parametrize("a,m,expect", [
    (2, 0, "m must be >= 1"),
    (0, 1, "node a=0 out of range"),
    (5, 1, "node a=5 out of range"),
], ids=["m0", "a0", "a5"])
def test_check_qsystem_rejects_a_and_m_out_of_range(tmp_path, capsys, name,
                                                    a, m, expect):
    # one text for both checks, naming a and m, not a factor B^{a+-1,m-1}
    # the user never asked for
    out = tmp_path / "report.json"
    assert run(["check", name, "--type", "A3", "--a", str(a), "--m", str(m),
                "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % expect)
    assert not out.exists()


@pytest.mark.parametrize("argv,part", [
    (["build", "--factors", "1"], "1"),
    (["build", "--factors", "1,x"], "1,x"),
    (["build", "--factors", "1,1:"], ""),
    (["build", "--factors", "1,2,3"], "1,2,3"),
    (["check", "reduction", "--factors", "1,1", "--factors2", "2"], "2"),
], ids=["no-width", "width-x", "empty-part", "three-numbers", "factors2"])
def test_malformed_factors_are_a_usage_error(tmp_path, capsys, argv, part):
    out = tmp_path / "g.json"
    assert run(argv + ["--type", "A2", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: factor %r is not of the form r,s\n" % part)
    assert not out.exists()


@pytest.mark.parametrize("command", [["alcove"], ["check", "alcove"]])
@pytest.mark.parametrize("text", ["1,,1", "x,1"])
def test_malformed_lambda_is_a_usage_error(tmp_path, capsys, command, text):
    out = tmp_path / "a.json"
    assert run(command + ["--type", "A2", "--lambda", text,
                          "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: lambda %r is not a comma-separated list of integers\n"
        % text)
    assert not out.exists()


def test_check_reduction_cli():
    assert run(["check", "reduction", "--type", "C2",
                "--factors", "1,1:1,1", "--factors2", "1,2",
                "--level", "1", "--mode", "head"]) == 0


def test_check_alcove_cli():
    assert run(["check", "alcove", "--type", "A2", "--lambda", "1,1",
                "--level", "1"]) == 0


# the head-mode anchor w0(lambda) is found by CrystalGraph.extremal, not
# off the Weyl group, whose A8 order 362,880 is above the cap
def test_check_reduction_head_mode_builds_no_weyl_group(tmp_path):
    out = tmp_path / "r.json"
    assert run(["check", "reduction", "--type", "A8",
                "--factors", "1,1:1,1", "--factors2", "1,2", "--level", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["witnesses"]["anchor_weight"] == [0] * 7 + [-2]


@pytest.mark.parametrize("name", ["reduction", "bmin"])
def test_check_without_type_is_a_usage_error(capsys, name):
    assert run(["check", name, "--factors", "1,1",
                "--factors2", "1,1"]) == 2
    assert capsys.readouterr().err == (
        "error: check %r needs --type\n" % name)


@pytest.mark.parametrize("exc", [KeyboardInterrupt, RecursionError])
def test_interrupt_and_recursion_overflow_exit_two(monkeypatch, capsys, exc):
    def boom(args):
        raise exc()
    monkeypatch.setattr(cli, "cmd_qbg", boom)
    assert run(["qbg", "--type", "A2", "--out", "unused.dot"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % exc.__name__


def test_check_unknown_name():
    assert run(["check", "frobnicate"]) == 2


def test_check_missing_parameter(capsys):
    assert run(["check", "qsystem", "--type", "A2"]) == 2
    assert "--a" in capsys.readouterr().err


# the missing option is named by its flag, --lambda for the dest lam
def test_check_names_the_missing_flag(capsys):
    assert run(["check", "alcove", "--type", "A2"]) == 2
    assert capsys.readouterr().err == "error: check 'alcove' needs --lambda\n"


def test_check_precondition_violation_is_usage_error():
    code = run(["check", "reduction", "--type", "A2", "--factors", "1,1",
                "--factors2", "2,1", "--level", "1"])
    assert code == 2


def test_check_failing_report_exits_one(monkeypatch):
    def fake(node_cap=None):
        return experiments.Report("figure", {},
                                  {"counterexample": ["forced"]}, 0.0)
    monkeypatch.setattr(experiments, "check_figure", fake)
    assert run(["check", "figure"]) == 1


# one passing and one refused case per row of experiments.CHECKS, with
# stdout and stderr pinned; check alcove outside type A takes the
# Q-system checks' refusal text
CHECK_ROWS = {
    "reduction": (
        ["--type", "C2", "--factors", "1,1:1,1", "--factors2", "1,2",
         "--level", "1"],
        "reduction {'type': 'C2~', 'factors': [[1, 1], [1, 1]], "
        "'factors2': [[1, 2]], 'level': 1, 'mode': 'head'}: pass\n",
        ["--type", "C2", "--factors", "1,1:1,1"],
        "error: check 'reduction' needs --factors2\n"),
    "bmin": (
        ["--type", "A2", "--factors", "1,1:2,1", "--level", "1"],
        "bmin {'type': 'A2~', 'factors': [[1, 1], [2, 1]], 'level': 1}: "
        "pass\n",
        ["--type", "A2", "--factors", "1,2", "--level", "1"],
        "error: factor B^{1,2} has level ceil(2/1) = 2 > 1\n"),
    "qsystem": (
        ["--type", "A2", "--a", "1", "--m", "2", "--level", "2"],
        "qsystem {'type': 'A2~', 'a': 1, 'm': 2, 'level': 2}: pass\n",
        ["--type", "A2", "--a", "1", "--m", "2"],
        "error: need level >= m = 2, got 1\n"),
    "qchar": (
        ["--type", "A2", "--a", "1", "--m", "1"],
        "qchar {'type': 'A2~', 'a': 1, 'm': 1}: pass\n",
        ["--type", "A2", "--a", "1"],
        "error: check 'qchar' needs --m\n"),
    "alcove": (
        ["--type", "A2", "--lambda", "1,1"],
        "alcove {'type': 'A2~', 'lambda': [1, 1], 'level': 1}: pass\n",
        ["--type", "C2", "--lambda", "1,1"],
        "error: check 'alcove' runs in type A only, not C2\n"),
    "figure": (
        [], "figure {}: pass\n",
        ["--node-cap", "15"],
        "error: tensor product of 16 elements exceeds node cap 15\n"),
}


def test_every_check_row_has_its_cases():
    assert list(CHECK_ROWS) == list(experiments.CHECKS)


@pytest.mark.parametrize("name", CHECK_ROWS)
def test_check_row_passes_and_refuses(capsys, name):
    argv, stdout, refused, stderr = CHECK_ROWS[name]
    assert run(["check", name] + argv) == 0
    assert capsys.readouterr() == (stdout, "")
    assert run(["check", name] + refused) == 2
    assert capsys.readouterr() == ("", stderr)


A2, C2 = build_cartan("A", 2), build_cartan("C", 2)

# per row: the function the CLI runs, and the arguments it gets from the
# row's passing case and the caps --node-cap 7 --weyl-cap 9
CHECK_CALLS = {
    "reduction": ("check_reduction",
                  (C2, [(1, 1), (1, 1)], [(1, 2)], 1, "head", 7)),
    "bmin": ("check_bmin", (A2, [(1, 1), (2, 1)], 1, 7)),
    "qsystem": ("check_qsystem_typeA", (A2, 1, 2, 2, 7)),
    "qchar": ("check_character_qsystem", (A2, 1, 1, 7)),
    "alcove": ("check_alcove_correspondence", (A2, (1, 1), 1, 7, 9)),
    "figure": ("check_figure", (7,)),
}


# the CLI looks each check up when it runs: a replaced function is the one
# called, with the parsed options, and its failing report exits 1
@pytest.mark.parametrize("name", CHECK_ROWS)
def test_check_row_runs_the_function_it_names(monkeypatch, name):
    function, expected = CHECK_CALLS[name]
    calls = []

    def fake(*args):
        calls.append(args)
        return experiments.Report(name, {},
                                  {"counterexample": ["forced"]}, 0.0)
    monkeypatch.setattr(experiments, function, fake)
    assert run(["check", name] + CHECK_ROWS[name][0]
               + ["--node-cap", "7", "--weyl-cap", "9"]) == 1
    assert calls == [expected]


# a report write that raises removes its file, as the graph exports do
@pytest.mark.parametrize("junit", [False, True], ids=["json", "junit"])
def test_failed_report_write_leaves_no_file(tmp_path, monkeypatch, capsys,
                                            junit):
    # a lone surrogate has no UTF-8 encoding, so the write raises
    monkeypatch.setattr(experiments.Report, "to_json", lambda self: "\ud800")
    monkeypatch.setattr(experiments, "to_junit", lambda reports: "\ud800")
    out = tmp_path / "r.json"
    assert run(["check", "figure", "--out", str(out)]
               + ["--junit"] * junit) == 2
    assert "can't encode" in capsys.readouterr().err
    assert not out.exists()


# a failed write removes a regular file only: check --out has no suffix
# rule, and a device such as /dev/full or /dev/null must outlive a failed
# export; os.remove is a recorder here, so no real removal runs
def test_failed_export_removes_only_a_regular_file(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(experiments.Report, "to_json", lambda self: "\ud800")
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    assert run(["check", "figure", "--out", os.devnull]) == 2
    assert "can't encode" in capsys.readouterr().err
    assert os.devnull not in removed
    out = tmp_path / "r.json"
    assert run(["check", "figure", "--out", str(out)]) == 2
    assert removed == [str(out)]


def test_check_junit(tmp_path):
    out = tmp_path / "report.xml"
    assert run(["check", "figure", "--junit", "--out", str(out)]) == 0
    assert out.read_text().startswith('<?xml version="1.0"')


def test_qbg_dot(tmp_path):
    out = tmp_path / "qbg.dot"
    assert run(["qbg", "--type", "C2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "style=dashed" in text and "digraph qbg" in text
    assert out.read_text() == text  # stable reread


def test_alcove_json(tmp_path):
    out = tmp_path / "alcove.json"
    assert run(["alcove", "--type", "A2", "--lambda", "1,1",
                "--level", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 9
    assert all("J" in node for node in data["nodes"])
    assert data["chain"] and all(len(b) == 2 for b in data["chain"])


class FailingFile:
    """A text file that passes its first writes on to fh, then raises."""

    def __init__(self, fh, writes):
        self.fh, self.left = fh, writes

    def write(self, text):
        if not self.left:
            raise OSError("No space left on device")
        self.left -= 1
        return self.fh.write(text)


# an export that raises after its first block (a full disk, or a label
# that fails its check) leaves no partial file, and the command exits 2
@pytest.mark.parametrize("argv,ext,owner,name", [
    (["build", "--type", "A2", "--factors", "1,1:1,1:1,1"], "dot",
     CrystalGraph, "to_dot"),
    (["build", "--type", "A2", "--factors", "1,1:1,1:1,1"], "json",
     CrystalGraph, "to_json"),
    (["alcove", "--type", "A2", "--lambda", "1,1"], "json",
     CrystalGraph, "to_json"),
    (["qbg", "--type", "A3"], "dot", QuantumBruhatGraph, "to_dot"),
], ids=["build.dot", "build.json", "alcove.json", "qbg.dot"])
def test_failed_export_leaves_no_file(tmp_path, monkeypatch, capsys, argv,
                                      ext, owner, name):
    real = getattr(owner, name)

    def failing(self, fh, *args):
        # the opening text and the first block get through
        return real(self, FailingFile(fh, 2), *args)

    monkeypatch.setattr(owner, name, failing)
    monkeypatch.setattr(weyl, "EXPORT_BLOCK", 5)
    out = tmp_path / ("out." + ext)
    assert run(argv + ["--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


# sha256 of whole CLI outputs: a change to the Weyl-group walk, the folding,
# the alcove operators, the tensor signature rule or the serializers that
# moves one byte of an export fails here
GOLDEN = [
    (["alcove", "--type", "A2", "--lambda", "1,1"], "json",
     "60e3c27e6d5396e31581c373242d5ac1cea4271852731782f323fcaccfaeb02c"),
    (["alcove", "--type", "A2", "--lambda", "1,1"], "dot",
     "144125b19b3e14bf6cac1a084bbe393299e0d2a27024e9a6cf5c429403d16277"),
    (["alcove", "--type", "C2", "--lambda", "1,1", "--level", "2"], "dot",
     "6f4c05fa7a4bf900832086b36389a2272280597a0fc74e7a3ce4c5d5bd5676ae"),
    (["alcove", "--type", "D4", "--lambda", "1,0,0,0"], "json",
     "082763321800e57e2c46b635784317d9e9a3fac23defa878bf9b3f3e8c9ea365"),
    (["alcove", "--type", "A3", "--lambda", "2,1,1", "--level", "2"], "dot",
     "ebcc5a096802467536a443afa0217e3c6d26a79ebf1118e0cbd1ee693fa6e2af"),
    (["alcove", "--type", "B3", "--lambda", "1,1,0"], "json",
     "3584212e2b91272389562d752f5415ade27296a5baf54cf50c2087a8bb81623e"),
    (["alcove", "--type", "A1", "--lambda", "5", "--level", "2"], "dot",
     "3ec5bd4d99f81ca7599ca7d4a61669225dad3ccd24f76651a56e52a7099b5b89"),
    (["alcove", "--type", "D4", "--lambda", "1,0,0,1", "--level", "2"], "dot",
     "911fff280fc4bb323d2411c82422162384298bfb50fa92fbb6662dad771b84e2"),
    (["qbg", "--type", "A3"], "dot",
     "77297d8185915ba33fe42e1ceb295f2c482962a32c4c74c7b65e706f8beb83d9"),
    (["qbg", "--type", "B3"], "dot",
     "1214513f126efe51567168b5e1abf8b6e1e8f09e73e4d3a225fe85867c1c3d43"),
    (["qbg", "--type", "C3"], "dot",
     "448b7af708b9a13f953829dbe9ef1591e2535266ee721868f4256cb60af361d3"),
    (["qbg", "--type", "D4"], "dot",
     "f132771571fb210d0b760daa9ddd264e979bed9e166743f9ed3fd1ce367ad9a6"),
    (["qbg", "--type", "A5"], "dot",
     "decd2d8fe5d8899cff76dd095795dfe9be2b280eac011a8afe4b846cdbb47bad"),
    (["qbg", "--type", "B4"], "dot",
     "660662d45be13c0bd8a8023f1de46e120f21382f542de2ff4cd1ba5d01baffd4"),
    (["qbg", "--type", "C4"], "dot",
     "71d964b7c5e31dc4e4f0fdfac7d81bfcaad85773a90b0e26e07db4b2fe54cd17"),
    # 1,920 vertices: a larger group's id order, byte for byte
    (["qbg", "--type", "D5"], "dot",
     "66a62e19f10f85a788256c20099cc568284eebea76ac00b76dc6ee2db6b871e5"),
    (["alcove", "--type", "B5", "--lambda", "0,1,0,0,0"], "json",
     "93d25ca3b6a503a841546b81411b0fd6c26e750b98ed294a81823bcaf6ca5c88"),
    (["build", "--type", "A3", "--factors", "2,1:1,1:3,1"], "dot",
     "932650013b745ecaed09da97de2c7258c3489fb7b2b9825d31183b1eb572818d"),
    # 6,561 nodes: more than one block of the streamed DOT writer
    (["build", "--type", "A2", "--factors", ":".join(["1,1"] * 8)], "dot",
     "8105a41453dff434fe2480d1ed00884588960ddab82a679a4144ee7ff12ad6af"),
    # 23 of its 115 edges are 0-arrows, conjugated through promotion
    (["build", "--type", "A4", "--factors", "3,2"], "json",
     "9cfc9a2ecd62140ca6e23cdd2388a3978e7122e5be0c9da7239a5b429ca538b4"),
    (["build", "--type", "C3", "--factors", "1,1:1,1:1,1",
      "--view", "demazure", "--level", "1"], "dot",
     "3a7c9357a36e4882fc194914f22c5da877e141750695af12c82568836b76b485"),
    # every 0-arrow of the C one-box, which the C3 Demazure view drops
    (["build", "--type", "C4", "--factors", "1,1:1,1"], "json",
     "619c5b6a8a65db06efa8bd2dcf6814852ab3995946cc81d9f2ccc3136b44323e"),
    (["build", "--type", "A2", "--factors", "1,2:2,1",
      "--view", "dual", "--level", "2"], "json",
     "e3b89fb07cf430847e1f15e8d4b272538a1694399f6b8373457e3da1ffb58d45"),
    # the head-mode anchor is the element of weight w0(lambda), found by
    # CrystalGraph.extremal; the second lambda, (1, 1), is regular, so a
    # wrong anchor would have another weight
    (["check", "reduction", "--type", "A2", "--factors", "1,1:1,1",
      "--factors2", "1,2", "--level", "2"], "json",
     "7e179d06e0b590aace6de43e8f457c541eef95dd5094ad0f47cfb9169889c76b"),
    (["check", "reduction", "--type", "A2", "--factors", "1,1:2,1",
      "--factors2", "2,1:1,1", "--level", "2"], "json",
     "5da3b1bbb21157cc9f2c264355c40df398aaae8bc2077b2b302b0c9940e9ce9d"),
    # the minimum anchor of each of 28 components (CrystalGraph.extremal)
    (["check", "bmin", "--type", "A3", "--factors", "2,1:2,1:2,1:2,1",
      "--level", "4"], "json",
     "99ccffd65bdd69e12f6a195edb631ffe73616d0e7c55ec87e3c99e9c493a5308"),
    # more than one block of the streamed JSON writer: 6,561 nodes, and 512
    # subsets with their "J" arrays and the chain
    (["build", "--type", "A2", "--factors", ":".join(["1,1"] * 8)], "json",
     "f95140924e111cbddffee7fbf943fe15207dfa06cfab02e680a8e95ad013ad9d"),
    (["alcove", "--type", "A1", "--lambda", "9", "--level", "2"], "json",
     "b652da2435fec140c212e7818dcd0ebfea16167f06b078c40a4bd67cf5b5ed67"),
]


@pytest.mark.parametrize("args,ext,digest", GOLDEN, ids=[
    "-".join(a for a in args if not a.startswith("--")) + "." + ext
    for args, ext, _ in GOLDEN])
def test_golden_output_bytes(tmp_path, args, ext, digest):
    out = tmp_path / ("out." + ext)
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_config_preloads_defaults(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("# defaults\nlevel=2\n")
    out = tmp_path / "g.json"
    assert run(["build", "--type", "A2", "--factors", "1,2",
                "--view", "demazure", "--config", str(cfg),
                "--out", str(out)]) == 0
    # level 2 head filtration of B^{1,2} keeps no 0-edges
    data = json.loads(out.read_text())
    assert all(e["color"] != 0 for e in data["edges"])


def test_parser_is_built_once_and_keeps_no_config(tmp_path, monkeypatch):
    built, seen = [], []

    def counted():
        built.append(1)
        return real()
    real = cli.make_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counted)
    monkeypatch.setattr(cli, "cmd_build", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "conf"
    cfg.write_text("level=2\nnode-cap=7\n")
    argv = ["build", "--type", "A2", "--factors", "1,2",
            "--out", str(tmp_path / "g.json")]
    assert run(argv + ["--config", str(cfg)]) == 0
    assert run(argv) == 0
    assert built == [1]
    assert [(a.config, a.level, a.node_cap) for a in seen] == [
        (str(cfg), 2, 7), (None, 1, experiments.DEFAULT_NODE_CAP)]


# --factors and --view default to None like every other option, so that a
# config key fills them: the file gives the bytes the flags give
def test_config_applies_factors_and_view(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("factors=1,1:1,1\nview=demazure\n")
    paths = [tmp_path / name for name in ("config.json", "flags.json",
                                          "plain.json")]
    assert run(["build", "--type", "A2", "--config", str(cfg),
                "--out", str(paths[0])]) == 0
    assert run(["build", "--type", "A2", "--factors", "1,1:1,1",
                "--view", "demazure", "--out", str(paths[1])]) == 0
    assert run(["build", "--type", "A2", "--factors", "1,1:1,1",
                "--out", str(paths[2])]) == 0
    config, flags, plain = (path.read_bytes() for path in paths)
    assert config == flags != plain
    assert len(json.loads(config)["nodes"]) == 9


# a flag given on the command line wins over its config key
@pytest.mark.parametrize("line,flags,xml", [
    ("junit=true", [], True),
    ("junit=false", [], False),
    ("junit=false", ["--junit"], True),
], ids=["true", "false", "flag-wins"])
def test_config_applies_junit(tmp_path, line, flags, xml):
    cfg = tmp_path / "conf"
    cfg.write_text(line + "\n")
    out = tmp_path / "report"
    assert run(["check", "figure", "--config", str(cfg), "--out", str(out)]
               + flags) == 0
    assert out.read_text().startswith('<?xml version="1.0"') == xml


def test_command_line_flags_win_over_config(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("factors=2,1\nview=demazure\n")
    paths = [tmp_path / name for name in ("flags.json", "plain.json")]
    assert run(["build", "--type", "A2", "--factors", "1,1:1,1",
                "--view", "none", "--config", str(cfg),
                "--out", str(paths[0])]) == 0
    assert run(["build", "--type", "A2", "--factors", "1,1:1,1",
                "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# a config value gets its flag's type and choices checks, and exits 2
# before anything is built when it fails them
@pytest.mark.parametrize("command,line,expect", [
    ("build", "view=sideways",
     "config key 'view': 'sideways' is not one of none, demazure, dual"),
    ("build", "level=two", "config key 'level': bad value 'two'"),
    ("check", "mode=middle",
     "config key 'mode': 'middle' is not one of head, tail"),
    ("check", "junit=yes", "config key 'junit': bad value 'yes'"),
    ("check", "node_cap=1e6", "config key 'node_cap': bad value '1e6'"),
], ids=["view", "level", "mode", "junit", "node_cap"])
def test_config_value_failing_its_flag_checks_exits_two(tmp_path, capsys,
                                                        command, line,
                                                        expect):
    cfg = tmp_path / "conf"
    cfg.write_text(line + "\n")
    out = tmp_path / "g.json"
    argv = (["build", "--type", "A2", "--factors", "1,1"]
            if command == "build" else ["check", "figure"])
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % expect)
    assert not out.exists()


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("frobnicate=1\n")
    assert run(["build", "--type", "A2", "--factors", "1,1",
                "--config", str(cfg), "--out", str(tmp_path / "g.json")]) == 2
    assert "frobnicate" in capsys.readouterr().err


# a config key is its flag's name, not the option's argparse dest: lambda
# for --lambda gives the flag's report bytes, and lam is no option
def test_config_keys_are_flag_names(tmp_path, capsys):
    cfg = tmp_path / "conf"
    paths = [tmp_path / name for name in ("config.json", "flags.json")]
    cfg.write_text("lambda=1,1\n")
    assert run(["check", "alcove", "--type", "A2", "--config", str(cfg),
                "--out", str(paths[0])]) == 0
    assert run(["check", "alcove", "--type", "A2", "--lambda", "1,1",
                "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()
    cfg.write_text("lam=1,1\n")
    out = tmp_path / "lam.json"
    assert run(["check", "alcove", "--type", "A2", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: config key 'lam' is not an option of check\n")
    assert not out.exists()


def test_parse_factors():
    assert parse_factors("1,1:1,2") == [(1, 1), (1, 2)]
    assert parse_factors("") == parse_factors(None) == []
    with pytest.raises(ValueError):
        parse_factors("1,-2")


# a seeded slice of the exit-code fuzz: argv lists that mix valid and
# invalid types, factor strings, lambdas, levels, caps and output suffixes
# go through main, and each ends in 0 or 2 (argparse's own errors leave by
# SystemExit(2)), never in a traceback or another code.  Each option is
# left out one time in ten and takes an invalid value one time in ten.
FUZZ_POOLS = {
    "--type": (["A1", "A2", "A3", "C2", "C2~", "C3", "B3", "D4"],
               ["A0", "E6", "X2", "A", "", "a2", "D2"]),
    "--factors": (["1,1", "1,1:2,1", "2,1:1,2", "1,2:2,2:1,1", "2,2", ""],
                  ["x", "1", "1,1,1", "0,1", "1,0", "1,-1", "9,1", ":"]),
    "--lambda": (["1", "2", "1,1", "1,0", "0,1", "2,1,0", "1,0,1",
                  "0,0,0,1"], ["1,1,1,1", "-1,1", "x", "", "1,,1"]),
    "--level": (["1", "2", "3"], ["-1", "0", "x", "1.5"]),
    "--node-cap": (["50", "400", "100000"], ["-3", "0", "1", "x"]),
    "--weyl-cap": (["50", "400", "100000"], ["-3", "0", "5", "x"]),
    "--view": (["none", "demazure", "dual"], ["both"]),
    "--out": ([".json", ".dot"], [".txt", ""]),
    "name": (["alcove", "figure"], ["nosuch", "qsystem"]),
}
FUZZ_OPTIONS = {
    "build": ["--type", "--factors", "--level", "--view"],
    "alcove": ["--type", "--lambda", "--level"],
    "qbg": ["--type"],
    "check": ["--type", "--factors", "--lambda", "--level"],
}


def _fuzz_argv(rng, out):
    def pick(key):
        valid, invalid = FUZZ_POOLS[key]
        return rng.choice(valid if rng.random() < 0.9 else invalid)

    command = rng.choice(sorted(FUZZ_OPTIONS))
    argv = [command] + ([pick("name")] if command == "check" else [])
    for flag in FUZZ_OPTIONS[command] + ["--node-cap", "--weyl-cap", "--out"]:
        if rng.random() < 0.9:
            value = pick(flag)
            argv += [flag, out + value if flag == "--out" else value]
    return argv


def test_exit_codes_of_random_argv_lists(tmp_path):
    rng = random.Random(0)
    codes = {}
    for k in range(150):
        argv = _fuzz_argv(rng, str(tmp_path / ("out%d" % k)))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2), argv
        codes[code] = codes.get(code, 0) + 1
    assert codes[0] >= 20 and codes[2] >= 20
