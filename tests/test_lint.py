"""Static checks on the library source, its tests and its demos."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "krcrystals"

MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _is_assertion_raise(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _self_calls(tree):
    """(line, name) of each call, inside a function's body, of a callee
    that bears the function's own name, as a bare name or an attribute
    (self.name for a method)."""
    return [(node.lineno, func.name)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and func.name in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))]


# no library function recurses: a walk as deep as its input (a factor's
# columns, an alcove DFS path) would die of Python's recursion limit, so
# every such walk keeps its own stack
def test_no_function_calls_itself():
    calls = {module: lines for module in MODULES
             if (lines := _self_calls(ast.parse((SRC / module).read_text())))}
    assert calls == {}


# invariants raise InvariantError: `python -O` strips asserts, and an
# AssertionError is not a KRCrystalError, so the CLI would exit 1 on it
@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _is_assertion_raise(node)]
    assert lines == [], "%s asserts on lines %s" % (module, lines)


def _names_fractions(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "fractions" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "fractions"
    return (isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute) and node.attr == "Fraction")


# the library computes with exact integers only: integer forms (the
# adjugate of the Cartan matrix, lcm-scaled chain keys) give the same exact
# results as Fractions at a small part of their cost
@pytest.mark.parametrize("module", MODULES)
def test_no_fractions_import(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _names_fractions(node)]
    assert lines == [], "%s uses fractions on lines %s" % (module, lines)


# pyproject.toml declares requires-python >= 3.10: every module parses
# with the 3.10 grammar (no except*, no PEP 695 type parameters, ...)
@pytest.mark.parametrize("module", MODULES)
def test_parses_as_python_3_10(module):
    path = SRC / module
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# a name dropped from the package but left in __all__ breaks
# `from krcrystals import *`
def test_public_names_resolve():
    import krcrystals
    missing = [name for name in krcrystals.__all__
               if not hasattr(krcrystals, name)]
    assert missing == []


# a Weyl group element is an id into its WeylGroup's tables: no second
# element type, and no module-level wrapper that builds a default-cap group
# behind the caller's back
@pytest.mark.parametrize("name", ["WeylElement", "reflect", "bruhat_leq"])
def test_weyl_has_one_element_representation(name):
    import krcrystals
    from krcrystals import weyl
    assert not hasattr(weyl, name)
    assert not hasattr(krcrystals, name)


# a group keeps one right-multiplication table, its rank columns, no
# weight matrix -> id dict and no per-element weight matrix: the walk finds
# each s_beta by its signed roots, so CartanData builds no reflection matrix
# for it, and weight_matrix reads a matrix off the signed roots on demand
@pytest.mark.parametrize("owner,name", [
    ("group", "index"), ("group", "_right_columns"), ("group", "wt_mats"),
    ("cartan", "reflection_weight_matrix")])
def test_weyl_group_keeps_one_right_table(owner, name):
    from krcrystals.cartan import build_cartan
    from krcrystals.weyl import WeylGroup
    ct = build_cartan("B", 3)
    obj = WeylGroup(ct) if owner == "group" else ct
    assert not hasattr(obj, name)
    assert not hasattr(type(obj), name)


# the root data are read off CartanData: no module-level one-line wrapper
# around its positive_roots_list or pairing
@pytest.mark.parametrize("name", ["positive_roots", "pairing"])
def test_cartan_has_no_root_data_wrappers(name):
    import krcrystals
    from krcrystals import cartan
    assert not hasattr(cartan, name)
    assert not hasattr(krcrystals, name)


# the finite Cartan matrix is the only per-family table: theta, the coroots
# and both Kac label sets are read off it, with no symmetrizer d, no
# hand-entered highest root and no root length to divide by
@pytest.mark.parametrize("name", ["_symmetrizers", "_highest_root",
                                  "_half_norm", "d"])
def test_cartan_matrix_is_the_only_table(name):
    from krcrystals import cartan
    assert not hasattr(cartan, name)
    assert not hasattr(cartan.build_cartan("B", 3), name)


# the dominance order has one copy of its arithmetic: CrystalGraph.extremal
# tests the det-scaled root coordinates adj·mu of one table per graph for
# Q^+ itself, with no dominance_leq and no chain of one-line CartanData
# wrappers beside it
@pytest.mark.parametrize("name", ["weight_root_coords",
                                  "is_positive_root_coords",
                                  "in_positive_root_lattice",
                                  "dominance_leq"])
def test_dominance_has_no_wrapper_chain(name):
    from krcrystals.cartan import CartanData
    assert not hasattr(CartanData, name)


# type-A factors are tables over the tableaux, one signature pass per
# tableau and color: no payload-level source, no per-operator tableau
# functions, no explore behind them, and no re-check of promotion's
# output beside the lookup in the factor's own index
@pytest.mark.parametrize("name", ["TypeAKR", "tableau_f", "tableau_e",
                                  "explore", "is_rect_ssyt"])
def test_type_a_factors_are_tables(name):
    from krcrystals import kr
    assert not hasattr(kr, name)


# explore_tensor is the one tensor-product path: the per-node signature
# rule is a test oracle, and the C one-box is written as its graph
@pytest.mark.parametrize("module,name", [
    ("krcrystals", "TensorProduct"),
    ("krcrystals.crystals", "TensorProduct"),
    ("krcrystals.kr", "TypeCOneBox"),
])
def test_one_tensor_product_path(module, name):
    import importlib
    assert not hasattr(importlib.import_module(module), name)


# hw_crystal is the alcove model's one B(lambda) in every type: the
# fundamental crystals it used to fold are a test oracle
@pytest.mark.parametrize("module,name", [
    ("krcrystals.kr", "classical_fundamental"),
    ("krcrystals.kr", "fundamentals"),
    ("krcrystals.crystals", "hw_crystal"),
])
def test_one_highest_weight_crystal_construction(module, name):
    import importlib
    assert not hasattr(importlib.import_module(module), name)


# one builder per crystal kind, each writing integer tables: explore_tensor
# for products, kr_typeA for type-A factors and alcove.explore for the
# alcove model; the BFS over a payload-level source is a test oracle
@pytest.mark.parametrize("module,name", [
    ("krcrystals", "explore"),
    ("krcrystals.crystals", "explore"),
    ("krcrystals.alcove", "AlcoveCrystal"),
])
def test_one_builder_per_crystal_kind(module, name):
    import importlib
    assert not hasattr(importlib.import_module(module), name)


# the Weyl-group facts of one weight come without enumerating W:
# CrystalGraph.extremal finds the head-mode anchor of weight w0(lambda) as
# it finds every anchor, the rho walk tests a word for reducedness, and only
# the QBG path enumerates W
@pytest.mark.parametrize("module,name", [
    ("krcrystals.crystals", "build_weyl_group"),
    ("krcrystals.experiments", "build_weyl_group"),
    ("krcrystals.weyl", "WeylGroup.from_word"),
    ("krcrystals.weyl", "antidominant"),
    ("krcrystals.crystals", "CrystalGraph.node_of_weight"),
])
def test_weight_walks_replace_weyl_group_enumeration(module, name):
    import importlib
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)


# a graph's JSON is written by one stream, CrystalGraph.to_json(fh, chain):
# the whole-document dict and the alcove export's json.dumps route are byte
# oracles in tests/helpers.py
def test_json_exports_have_one_path():
    from krcrystals import cli
    from krcrystals.crystals import CrystalGraph
    assert not hasattr(CrystalGraph, "json_data")
    assert not hasattr(cli, "_alcove_json")


# `check <name>` is a lookup in experiments.CHECKS: the CLI keeps no list
# of names and no per-option guard, and names no check_* function, so the
# table is the only dispatch
def test_checks_have_one_table():
    import re
    from krcrystals import cli
    assert not hasattr(cli, "CHECK_NAMES")
    assert not hasattr(cli, "_require")
    tree = ast.parse((SRC / "cli.py").read_text())
    names = [(node.lineno, text) for node in ast.walk(tree)
             for text in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          getattr(node, "name", None),
                          getattr(node, "value", None))
             if isinstance(text, str) and re.search(r"\bcheck_\w", text)]
    assert names == []


# crystal operations no command runs are test oracles in tests/helpers.py,
# or deleted where no test used them as one
@pytest.mark.parametrize("module,name", [
    ("krcrystals", "weyl_action"),
    ("krcrystals.crystals", "weyl_action"),
    ("krcrystals", "classical_restriction"),
    ("krcrystals.crystals", "classical_restriction"),
    ("krcrystals", "similarity_check"),
    ("krcrystals.crystals", "similarity_check"),
    ("krcrystals", "demazure_subset"),
    ("krcrystals.crystals", "demazure_subset"),
    ("krcrystals.crystals", "highest_weight_node"),
    ("krcrystals", "ground_state"),
    ("krcrystals.crystals", "ground_state"),
    ("krcrystals.crystals", "weight_multiset"),
    ("krcrystals.crystals", "AbstractCrystal"),
    ("krcrystals.cartan", "mat_mul"),
    ("krcrystals.errors", "NonReducedWordError"),
])
def test_test_only_crystal_operations_stay_out(module, name):
    import importlib
    assert not hasattr(importlib.import_module(module), name)


# the alcove operators are one rule over one walk per subset, read into
# the crystal table: the per-color height profiles, the per-profile
# operators and the per-subset operators that fold J afresh are test oracles
@pytest.mark.parametrize("name", ["_height_profiles", "_f_on", "_e_on",
                                  "alcove_f", "alcove_e", "phi0",
                                  "_rule_args"])
def test_alcove_operators_have_one_path(name):
    import krcrystals
    from krcrystals import alcove
    assert not hasattr(alcove, name)
    assert not hasattr(krcrystals, name)


# explore folds each subset from its parent's state on the DFS path: fold
# is the per-subset path for the tests, the demos and the benchmark's
# tracer, and no library function folds a subset afresh
@pytest.mark.parametrize("module", MODULES)
def test_no_library_function_calls_fold(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id == "fold"
                  or isinstance(node.func, ast.Attribute)
                  and node.func.attr == "fold")]
    assert lines == [], "%s calls fold on lines %s" % (module, lines)


# the alcove table extends each parent's walk by a skeleton's tail: the
# per-subset folding path, the from-scratch walk and the per-color height
# profile are gone from src (the walk and the profile are test oracles in
# tests/helpers.py), fold is one pass over the chain with no incremental
# step, and explore folds nothing; the rule flips bits of a subset's mask,
# so no image is a sorted list edited by insort (the tuple rule is
# helpers.rule_oracle)
@pytest.mark.parametrize("name", ["_foldings", "_height_walks", "_fold_step",
                                  "g_graph", "GGraph", "insort"])
def test_alcove_table_has_one_walk(name):
    import re
    lines = [(module, k) for module in MODULES
             for k, line in enumerate((SRC / module).read_text()
                                      .splitlines(), 1)
             if re.search(r"\b%s\b" % name, line)]
    assert lines == []


def test_explore_folds_nothing():
    tree = ast.parse((SRC / "alcove.py").read_text())
    explore, = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "explore"]
    called = {node.func.id if isinstance(node.func, ast.Name)
              else getattr(node.func, "attr", None)
              for node in ast.walk(explore) if isinstance(node, ast.Call)}
    assert called & {"fold", "_fold_step"} == set()


# the per-element skeletons live as long as one table build: the chain a
# graph keeps holds no table over Weyl elements (fold keeps no image
# cache on it either), only its per-position and per-color data
def test_the_alcove_graph_retains_no_element_table():
    from krcrystals.alcove import alcove_crystal, fold
    from krcrystals.cartan import build_cartan
    graph = alcove_crystal(build_cartan("A", 3), (1, 2, 2))
    assert len(graph) == 2304
    fold(graph.chain, (1, 3))
    assert set(vars(graph.chain)) == {
        "cartan", "lam", "order", "roots", "root_indices", "m", "l",
        "l_tilde", "alphas", "walked"}


def _mentions(node, names):
    """Does the expression read one of the names, as a name or an
    attribute?"""
    return any(isinstance(sub, ast.Name) and sub.id in names
               or isinstance(sub, ast.Attribute) and sub.attr in names
               for sub in ast.walk(node))


def _per_node_lines(func, names):
    """Lines in func that build a product or a sequence element by element
    from one of the names: itertools.product, a comprehension over them, or
    list/tuple of them."""
    lines = []
    for node in ast.walk(func):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if any(_mentions(gen.iter, names) for gen in node.generators):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            if _mentions(node.func, {"product"}) \
                    or isinstance(node.func, ast.Name) \
                    and node.func.id in ("list", "tuple") \
                    and any(_mentions(arg, names) for arg in node.args):
                lines.append(node.lineno)
    return lines


# a component is a (graph, ids) pair read in place: no copying subgraph,
# no component_of, and no per-id pick over a ProductView behind them (the
# copy is the test oracle subgraph_oracle)
@pytest.mark.parametrize("owner,name", [
    ("CrystalGraph", "subgraph"), ("CrystalGraph", "component_of"),
    ("ProductView", "pick"), (None, "_pick"), (None, "subgraph"),
    (None, "component_of")])
def test_components_are_read_in_place(owner, name):
    from krcrystals import crystals
    obj = crystals if owner is None else getattr(crystals, owner)
    assert not hasattr(obj, name)
    calls = [(path.name, node.lineno) for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and name.lstrip("_") == getattr(node.func, "attr", getattr(
                 node.func, "id", None))]
    assert calls == []


def test_components_build_no_graph():
    tree = ast.parse((SRC / "crystals.py").read_text())
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "components"]
    assert "CrystalGraph" not in {node.id for node in ast.walk(func)
                                  if isinstance(node, ast.Name)}


# a tensor product's payloads and reprs are ProductViews over its factors'
# lists: explore_tensor makes no object per node for them, and the
# constructor keeps a view as it is, so no edit brings the per-node lists
# back without a test failing
def test_tensor_payloads_and_reprs_stay_views():
    tree = ast.parse((SRC / "crystals.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    init = next(node for node in defs["CrystalGraph"].body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    names = {"nodes", "reprs"}
    assert _per_node_lines(defs["explore_tensor"], names) == []
    assert _per_node_lines(init, names) == []


ROOT = SRC.parent.parent

# names the benchmark tracer wraps or reads cache counts from that the
# library removed on purpose; the tracer skips a missing name, so any other
# missing name would turn its metric to 0 without a word.  The set may grow
# only in a change to the benchmark itself: a span metric whose wrapped
# names are all missing drops out of the traced result, which then lacks a
# metric BENCHMARK.json declares
TRACED_ABSENT = {"crystals.build_weyl_group", "experiments.build_weyl_group",
                 "kr.classical_fundamental"}


def _tracing():
    """bench/tracing.py, loaded without changing it."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _tracing()
    points = [(owner, name) for owner, name, _, _
              in tracing._wrap_points(None)]
    points += [pair for pairs in tracing.CACHES.values() for pair in pairs]
    missing = set()
    for owner, name in points:
        label = getattr(owner, "__qualname__", owner.__name__)
        if not hasattr(owner, name):
            missing.add("%s.%s" % (label.replace("krcrystals.", ""), name))
    assert missing == TRACED_ABSENT


# every per-layer metric BENCHMARK.json declares that is read from a span
# (its self time, or a count derived from it) keeps at least one wrapped
# name that resolves to a callable, as Tracer.install tests it: a span with
# none is never recorded, and its metrics drop out of a traced run (a name
# set to None would pass test_traced_names_resolve and still drop them)
def test_declared_span_metrics_keep_a_traced_name():
    import json
    tracing = _tracing()
    declared = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    points = tracing._wrap_points(None)
    spans = {metric for _, _, metric, _ in points}
    found = {metric for owner, name, metric, _ in points
             if getattr(owner, name, None) is not None}
    needed = {name: name[:-2] for name in declared
              if name.endswith("_s") and name[:-2] in spans}
    needed.update((name, span) for name, span in tracing.DERIVED.items()
                  if name in declared)
    assert {"alcove.fold_s", "alcove.fold_calls",
            "alcove.explore_s"} <= set(needed)
    assert sorted(name for name, span in needed.items()
                  if span not in found) == []


PY_FILES = sorted(str(path.relative_to(ROOT))
                  for folder in ("src", "tests", "demos")
                  for path in (ROOT / folder).rglob("*.py")
                  if path.name != "__init__.py")   # re-exports


def _unused_imports(tree):
    """(line, name) of each name an import binds that the module never
    reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", PY_FILES)
def test_no_unused_imports(path):
    tree = ast.parse((ROOT / path).read_text(), filename=path)
    unused = _unused_imports(tree)
    assert unused == [], "%s: unused imports (line, name) %s" % (path, unused)
