"""`src` holds what a command runs: every function defined in the library
(methods and nested functions included) is reached by a CLI command, or
is on the commented allow-list below with the reason it stays.

The commands are every `check` row's passing and refused case, every
golden export row, one `--config` run and one `--junit` run.  They run in
a fresh interpreter, so no cache an earlier test filled (the lru_cache'd
groups, QBGs and factors) hides the builders behind it, under
`sys.setprofile`, which records the code object of every Python call."""

import ast
import json
import os
import pathlib
import subprocess
import sys

from test_cli import CHECK_ROWS, GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "krcrystals"

# module:qualname of each function no command reaches, and why it stays
UNREACHED = {
    # the benchmark tracer wraps it for alcove.fold_s, alcove.fold_calls
    # and alcove.fold_distinct, which test_declared_span_metrics_keep_a_
    # traced_name requires, and demo 04 prints from it; it leaves with the
    # tracer's change to library spans
    "alcove:fold",
    # B(lambda) in every type, the tests' oracle for the filtrations and
    # Stembridge's axioms; a `check` row that compares it is planned
    "alcove:hw_crystal",
    # demo 01 and the acceptance criterion on the QBG's strong
    # connectivity
    "weyl:QuantumBruhatGraph.is_strongly_connected",
    "weyl:QuantumBruhatGraph.is_strongly_connected.<locals>.sweep",
    # the public crystal accessors and protocol methods, used by the
    # demos and the tests
    "crystals:CrystalGraph.f",
    "crystals:CrystalGraph.e",
    "crystals:CrystalGraph.eps",
    "crystals:CrystalGraph.phi",
    "crystals:ProductView.__getitem__",
    "crystals:ProductView.__eq__",
    "cartan:CartanData.__eq__",
    "cartan:CartanData.__repr__",
    # the console-script entry point, sys.exit(main())
    "cli:run",
}

# the profiled interpreter: argv lists on stdin, the (module, first line,
# name) of every library code object called while cli.main ran them on
# stdout (co_qualname is Python 3.11 and later only)
PROFILE = r"""
import contextlib, io, json, os, sys
import krcrystals
from krcrystals import cli

src = os.path.dirname(krcrystals.__file__)
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

roots = json.load(sys.stdin)
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    sys.setprofile(profile)
    try:
        for argv in roots:
            cli.main(argv)
    finally:
        sys.setprofile(None)
print(json.dumps(sorted({
    (os.path.basename(code.co_filename)[:-3], code.co_firstlineno,
     code.co_name)
    for code in codes if os.path.dirname(code.co_filename) == src})))
"""


def _defined():
    """(module, first line, name) -> module:qualname of every function
    defined in src; a decorated function's code starts at its first
    decorator."""
    names = {}

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(d.lineno for d in child.decorator_list + [child])
                names[module, first, child.name] = "%s:%s%s" % (
                    module, prefix, child.name)
                visit(child, prefix + child.name + ".<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", module)
            else:
                visit(child, prefix, module)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), "", path.stem)
    return names


def _roots(tmp_path):
    roots = []
    for name, (argv, _, refused, _) in CHECK_ROWS.items():
        roots += [["check", name] + argv, ["check", name] + refused]
    for k, (args, ext, _) in enumerate(GOLDEN):
        roots.append(args + ["--out", str(tmp_path / ("%d.%s" % (k, ext)))])
    config = tmp_path / "conf"
    config.write_text("level=2\n")
    roots.append(["build", "--type", "A2", "--factors", "1,2", "--view",
                  "demazure", "--config", str(config),
                  "--out", str(tmp_path / "config.json")])
    roots.append(["check", "figure", "--junit",
                  "--out", str(tmp_path / "report.xml")])
    return roots


def test_every_src_function_is_reached_or_allowed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE], input=json.dumps(_roots(tmp_path)),
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # comprehensions, lambdas and generator expressions are code objects
    # too, named <listcomp>, <lambda>, ...; every other one is a def
    names = _defined()
    reached = {names.get(tuple(key)) for key in json.loads(proc.stdout)
               if not key[2].startswith("<")}
    assert None not in reached                 # each one found in the AST
    defined = set(names.values())
    assert sorted(defined - reached - UNREACHED) == []   # dead code
    assert sorted(UNREACHED & reached) == []             # a stale entry
    assert sorted(UNREACHED - defined) == []             # a gone name
