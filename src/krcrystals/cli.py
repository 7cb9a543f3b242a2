"""Command-line entry point: build, filter, compare, verify, export.

Output format is chosen by the file extension (.dot or .json); stdout
carries a one-line human summary.  Exit codes: 0 pass, 1 failing check,
2 usage or construction error.
"""

import argparse
import os
import sys

from . import experiments
from .alcove import alcove_crystal
from .cartan import parse_type
from .crystals import DEFAULT_NODE_CAP
from .errors import KRCrystalError
from .weyl import build_qbg, DEFAULT_WEYL_CAP


class UsageError(Exception):
    pass


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("bad config line: %r" % line)
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _options(args):
    """args' subcommand's options by config key, each its (one, long) flag
    with - as _: node_cap for --node-cap, lambda for --lambda."""
    return {a.option_strings[-1][2:].replace("-", "_"): a
            for a in _parser.commands[args.command]._actions
            if a.option_strings and hasattr(args, a.dest)}


def _resolve(args):
    """Fill unset options from --config, then from the documented defaults.
    Each config value is checked as its flag's would be: a switch takes
    true or false, any other flag its type, then its choices."""
    cfg = _load_config(args.config) if args.config else {}
    actions = _options(args)
    for key, value in cfg.items():
        if key not in actions:
            raise UsageError("config key %r is not an option of %s"
                             % (key, args.command))
        action = actions[key]
        convert = ({"true": True, "false": False}.__getitem__
                   if action.nargs == 0 else action.type or str)
        try:
            value = convert(value)
        except (KeyError, ValueError):
            raise UsageError("config key %r: bad value %r"
                             % (key, value)) from None
        if action.choices is not None and value not in action.choices:
            raise UsageError("config key %r: %r is not one of %s"
                             % (key, value, ", ".join(action.choices)))
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)
    for key, default in (("level", 1), ("mode", "head"),
                         ("node_cap", DEFAULT_NODE_CAP),
                         ("weyl_cap", DEFAULT_WEYL_CAP)):
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


def _check_out(path, suffixes=(".dot", ".json")):
    """Reject an output path of the wrong suffix before anything is built."""
    if not path.endswith(suffixes):
        raise UsageError("output must end in %s: %r"
                         % (" or ".join(suffixes), path))


def _export(path, write):
    """Stream write(fh) into the file at path, created for it; a write that
    raises removes the file, so a failed export leaves no partial one, but
    only a regular file: a device such as /dev/full stays."""
    fh = open(path, "w")
    try:
        with fh:
            write(fh)
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _write_graph(graph, path, chain=None):
    if path.endswith(".dot"):
        _export(path, graph.to_dot)
    else:
        _export(path, lambda fh: graph.to_json(fh, chain))


def parse_factors(text):
    """A colon-separated list of r,s pairs, leftmost factor first; empty or
    None for no factor."""
    factors = []
    for part in text.split(":") if text else ():
        try:
            r, s = map(int, part.split(","))
        except ValueError:
            raise UsageError("factor %r is not of the form r,s"
                             % part) from None
        if s < 0:
            raise ValueError("factor width must be >= 0")
        factors.append((r, s))
    return factors


def _parse_lambda(text, cartan):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("lambda %r is not a comma-separated list of "
                         "integers" % text) from None
    if len(coords) != cartan.rank:
        raise UsageError("lambda needs %d coordinates" % cartan.rank)
    return coords


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args):
    _check_out(args.out)
    cartan = parse_type(args.type)
    factors = parse_factors(args.factors)
    if args.view in (None, "none"):
        graph = experiments.build_tensor(cartan, factors, args.node_cap)
    else:
        mode = "head" if args.view == "demazure" else "tail"
        graph = experiments.build_filtered(cartan, factors, args.level,
                                           mode, args.node_cap)
    _write_graph(graph, args.out)
    print("wrote %s: %d nodes, %d edges" %
          (args.out, len(graph), graph.edge_count))
    return 0


def cmd_check(args):
    """Run the check that experiments.CHECKS names, with its options
    required and parsed in the row's order."""
    if args.name not in experiments.CHECKS:
        raise UsageError("unknown check %r (one of %s)"
                         % (args.name, ", ".join(experiments.CHECKS)))
    function, options = experiments.CHECKS[args.name]
    flags = {a.dest: "--" + key.replace("_", "-")
             for key, a in _options(args).items()}
    values = []
    for key in options:
        value = getattr(args, key)
        if value is None:
            raise UsageError("check %r needs %s" % (args.name, flags[key]))
        if key == "type":
            value = cartan = parse_type(value)
        elif key in ("factors", "factors2"):
            value = parse_factors(value)
        elif key == "lam":
            value = _parse_lambda(value, cartan)
        values.append(value)
    # looked up at call time, so a wrapped or replaced check is the one run
    report = getattr(experiments, function)(*values)

    print("%s %s: %s" % (report.name, report.parameters, report.status))
    if args.out:
        _export(args.out, lambda fh: fh.write(
            experiments.to_junit([report]) if args.junit
            else report.to_json()))
    return 0 if report.passed else 1


def cmd_qbg(args):
    _check_out(args.out, (".dot",))
    qbg = build_qbg(parse_type(args.type), args.weyl_cap)
    _export(args.out, qbg.to_dot)
    print("wrote %s: %d vertices, %d edges"
          % (args.out, qbg.vertex_count, qbg.edge_count))
    return 0


def cmd_alcove(args):
    _check_out(args.out)
    cartan = parse_type(args.type)
    lam = _parse_lambda(args.lam, cartan)
    graph = alcove_crystal(cartan, lam, args.level, node_cap=args.node_cap,
                           weyl_cap=args.weyl_cap)
    _write_graph(graph, args.out, chain=graph.chain)
    print("wrote %s: %d admissible subsets, %d edges"
          % (args.out, len(graph), graph.edge_count))
    return 0


# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="key=value file preloading defaults")
    sub.add_argument("--node-cap", type=int, help="exploration node cap "
                     "(default %d)" % DEFAULT_NODE_CAP)
    sub.add_argument("--weyl-cap", type=int, help="Weyl group enumeration "
                     "cap (default %d)" % DEFAULT_WEYL_CAP)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="krcrystals",
        description="Build, filter, compare, and export KR-crystal and "
                    "quantum-alcove-model data.")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build a (filtered) tensor product")
    b.add_argument("--type", required=True, help='Cartan type, e.g. "C2~"')
    b.add_argument("--factors",
                   help="colon-separated r,s pairs, leftmost factor first")
    b.add_argument("--level", type=int)
    b.add_argument("--view", choices=("none", "demazure", "dual"))
    b.add_argument("--out", required=True, help=".dot or .json output path")
    _add_common(b)

    c = subs.add_parser("check", help="run a named verification")
    c.add_argument("name", help="one of " + ", ".join(experiments.CHECKS))
    c.add_argument("--type")
    c.add_argument("--factors")
    c.add_argument("--factors2")
    c.add_argument("--level", type=int)
    c.add_argument("--mode", choices=("head", "tail"))
    c.add_argument("--a", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--lambda", dest="lam")
    c.add_argument("--out", help="report path (.json, or XML with --junit)")
    c.add_argument("--junit", action="store_true", default=None,
                   help="emit a JUnit-style XML report")
    _add_common(c)

    q = subs.add_parser("qbg", help="export the quantum Bruhat graph")
    q.add_argument("--type", required=True)
    q.add_argument("--out", required=True, help=".dot output path")
    _add_common(q)

    a = subs.add_parser("alcove", help="export an alcove-model crystal")
    a.add_argument("--type", required=True)
    a.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated fundamental-weight coordinates")
    a.add_argument("--level", type=int)
    a.add_argument("--out", required=True, help=".json or .dot output path")
    _add_common(a)

    parser.commands = subs.choices   # name -> subparser, read by _resolve
    return parser


_parser = None


def main(argv=None):
    """Run one command; the parser is built at the first call and kept."""
    global _parser
    if _parser is None:
        _parser = make_parser()
    try:
        args = _resolve(_parser.parse_args(argv))
        # looked up at call time, so a replaced cmd_* is the one run
        return globals()["cmd_" + args.command](args)
    except (UsageError, KRCrystalError, ValueError, OSError,
            KeyboardInterrupt, RecursionError) as err:
        print("error: %s" % (str(err) or type(err).__name__), file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
