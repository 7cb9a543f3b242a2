"""Command-line entry point: build, filter, compare, verify, export.

Output format is chosen by the file extension (.dot or .json); stdout
carries a one-line human summary.  Exit codes: 0 pass, 1 failing check,
2 usage or construction error.
"""

import argparse
import sys

from . import experiments
from .alcove import alcove_crystal
from .cartan import parse_type
from .crystals import DEFAULT_NODE_CAP
from .errors import KRCrystalError
from .weyl import build_qbg, DEFAULT_WEYL_CAP

CHECK_NAMES = ("reduction", "bmin", "qsystem", "qchar", "alcove", "figure")


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


def _resolve(args):
    """Fill unset options from --config, then from the documented defaults.
    Each config value is checked as its flag's would be: a switch takes
    true or false, any other flag its type, then its choices."""
    cfg = _load_config(args.config) if args.config else {}
    actions = {a.dest: a for a in _parser.commands[args.command]._actions
               if a.option_strings and hasattr(args, a.dest)}
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
        if getattr(args, key) is None:
            setattr(args, key, value)
    for key, default in (("level", 1), ("node_cap", DEFAULT_NODE_CAP),
                         ("weyl_cap", DEFAULT_WEYL_CAP)):
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


def _check_out(path, suffixes=(".dot", ".json")):
    """Reject an output path of the wrong suffix before anything is built."""
    if not path.endswith(suffixes):
        raise UsageError("output must end in %s: %r"
                         % (" or ".join(suffixes), path))


def _write_graph(graph, path, chain=None):
    if path.endswith(".dot"):
        with open(path, "w") as fh:
            graph.to_dot(fh)
        return
    text = graph.to_json() if chain is None else _alcove_json(graph, chain)
    with open(path, "w") as fh:
        fh.write(text)


def _alcove_json(graph, chain):
    import json
    data = graph.json_data()
    for node, J in zip(data["nodes"], graph.nodes):
        node["J"] = list(J)
    data["chain"] = [list(beta) for beta in chain.roots]
    return json.dumps(data, separators=(",", ":")) + "\n"


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
    name = args.name
    if name not in CHECK_NAMES:
        raise UsageError("unknown check %r (one of %s)"
                         % (name, ", ".join(CHECK_NAMES)))
    if name == "figure":
        report = experiments.check_figure(args.node_cap)
    elif name == "reduction":
        report = experiments.check_reduction(
            parse_type(_require(args, "type")),
            parse_factors(_require(args, "factors")),
            parse_factors(_require(args, "factors2")), args.level,
            args.mode or "head", args.node_cap)
    elif name == "bmin":
        report = experiments.check_bmin(
            parse_type(_require(args, "type")),
            parse_factors(_require(args, "factors")), args.level,
            args.node_cap)
    elif name in ("qsystem", "qchar"):
        cartan = parse_type(_require(args, "type"))
        if cartan.family != "A":
            raise UsageError("check %r runs in type A only, not %s"
                             % (name, args.type))
        a, m = _require(args, "a"), _require(args, "m")
        if name == "qsystem":
            report = experiments.check_qsystem_typeA(
                cartan.rank, a, m, args.level, args.node_cap)
        else:
            report = experiments.check_character_qsystem(cartan.rank, a, m,
                                                         args.node_cap)
    else:  # alcove
        cartan = parse_type(_require(args, "type"))
        lam = _parse_lambda(_require(args, "lam"), cartan)
        report = experiments.check_alcove_correspondence(
            cartan, lam, args.level, args.node_cap, args.weyl_cap)

    print("%s %s: %s" % (report.name, report.parameters, report.status))
    if args.out:
        text = experiments.to_junit([report]) if args.junit \
            else report.to_json()
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.passed else 1


def _require(args, key):
    value = getattr(args, key, None)
    if value is None:
        raise UsageError("check %r needs --%s" % (args.name,
                                                  key.replace("lam", "lambda")))
    return value


def cmd_qbg(args):
    _check_out(args.out, (".dot",))
    qbg = build_qbg(parse_type(args.type), args.weyl_cap)
    with open(args.out, "w") as fh:
        qbg.to_dot(fh)
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
    c.add_argument("name", help="one of " + ", ".join(CHECK_NAMES))
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
