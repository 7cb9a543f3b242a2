"""The krcrystals benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass spawns a fresh interpreter
(bench/worker.py) that imports krcrystals and runs the workload's ops in
order through `krcrystals.cli.main`; passes repeat until the next one would
end after S seconds.  Every output file is checked (exit code, verdict,
parse, node count, sha256 against bench/expected.json).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones: wall_s (the mean over the passes), setup_s and
peak_rss_mb (medians), pass_rate.  With --trace 1 passes alternate
untraced and traced and the metrics are the per-layer ones from the
traced passes (see tracing.py).
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH, "expected.json")
WORKER = os.path.join(BENCH, "worker.py")
LIMIT_S = 170  # every run exits well within the 180 s a run may take
SETUP_SAMPLES = 10  # import-only workers per run, besides one per pass

# Each pass k runs with PYTHONHASHSEED=k, so every run sees the same hash
# seeds in the same order, and the digest check shows that no output
# depends on the hash seed.  Pass k also starts on CPUS[k % len(CPUS)]:
# left alone, the kernel starts every worker on the CPU the last one ran
# on, and on a shared host one CPU can be slowed by a neighbour for a whole
# run while the other is not (see README.md, Noise).  The worker then
# widens its affinity back to all of CPUS, so the library's thread pool
# may use every CPU, as it does for a CLI user.
CPUS = sorted(os.sched_getaffinity(0))

# counts that must not depend on the seed: every seed picks variants that
# do the same work
SEED_INVARIANT = ("crystals.tensor_nodes", "crystals.tensor_edges",
                  "alcove.subsets", "alcove.edges", "weyl.qbg_vertices",
                  "weyl.qbg_edges")

DOT_LINE = re.compile(r'  n\d+ (\[label="[^"]*"\]|-> n\d+ \[label="[^"]*"'
                      r'(, (color|style)=\w+)?\]);')


def check_output(op, data):
    """Problems with one op's output bytes (empty when they are correct)."""
    text = data.decode("utf-8", "replace")
    if op.ext == "json":
        try:
            doc = json.loads(text)
        except ValueError:
            return ["output does not parse as JSON"]
        if op.nodes is None:
            if doc.get("status") != "pass":
                return ["verdict %r" % doc.get("status")]
        elif len(doc.get("nodes", ())) != op.nodes:
            return ["%d nodes, expected %d"
                    % (len(doc.get("nodes", ())), op.nodes)]
        return []
    lines = text.splitlines()
    if lines[:1] not in (["digraph crystal {"], ["digraph qbg {"]) \
            or lines[-1:] != ["}"] \
            or not all(DOT_LINE.fullmatch(x) for x in lines[1:-1]):
        return ["output does not parse as DOT"]
    nodes = sum(1 for x in lines if "->" not in x and "[label=" in x)
    if nodes != op.nodes:
        return ["%d nodes, expected %d" % (nodes, op.nodes)]
    return []


def run_pass(ops, trace, digests, deadline, k=0):
    """Spawn the k-th worker of a run; return its result with setup_s, the
    sha256 of each output and a list of (op, problem) failures."""
    outdir = tempfile.mkdtemp(prefix="pass-", dir=os.path.join(BENCH, ".out"))
    try:
        paths = [os.path.join(outdir, "%d.%s" % (i, op.ext))
                 for i, op in enumerate(ops)]
        spec = {"src": SRC, "trace": trace, "cpus": CPUS,
                "ops": [list(op.argv) + ["--out", p]
                        for op, p in zip(ops, paths)]}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                env=dict(os.environ, PYTHONHASHSEED=str(k)),
                preexec_fn=functools.partial(os.sched_setaffinity, 0,
                                             [CPUS[k % len(CPUS)]]),
                capture_output=True, text=True,
                timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            print("worker timed out", file=sys.stderr)
            return None
        try:
            res = json.loads(proc.stdout.splitlines()[-1])
        except (ValueError, IndexError):
            print("worker failed:", proc.stderr[-2000:], file=sys.stderr)
            return None
        res["setup_s"] = res["imported"] - spawned
        res["failures"] = []
        res["digests"] = []
        res["out_bytes"] = 0
        for op, path, r in zip(ops, paths, res["ops"]):
            problems = [] if r["rc"] == 0 else [
                "exit code %r %s" % (r["rc"], r["error"])]
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as err:
                problems.append("no output: %s" % err)
            else:
                digest = hashlib.sha256(data).hexdigest()
                if digest != digests.get(workloads.op_key(op)):
                    problems.append("sha256 differs from the recorded digest")
                problems += check_output(op, data)
                res["digests"].append(digest)
                res["out_bytes"] += len(data)
            if problems:
                res["failures"].append((workloads.op_key(op), problems))
        return res
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(workload, seed, seconds, trace):
    ops = workloads.ops(workload, seed)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + LIMIT_S
    # the first import compiles bytecode, as it does once per install; the
    # others sample set-up time, which is short and noisy
    setups = [run_pass([], False, {}, hard_deadline, k)
              for k in range(SETUP_SAMPLES + 1)][1:]
    kinds = [False, True] if trace else [False]
    passes = {False: [], True: []}
    attempted = failed = 0
    problems = []
    longest = 0.0
    rounds = 0
    while rounds == 0 or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        for kind in kinds:
            res = run_pass(ops, kind, expected["sha256"], hard_deadline,
                           rounds)
            attempted += len(ops)
            if res is None:
                failed += len(ops)
                problems.append("a worker failed")
                continue
            failed += len(res["failures"])
            problems += ["%s: %s" % (k, "; ".join(p))
                         for k, p in res["failures"]]
            passes[kind].append(res)
        rounds += 1
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > hard_deadline:
            break
    provenance = {
        "workload": workload, "seed": seed, "trace": trace,
        "ops": [" ".join(op.argv) + " --out ." + op.ext for op in ops],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "passes": len(passes[False]) + len(passes[True]),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes[False]],
    }
    if trace:
        metrics, trace_problems = layer_summary(
            passes, expected["counts"].get(workload, {}))
        problems += trace_problems
    else:
        metrics = end_to_end(passes[False], [r for r in setups if r],
                             attempted, failed)
    for p in problems:
        print("problem:", p, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def end_to_end(passes, setups, attempted, failed):
    def med(key, runs):
        return statistics.median(p[key] for p in runs) if runs else 0.0

    # The mean pass, not the median: the work is deterministic and
    # CPU-bound, so what varies is the machine, which on a shared host runs
    # up to 1.8x slower in spells of seconds to minutes.  The mean takes in
    # the whole run; the median of its four to thirteen passes, or the
    # shortest time of each op, jumps with the spells (see README.md, Noise).
    def mean(key, runs):
        return statistics.fmean(p[key] for p in runs) if runs else 0.0
    return {
        "wall_s": {"value": mean("wall_s", passes), "unit": "s"},
        "setup_s": {"value": med("setup_s", passes + setups), "unit": "s"},
        "peak_rss_mb": {"value": med("rss_mb", passes), "unit": "MiB"},
        "pass_rate": {"value": (attempted - failed) / attempted,
                      "unit": "ratio"},
    }


UNITS = {"_s": "s", "_bytes": "bytes"}


def is_repeatable(name):
    """Counts that one seed must reproduce exactly.  Times vary, and so do
    cache hits: two pool threads that miss the same key at once both count
    a miss."""
    return not (name.endswith(("_s", "_hits", "_misses"))
                or name.startswith("runtime."))


def layer_summary(passes, expected_counts):
    """Medians of the traced passes' per-layer metrics, and the problems
    the trace shows: a negative self time, self times that do not add up
    to the traced wall time, counts that differ between passes or from the
    recorded ones, or outputs that differ from the untraced passes'."""
    traced, plain = passes[True], passes[False]
    problems = []
    if not traced or not plain:
        return {}, ["no traced and untraced pair of passes finished"]
    for p in traced:
        if p["min_self_s"] < 0:
            problems.append("negative self time %g" % p["min_self_s"])
        if abs(p["unattributed_s"]) > 0.01 * p["wall_s"]:
            problems.append("self times miss %.4f s of the %.4f s traced "
                            "wall time" % (p["unattributed_s"], p["wall_s"]))
        p["layers"]["cli.out_bytes"] = p["out_bytes"]
    if any(p["digests"] != plain[0]["digests"] for p in traced + plain):
        problems.append("traced outputs differ from untraced outputs")
    names = sorted(set().union(*(p["layers"] for p in traced)))
    metrics = {}
    for name in names:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if is_repeatable(name) and len(set(values)) > 1:
            problems.append("%s differs between passes: %r" % (name, values))
        unit = next((u for suffix, u in UNITS.items()
                     if name.endswith(suffix)), "count")
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = {"value": median(values), "unit": unit}
    for name, want in expected_counts.items():
        got = metrics.get(name, {}).get("value")
        if got is not None and got != want:
            problems.append("%s is %r, recorded %r" % (name, got, want))
    overhead = (statistics.fmean(p["wall_s"] for p in traced)
                - statistics.fmean(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "krcrystals", "cli.py")):
        print("error: no krcrystals sources under %s; run from the root of "
              "a krcrystals checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BENCH, ".out"), exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
