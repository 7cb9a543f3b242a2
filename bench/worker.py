"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py '{"src": ..., "ops": [[argv...]], "trace": false}'

Imports krcrystals (cold caches, as for a CLI user), runs each op through
`krcrystals.cli.main(argv)` in order in this one process, and prints one
JSON line: the clock reading when the import finished, the wall and CPU
time of the ops, peak RSS, each op's exit code, and with "trace" the
per-layer metrics.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time


def run_ops(cli, ops, tracer=None):
    results = []
    with contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            if i == 0:
                first, cpu0 = start, time.process_time()
            try:
                rc, error = cli.main(argv), None
            except SystemExit as err:
                rc, error = err.code, "exit %r" % err.code
            except Exception as err:  # counted as a failed op
                rc, error = None, "%s: %s" % (type(err).__name__, err)
            results.append({"rc": rc, "error": error})
    last = time.perf_counter()
    return results, last - first, time.process_time() - cpu0


def main():
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, spec["cpus"])  # the runner started it on one
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("krcrystals.cli")
    out = {"imported": time.monotonic()}
    ops = spec["ops"]
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        caches = tracing.memoized()
        before = tracing.cache_counts(caches)
        found = tracer.install()
        results, wall, cpu = run_ops(cli, ops, tracer)
        after = tracing.cache_counts(caches)
        delta = {k: after[k] - before[k] for k in after}
        layers, unattributed, min_self = tracing.layer_metrics(
            tracer, found, delta, wall, cpu)
        out.update(layers=layers, unattributed_s=unattributed,
                   min_self_s=min_self)
    elif ops:
        results, wall, cpu = run_ops(cli, ops)
    else:
        results, wall, cpu = [], 0.0, 0.0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(ops=results, wall_s=wall, cpu_s=cpu, rss_mb=rss_kib / 1024)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
