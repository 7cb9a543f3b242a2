"""Record bench/expected.json from the library as it is now.

    python3 bench/record.py

Stores the sha256 of every output any seed can produce, and per workload
the seed-invariant counts of a traced pass, after checking that seeds 0
and 1 agree on them.  Re-record only when a change is meant to alter an
output byte or a count.
"""

import json
import time

import run
import workloads


def main():
    deadline = time.monotonic() + 3600
    variants = workloads.all_variants()
    res = run.run_pass(variants, False, {}, deadline)
    for key, problems in res["failures"]:
        if problems != ["sha256 differs from the recorded digest"]:
            raise SystemExit("%s: %s" % (key, problems))
    sha = dict(zip(map(workloads.op_key, variants), res["digests"]))
    counts = {}
    for name in workloads.WORKLOADS:
        seen = []
        for seed in (0, 1):
            layers = run.run_pass(workloads.ops(name, seed), True, sha,
                                  deadline)["layers"]
            seen.append({k: layers[k] for k in run.SEED_INVARIANT})
        if seen[0] != seen[1]:
            raise SystemExit("%s: seeds 0 and 1 differ: %r" % (name, seen))
        counts[name] = seen[0]
    with open(run.EXPECTED, "w") as fh:
        json.dump({"sha256": dict(sorted(sha.items())), "counts": counts},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
