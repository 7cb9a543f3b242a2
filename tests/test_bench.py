"""The checked-in benchmark runs end to end under its tracer: a traced
pass of one workload exits 0, checks every output and reports exactly the
per-layer metrics BENCHMARK.json declares."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


# a library name the tracer wraps that goes missing drops the metrics of
# its span from a traced run, and the result no longer matches the
# declared set; only a run shows that end to end
def test_traced_verify_sweep_reports_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-sweep",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    declared = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert len(declared) == 46
    assert set(result["metrics"]) == declared
