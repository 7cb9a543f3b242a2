"""The checked-in benchmark runs end to end under its tracer: a traced
pass of one workload exits 0, checks every output and reports exactly the
per-layer metrics BENCHMARK.json declares."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the QBG exports of alcove-qbg: type -> sha256 of the DOT file
QBG_DIGESTS = {
    "A5": "decd2d8fe5d8899cff76dd095795dfe9be2b280eac011a8afe4b846cdbb47bad",
    "B4": "660662d45be13c0bd8a8023f1de46e120f21382f542de2ff4cd1ba5d01baffd4",
    "C4": "71d964b7c5e31dc4e4f0fdfac7d81bfcaad85773a90b0e26e07db4b2fe54cd17",
    "D4": "f132771571fb210d0b760daa9ddd264e979bed9e166743f9ed3fd1ce367ad9a6",
}


# a library name the tracer wraps that goes missing drops the metrics of
# its span from a traced run, and the result no longer matches the
# declared set; only a run shows that end to end
@pytest.mark.parametrize("workload", ["verify-sweep", "alcove-qbg"])
def test_traced_run_reports_the_declared_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr
    declared = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert len(declared) == 46
    assert set(result["metrics"]) == declared
    if workload == "alcove-qbg":
        metrics = result["metrics"]
        assert metrics["weyl.qbg_vertices"]["value"] == 1946
        assert metrics["weyl.qbg_edges"]["value"] == 15064
        # a correct run matched every output to its recorded digest
        ops = json.loads(lines[-2])["provenance"]["ops"]
        recorded = json.loads((ROOT / "bench/expected.json").read_text())
        for name, digest in QBG_DIGESTS.items():
            assert "qbg --type %s --out .dot" % name in ops
            key = "qbg --type %s --out OUT.dot" % name
            assert recorded["sha256"][key] == digest
