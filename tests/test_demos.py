"""Each demo script runs to completion under `python -O`, which also
strips every `assert`, so no demo may lean on one, and prints the bytes
it always has; README's quick-start block runs as written."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: the same under -O and under any hash seed
DEMO_STDOUT = {
    "01_cartan_weyl_qbg.py":
        "3559f0404bf7968f38115ecdf2143a98fade11f93701adbee697a20ae08f7563",
    "02_crystals_and_tensors.py":
        "b0e3648757a238f3e5594e85f6925cffab0726e520e7227ec04ceec0417bfc81",
    "03_demazure_filtrations.py":
        "94a31fb21f7177114a47de7a1b7f5f00d82e1e3428d8f8e02160c3bf2981b279",
    "04_quantum_alcove_model.py":
        "0c7c71ac752cf06a57321253a63cd9b6e182cc4d0db9bb7fb7a877d3b21e6eb5",
    "05_qsystem.py":
        "ed9f9b39a5b58cb67fb7c6492cd506546f2f60200de63f748e2cc4d3b999148d",
}


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_optimized(demo):
    proc = subprocess.run([sys.executable, "-O", str(demo)], env=_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo.name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    proc = subprocess.run([sys.executable, "-c", block], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
