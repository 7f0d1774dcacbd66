"""The demos run as scripts against the package source; demos 01-03 are the
only callers of several public names."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

# each demo and one line it prints when its computation comes out right
DEMOS = {
    "01_coordinate_expansions": "kappa = -1",
    "02_eta_quotients_and_roots": "agree to truncation: True",
    "03_catalog_detection": "hypothesis confirmed: True",
    "04_sublattice_census": "pi^2/12 = ",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs_and_prints_its_line(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
        capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    assert any(DEMOS[demo] in line for line in proc.stdout.decode().splitlines())
