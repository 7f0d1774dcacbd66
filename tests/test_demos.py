"""The demos run as scripts against the package source."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_sublattice_census_demo():
    # covers the demo's use of enumerate_triples, s_count and the experiment
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "04_sublattice_census.py")],
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    assert any(line.strip().startswith("pi^2/12 = ")
               for line in proc.stdout.decode().splitlines())
