"""The demos run as scripts against the package source.  They call only
names that a command reaches: demo 02 reads the formal roots from
root_coefficients and demo 04 the count from s_count, so no demo keeps a
name in src."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

# each demo and the lines it prints when its computation comes out right;
# demo 03 also prints the minimal polynomial of x(Q+iP), a quartic factor
# of psi_5, for i = 1..4
DEMOS = {
    "01_coordinate_expansions": ["kappa = -1"],
    "02_eta_quotients_and_roots": [
        "agree to truncation: True",
        "cube root unit part: [Fraction(1, 1), Fraction(-2, 3), "
        "Fraction(-7, 9), Fraction(-22, 81), Fraction(-70, 243)]",
        "growth of -ord_3(b_m/b_0) for zeta^(1/3): [1, 6, 14, 28, 58]"],
    "03_catalog_detection": ["hypothesis confirmed: True"] + [
        f"  fQ+{i}P: x-coordinate minimal polynomial {mp}"
        for i, mp in ((1, [155, 200, 120, 15, 1]), (2, [101, 41, 11, 1, 1]),
                      (3, [101, 41, 11, 1, 1]), (4, [155, 200, 120, 15, 1]))],
    "04_sublattice_census": ["pi^2/12 = ",
                             "triples with index < 3: CensusResult(X=3, "
                             "count=4)"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs_and_prints_its_line(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
        capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().splitlines()
    assert [want for want in DEMOS[demo]
            if not any(want in line for line in lines)] == []
