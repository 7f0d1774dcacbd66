"""Pinned stdout of commands whose output carries exact coefficients or counts.

The series hashes were taken from the element-wise series arithmetic that the
product kernel replaced, the census hashes from the census that enumerated
every triple, the catalog and index-5 report hashes from the quotient curve
functions (u + v*y)/den that the coordinate ring replaced, and the report
table hashes from the report that kept its catalog expansions in the cache,
and the T = 300 report, the --prime 11 report (where no short probe
certifies) and the fQ detect from the scan that expanded every catalog entry
to T + 2 terms, and the census at X = 10^10 and at X = 1000000007 with
--b 13,5,30 from the quotient-block loops that the divisor-sum kernel
replaced, and the index-2 report at T = 300 and the index-5 catalog at
T = 300 from the double-and-add Miller loop that the addition chain
replaced, and the index-2 report at --prime 3 (no probe certifies, so
the full scan runs) from the report that scanned each of its three labels
apart, and the index-5 report at --prime 3 and T = 300 from the detector
that ran every root in full at a prime not dividing the root degree; a
fault that changes any printed coefficient, verdict or count changes a
hash.
Each command runs on an empty cache and again on the cache it filled.
"""

import hashlib
import os
import subprocess
import sys

import pytest

GOLDEN = [
    (["--format", "records", "report", "--index", "2", "--terms", "60"],
     "35b2eb8ad2f7d142d05390583a5f514b762972f244d0bd752189eb241f93da94"),
    (["expand-xy", "--terms", "80"],
     "6b80087cd861a1819437e3bd3190f4c3e941ab279aa55de8b7e08635d3fc0e9c"),
    (["eta", "1/11:12,1:-12", "--width", "11", "--terms", "400"],
     "31f366d9a158aba7400c557eff8efac7840e5abbaa4bc67ed1facdcbc7fbf073"),
    (["census", "--xmax", "1400", "--b", "11,3,12"],
     "aa136a4013064fcedcc7087ddc458edb9aa6f68028478f016d1f945765772af9"),
    (["census", "--xmax", "100", "--b", "2,1,2"],
     "1e9138bc58ea4c4cfa26acd167be8f14a5ca499ce3aeb3fa15f888e6be47a028"),
    (["census", "--xmax", "1000000"],
     "121ee0e09ee75ea25ae098944448abaf93a691fae6836651d740512fe661c4cd"),
    (["catalog", "--index", "5", "--terms", "20"],
     "709bd867ed562941dcfbd2f18cfea2d1d756535c90a96712da1d07557c09487e"),
    (["catalog", "--index", "2", "--terms", "20"],
     "8b8a16033d3cbf131060863f1f73ddfb1cda92114839b2d78ddc01b28d64398f"),
    (["--format", "records", "report", "--index", "5", "--terms", "60"],
     "fcafda07c9600ecc72741122f40868fdc6486ebf81f27789f0f1b64b415b7e91"),
    (["report", "--index", "2", "--terms", "20"],
     "b157835c9ed880f3ea2a24c40231439dd7866a3fb36895802aa966ffff10b25e"),
    (["report", "--index", "5", "--terms", "20"],
     "623c58ac1d29908f06d1841080402e0ac15dc6e17471fc890aebd2d0e97d5bdb"),
    (["--format", "records", "report", "--index", "5", "--terms", "300"],
     "d7bf576839d52c6f924fbcff02fd00c21169e6b505f1417f46bdf257329e6dd4"),
    (["--format", "records", "report", "--index", "5", "--terms", "100",
      "--prime", "11"],
     "d9b4b1f0c0ea472e878ce950e463674cf41ad4d04674382e98f662230f67711b"),
    (["--format", "records", "detect", "--entry", "fQ", "--prime", "5",
      "--root", "5", "--terms", "300"],
     "4633e4951038aa8829e318e13d52dbe912d945c0c9d8ecea96ca674486956e12"),
    (["census", "--xmax", "10000000000"],
     "4f6ff63c4fd00736223810ae1b51667101658e63e534727efd640b8968572c11"),
    (["census", "--xmax", "1000000007", "--b", "13,5,30"],
     "8dae7b9189fdfa037043a3b6a5591162a59ed475678c097d77c944a16c7ac5d6"),
    (["--format", "records", "report", "--index", "2", "--terms", "300"],
     "506c3122af18b52a6d0774e939984f5e3d52c8f0d8c01312124af0d5d23f976c"),
    (["catalog", "--index", "5", "--terms", "300"],
     "6593c34ddaaa21da63ffc5bf272935d7fc64a85df38f96bcbaef6628166a5019"),
    (["--format", "records", "report", "--index", "2", "--terms", "100",
      "--prime", "3"],
     "e2f4d07f2918c325170f8cfef8ee8954aa2f589e2a2c7e6aba1d3315c5cfa125"),
    (["--format", "records", "report", "--index", "5", "--terms", "300",
      "--prime", "3"],
     "fd103e80924380df6eed48e48a94f2efc63977bb210f93dcb112a6a83a7616bf"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=["report", "expand-xy", "eta", "census-b-1400",
                              "census-b-100", "census-1e6", "catalog-5",
                              "catalog-2", "report-5", "report-table-2",
                              "report-table-5", "report-5-300",
                              "report-5-prime-11", "detect-fQ-300",
                              "census-1e10", "census-b-1e9", "report-2-300",
                              "catalog-5-300", "report-2-prime-3",
                              "report-5-prime-3-300"])
def test_golden_stdout(tmp_path, args, digest):
    for _ in ("cold", "warm"):
        proc = subprocess.run([sys.executable, "-m", "ubd", *args],
                              capture_output=True, check=True,
                              env=dict(os.environ, UBD_CACHE_DIR=str(tmp_path)))
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
