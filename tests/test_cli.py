import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ubd import __version__
from ubd.qseries import COEFF_DIGITS_CEILING, deserialize_series


def run_cli(args, cache, check=True):
    env = dict(os.environ, UBD_CACHE_DIR=str(cache))
    proc = subprocess.run([sys.executable, "-m", "ubd"] + args,
                          capture_output=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}: {proc.stderr.decode()}")
    return proc


def test_eta_record_output(tmp_path):
    p = run_cli(["eta", "1:2,13:-2", "--width", "1", "--terms", "10"], tmp_path)
    series = deserialize_series(p.stdout.decode())
    assert series.lead == -1
    assert series.coefficients(-1, 3) == [1, -2, -1, 2]


def test_eta_width_error_exit_code(tmp_path):
    p = run_cli(["eta", "1:1", "--width", "1", "--terms", "5"], tmp_path,
                check=False)
    assert p.returncode == 2
    assert b"incompatible" in p.stderr


def test_eta_eta_itself(tmp_path):
    p = run_cli(["eta", "1:1", "--width", "24", "--terms", "5"], tmp_path)
    series = deserialize_series(p.stdout.decode())
    assert series.lead == 1


def test_eta_zero_exponent_is_skipped(tmp_path):
    p = run_cli(["eta", "1:0,1:24", "--width", "1", "--terms", "4"], tmp_path)
    plain = run_cli(["eta", "1:24", "--width", "1", "--terms", "4"], tmp_path)
    assert p.stdout == plain.stdout
    series = deserialize_series(p.stdout.decode())
    assert series.lead == 1
    assert series.coefficients(1, 6) == [1, -24, 252, -1472, 4830]


def test_detect_entry_and_exit_codes(tmp_path):
    p = run_cli(["--format", "records", "detect", "--entry", "fP",
                 "--prime", "5", "--root", "5", "--terms", "40"], tmp_path)
    out = p.stdout.decode()
    assert "status=UnboundedCertified" in out
    assert "witness_index=1" in out
    assert "mode=rational" in out


def test_detect_unknown_entry_lists_labels(tmp_path):
    p = run_cli(["detect", "--entry", "nope", "--prime", "5", "--root", "5"],
                tmp_path, check=False)
    assert p.returncode == 2
    for lab in (b"fP1", b"fP", b"fQ", b"fQ+1P"):
        assert lab in p.stderr


def test_detect_series_file(tmp_path):
    eta = run_cli(["eta", "1:2,13:-2", "--width", "1", "--terms", "50"], tmp_path)
    f = tmp_path / "zeta.series"
    f.write_bytes(eta.stdout)
    p = run_cli(["--format", "records", "detect", "--series-file", str(f),
                 "--prime", "3", "--root", "3", "--terms", "50"], tmp_path)
    assert b"status=UnboundedCertified" in p.stdout
    assert b"witness_index=1" in p.stdout


def test_census_examples(tmp_path):
    p = run_cli(["census", "--xmax", "3"], tmp_path)
    assert p.stdout.decode().split("\t")[:2] == ["3", "4"]
    p = run_cli(["census", "--xmax", "100", "--b", "1,0,1"], tmp_path)
    fields = p.stdout.decode().split("\t")
    assert fields[1] == str(len_100_count())


def test_census_phi_bound_failure_exits_4(monkeypatch, capsys):
    import ubd.census
    from ubd import cli

    monkeypatch.setattr(ubd.census, "euler_phi", lambda n: 10 ** 12)
    assert cli.main(["census", "--xmax", "100", "--b", "2,1,2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: ")
    assert "Traceback" not in captured.err


def test_census_ceilings_exit_2_at_once(capsys):
    from ubd import cli

    for argv in (["census", "--xmax", str(cli.XMAX_CEILING + 1)],
                 ["census", "--xmax", str(10 ** 30)],
                 ["census", "--xmax", "100", "--b", "1,0,1000000000000000003"],
                 ["census", "--xmax", "100", "--b",
                  f"{cli.SV_CEILING + 1},0,5"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at most 10^1" in err, err
    # s and v at the ceiling: the largest prime below 10^12, factored by
    # 10^6 trial divisions
    assert cli.main(["census", "--xmax", "100", "--b",
                     "999999999989,0,999999999989"]) == 0
    assert capsys.readouterr().out.startswith("100\t")


def len_100_count():
    from ubd.census import s_count
    return s_count(100).count


def test_catalog_output(tmp_path):
    p = run_cli(["catalog", "--index", "5", "--terms", "6"], tmp_path)
    out = p.stdout.decode()
    assert out.count("entry ") == 6
    assert out.count("congruence known-congruence") == 1


def test_expand_xy_output(tmp_path):
    p = run_cli(["expand-xy", "--terms", "15"], tmp_path)
    out = p.stdout.decode()
    assert out.startswith("# kappa -1/1")
    assert "lead -2" in out and "lead -3" in out


def test_report_records(tmp_path):
    p = run_cli(["--format", "records", "report", "--index", "2",
                 "--terms", "30"], tmp_path)
    out = p.stdout.decode()
    assert out.count("status=UnboundedCertified") == 3
    assert "hypothesis_confirmed=True" in out


@pytest.mark.parametrize("args", [
    ["eta", "1:2,13:-2", "--width", "1", "--terms", "20"],
    ["expand-xy", "--terms", "12"],
    ["catalog", "--index", "2", "--terms", "5"],
    ["--format", "records", "detect", "--entry", "fP", "--prime", "5",
     "--root", "5", "--terms", "30"],
    ["census", "--xmax", "50"],
    ["census", "--xmax", "40", "--b", "2,1,2"],
    ["--format", "records", "report", "--index", "2", "--terms", "25"],
])
def test_determinism_byte_identical(tmp_path, args):
    first = run_cli(args, tmp_path)       # cold cache
    second = run_cli(args, tmp_path)      # warm cache
    assert first.stdout == second.stdout
    fresh = run_cli(args, tmp_path / "other")  # cold again
    assert first.stdout == fresh.stdout


def test_validation_exit_codes(tmp_path):
    cases = [
        ["eta", "0:1", "--width", "1", "--terms", "3"],
        ["eta", "1:x", "--width", "1", "--terms", "3"],
        ["expand-xy", "--terms", "3"],
        ["report", "--index", "2", "--terms", "15", "--prime", "4"],
        ["report", "--index", "5", "--terms", "15", "--prime", "0"],
        ["report", "--index", "3", "--terms", "15"],
        ["census", "--xmax", "1"],
        ["census", "--xmax", "30", "--b", "2,9,2"],
        ["detect", "--prime", "5", "--root", "5"],
        # a Mersenne prime above the bound of the proven primality test
        ["detect", "--entry", "fP", "--prime", str(2 ** 89 - 1), "--root", "5",
         "--terms", "10"],
    ]
    for args in cases:
        p = run_cli(args, tmp_path, check=False)
        assert p.returncode == 2, (args, p.stderr.decode())
        assert p.stderr.startswith(b"error:")


def test_detect_garbage_series_file(tmp_path):
    # a bad header, a 1/0 coefficient, a record with no field line, and bytes
    # that are not UTF-8: each is bad input, so exit 2 with a message, never
    # a traceback
    bad = {
        "bad.series": b"garbage\n",
        "zero-den.series": b"series 1\nwidth 1\nlead 0\ntruncation 1\n"
                           b"field rational\n1/1\n1/0\n",
        "no-field.series": b"series 1\nwidth 1\nlead 0\ntruncation 0\n1/1\n",
        "latin1.series": "series 1\nwidth 1\n\xe9\n".encode("latin-1"),
    }
    for name, data in bad.items():
        f = tmp_path / name
        f.write_bytes(data)
        p = run_cli(["detect", "--series-file", str(f), "--prime", "3",
                     "--root", "3"], tmp_path, check=False)
        assert p.returncode == 2, (name, p.stderr.decode())
        assert p.stderr.startswith(b"error: cannot read series file:"), name


def _one_coefficient_file(path, coeff, field="rational", zero="0/1"):
    """A record of a_0 = 1, a_1 = coeff and two zeros."""
    one = ",".join(["1"] + ["0"] * zero.count(","))
    path.write_text(f"series 1\nwidth 1\nlead 0\ntruncation 3\n"
                    f"field {field}\n{one}\n{coeff}\n{zero}\n{zero}\n")
    return path


def _detect_file(path, p, root, timeout):
    return subprocess.run(
        [sys.executable, "-m", "ubd", "detect", "--series-file", str(path),
         "--prime", str(p), "--root", str(root), "--terms", "3"],
        capture_output=True, timeout=timeout)


def test_huge_series_coefficient_exits_2_at_once(tmp_path):
    # a_1 = 1e999999 once kept detect dividing a 3.3-million-bit int by 5,
    # once per unit of valuation, past any timeout; exponent and decimal
    # forms are not record forms, and a coordinate past the digit ceiling is
    # refused before its int is built
    big = "9" * (COEFF_DIGITS_CEILING + 1)
    cases = {"exp": "1e999999", "decimal": "0.5", "underscore": "1_000",
             "num": big + "/1", "den": "-1/" + big}
    for name, coeff in cases.items():
        path = _one_coefficient_file(tmp_path / f"{name}.series", coeff)
        p = _detect_file(path, 5, 2, timeout=10)
        assert p.returncode == 2, (name, p.stderr.decode())
        assert p.stderr.startswith(b"error: cannot read series file:"), name
    quartic = "869405,19255,1360,20,1"
    path = _one_coefficient_file(tmp_path / "field.series", f"0,{big},0,1",
                                 quartic, "0/1,0/1,0/1,0/1")
    assert _detect_file(path, 5, 5, timeout=10).returncode == 2


@pytest.mark.parametrize("p", [2, 5])
def test_a_coefficient_at_the_digit_ceiling_is_read(tmp_path, p):
    # the largest power of p with COEFF_DIGITS_CEILING digits, as numerator
    # and as denominator, over Q and in the index-5 quartic field: the
    # slowest such file took 0.7 s on a 2-vCPU machine
    k = int(COEFF_DIGITS_CEILING / math.log10(p)) + 1
    while len(str(p ** k)) > COEFF_DIGITS_CEILING:
        k -= 1
    b = p ** k
    assert len(str(b)) == COEFF_DIGITS_CEILING
    for name, coeff, field, zero in [
            ("num", f"{b}", "rational", "0"),
            ("den", f"-1/{b}", "rational", "0/1"),
            ("field", f"{b}/1,{b - 1}/{b + 1},1/1,1/{b}",
             "869405,19255,1360,20,1", "0/1,0/1,0/1,0/1")]:
        path = _one_coefficient_file(tmp_path / f"{name}.series", coeff,
                                     field, zero)
        proc = _detect_file(path, p, 2 if field == "rational" else 5,
                            timeout=30)
        assert proc.returncode == 0, (name, proc.stderr.decode())


def test_detect_inconclusive_exit_code(tmp_path):
    # a Q(i)-coefficient series whose conjugate valuations straddle the
    # threshold at the split prime 5: detection must exit 3
    from fractions import Fraction
    from ubd.exactnum import NumberField
    from ubd.qseries import LaurentSeries, serialize_series

    gauss = NumberField([1, 0, 1])
    i = gauss.gen()
    f = LaurentSeries(1, 0, [gauss.one(), (2 - i) / 5, gauss.zero()],
                      field=gauss)
    path = tmp_path / "straddle.series"
    path.write_text(serialize_series(f))
    p = run_cli(["--format", "records", "detect", "--series-file", str(path),
                 "--prime", "5", "--root", "2", "--terms", "2"], tmp_path,
                check=False)
    assert p.returncode == 3
    assert b"status=Inconclusive" in p.stdout


def test_cache_roundtrip_and_corruption(tmp_path):
    args = ["expand-xy", "--terms", "30"]
    first = run_cli(args, tmp_path)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".series")]
    assert files
    good = {f: (tmp_path / f).read_text() for f in files}
    # corrupt every cache record, with a bad header or with a 1/0
    # coefficient; the run must warn and recompute identically
    for corrupt in (lambda text: "series 1\nwidth nonsense\n",
                    lambda text: text.rsplit("\n", 2)[0] + "\n1/0,0/1,0/1\n"):
        for f in files:
            (tmp_path / f).write_text(corrupt(good[f]))
        second = run_cli(args, tmp_path)
        assert b"corrupt cache entry" in second.stderr
        assert second.stdout == first.stdout


def test_only_expand_xy_touches_the_cache(tmp_path):
    cache = tmp_path / "cache"
    f = tmp_path / "f.series"
    f.write_text("series 1\nwidth 1\nlead 0\ntruncation 3\nfield rational\n"
                 "1/1\n2/1\n3/1\n4/1\n")
    for args in (["report", "--index", "2", "--terms", "20"],
                 ["detect", "--entry", "fP1", "--prime", "2", "--root", "2",
                  "--terms", "20"],
                 ["detect", "--series-file", str(f), "--prime", "3",
                  "--root", "3", "--terms", "3"]):
        run_cli(args, cache)
        assert not cache.exists(), args
    run_cli(["expand-xy", "--terms", "30"], cache)
    assert sorted(p.name for p in cache.iterdir()) == [
        f"expand-xy-x-T=30-{__version__}.series",
        f"expand-xy-y-T=30-{__version__}.series"]


def test_short_series_scan_warns_on_stderr(tmp_path):
    f = tmp_path / "short.series"
    f.write_text("series 1\nwidth 1\nlead 0\ntruncation 1\nfield rational\n"
                 "0/1\n3/1\n")
    p = run_cli(["detect", "--series-file", str(f), "--prime", "5",
                 "--root", "5", "--terms", "300"], tmp_path)
    assert p.stdout == (b"short.series BoundedSoFar          "
                        b"[tau=0/1, T=0, mode=rational]\n")
    assert p.stderr == (b"warning: scanned 0 of the 300 requested coefficients "
                        b"(series too short)\n")
    # a scan that covers what was asked stays quiet
    eta = run_cli(["eta", "1:2,13:-2", "--width", "1", "--terms", "30"],
                  tmp_path)
    g = tmp_path / "zeta.series"
    g.write_bytes(eta.stdout)
    p = run_cli(["detect", "--series-file", str(g), "--prime", "3",
                 "--root", "3", "--terms", "20"], tmp_path)
    assert p.stderr == b""


def test_expand_xy_solves_once_per_cold_run(tmp_path, monkeypatch, capsys):
    from ubd import cli

    calls = []
    original = cli.expand_xy

    def counted(T):
        calls.append(T)
        return original(T)

    monkeypatch.setattr(cli, "expand_xy", counted)
    args = ["--cache-dir", str(tmp_path), "expand-xy", "--terms", "30"]
    assert cli.main(args) == 0
    cold = capsys.readouterr().out
    assert calls == [30]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == cold
    assert calls == [30]


def test_out_of_memory_exits_2_with_an_error_line(tmp_path, monkeypatch,
                                                  capsys):
    from ubd import cli

    def exhausted(T):
        raise MemoryError

    monkeypatch.setattr(cli, "expand_xy", exhausted)
    rc = cli.main(["--cache-dir", str(tmp_path), "expand-xy", "--terms", "30"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unindexable_terms_exits_2_with_the_out_of_memory_line(monkeypatch,
                                                               capsys):
    # a length past sys.maxsize raises OverflowError before any allocation,
    # once past the --terms ceiling that refuses it first
    from ubd import cli

    monkeypatch.setattr(cli, "TERMS_CEILING", 10 ** 30)
    rc = cli.main(["eta", "1:1", "--width", "1", "--terms",
                   "99999999999999999999"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: out of memory")


@pytest.mark.parametrize("layout", ["file", "under-a-file", "record-is-a-dir"])
def test_unusable_cache_directory_exits_2(tmp_path, capsys, layout):
    from ubd import cli

    target = tmp_path / "cache"
    if layout == "file":
        target.write_text("")
    elif layout == "under-a-file":
        target.write_text("")
        target = target / "sub"
    else:
        key = cli._cache_key("expand-xy-x", "T=10")
        (target / f"{key}.series").mkdir(parents=True)
    rc = cli.main(["--cache-dir", str(target), "expand-xy", "--terms", "10"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot use cache directory")


@pytest.mark.parametrize("args", [
    ["report", "--index", "5", "--terms", "0"],
    ["--format", "records", "report", "--index", "2", "--terms", "0"],
    ["detect", "--entry", "fQ", "--prime", "5", "--root", "5", "--terms", "0"],
    ["detect", "--series-file", "missing.series", "--prime", "3", "--root",
     "3", "--terms", "0"],
    ["eta", "1/11:12,1:-12", "--width", "11", "--terms", "0"],
    ["catalog", "--index", "5", "--terms", "0"],
])
def test_zero_terms_exits_2_before_scanning(tmp_path, capsys, args):
    from ubd import cli

    rc = cli.main(["--cache-dir", str(tmp_path), *args])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "--terms of at least 1" in err


def test_catalog_index_outside_the_list_exits_2(tmp_path, capsys):
    from ubd import cli

    rc = cli.main(["--cache-dir", str(tmp_path), "catalog", "--index", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "error: catalog index must be 2 or 5\n"


def test_report_with_a_large_prime_finishes(tmp_path):
    # the prime-shift search of field_has_unique_prime_above is bounded, so a
    # large valid prime on a number-field catalog does not hang
    proc = subprocess.run(
        [sys.executable, "-m", "ubd", "report", "--index", "2", "--terms", "20",
         "--prime", "100000000000000003"],
        capture_output=True, env=dict(os.environ, UBD_CACHE_DIR=str(tmp_path)),
        timeout=10)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"index-2 catalog at T=20" in proc.stdout


def test_cache_concurrent_writers_leave_one_whole_record(tmp_path):
    import threading

    from ubd import cli
    from ubd.qseries import LaurentSeries

    writers = 6  # more than the cores of a small machine
    series = LaurentSeries(11, -2, list(range(1, 400)), None)
    all_computed = threading.Barrier(writers)

    def compute():
        all_computed.wait(timeout=10)
        return series

    results = []
    threads = [threading.Thread(target=lambda: results.append(
        cli.cached_series("op", "same-key", compute, str(tmp_path))))
        for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [series] * writers
    names = os.listdir(tmp_path)
    assert len(names) == 1 and names[0].endswith(".series")
    assert deserialize_series((tmp_path / names[0]).read_text()) == series


def test_no_command_imports_sympy(tmp_path):
    # sympy is a test oracle only: no command may load it, on any path
    from ubd.exactnum import NumberField
    from ubd.qseries import LaurentSeries, serialize_series

    rational = tmp_path / "rational.series"
    rational.write_text(serialize_series(
        LaurentSeries(1, 0, [1, -2, -1, 2, 1, 2, -2, 0, -2, -2])))
    cubic = NumberField([-158, -40, -2, 1])
    u = cubic.gen()
    field = tmp_path / "field.series"
    field.write_text(serialize_series(
        LaurentSeries(1, 0, [cubic.one(), u / 2, u * u / 4, 3 * u], cubic)))
    commands = [
        ["eta", "1:2,13:-2", "--width", "1", "--terms", "10"],
        ["census", "--xmax", "100", "--b", "2,1,2"],
        ["detect", "--series-file", str(rational), "--prime", "3",
         "--root", "3", "--terms", "9"],
        ["detect", "--series-file", str(field), "--prime", "2",
         "--root", "2", "--terms", "3"],
        ["report", "--index", "2", "--terms", "20"],
        ["report", "--index", "5", "--terms", "20"],
    ]
    script = "\n".join([
        "import contextlib, io, sys",
        "import ubd.cli",
        f"for argv in {commands!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        rc = ubd.cli.main(argv)",
        "    assert rc in (0, 3), (argv, rc)",
        "    assert 'sympy' not in sys.modules, argv",
    ])
    env = dict(os.environ, UBD_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, dis, ast and tokenize, which every command
    # would pay for at start-up; neither is loaded at interpreter start
    script = ("import sys\n"
              "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
              "import ubd.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["[]"]


def test_cli_command_leaves_parser_and_hash_modules_unloaded():
    # argparse's first gettext lookup imports locale, and hashlib loads
    # OpenSSL: a short command would pay for both before it starts
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from ubd import cli\n"
              "assert cli.main(['census', '--xmax', '100']) == 0\n"
              "heavy = {'argparse', 'gettext', 'locale', 'hashlib'}\n"
              "print(sorted(heavy & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "[]"


def test_help_names_every_command_and_option(capsys):
    from ubd import cli

    assert cli.main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: ubd") and err == ""
    for name in [o.name for o in cli.UBD.options if o.name.startswith("--")
                 ] + list(cli.COMMANDS):
        assert name in out, name
    for command, row in cli.COMMANDS.items():
        assert cli.main([command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: ubd {command} ") and err == ""
        for option in row.options:
            assert option.name in out, (command, option.name)


@pytest.mark.parametrize("argv", [
    ["census"],                                     # a required option
    ["census", "--xmax", "10", "--ymax", "3"],      # an unknown option
    ["census", "--xmax", "ten"],                    # a bad int
    ["--format", "json", "census", "--xmax", "10"],  # a bad choice
    ["census", "--xmax"],                           # an option without value
    ["censor", "--xmax", "10"],                     # an unknown command
    [],                                             # no command
    ["--format", "records"],                        # still no command
    ["census", "--xmax", "10", "--format", "records"],  # global after command
    ["eta", "--width", "1"],                        # a missing positional
    ["census", "--xmax", "10", "extra"],            # a stray token
    ["--xmax", "10", "census"],                     # command option first
    ["census", "--xm", "10"],                       # no prefix abbreviations
])
def test_malformed_argv_exits_2_with_usage_and_error(capsys, argv):
    from ubd import cli

    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2, err
    assert lines[0].startswith("usage: ubd") and lines[1].startswith("error: ")


def test_option_equals_value_reads_like_two_tokens(capsys):
    from ubd import cli

    for argv in (["eta", "1:24", "--width", "1", "--terms", "5"],
                 ["eta", "1:24", "--width=1", "--terms=5"],
                 ["eta", "--terms=5", "1:24", "--width", "1"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "series 1\nwidth 1\nlead 1\ntruncation 5\nfield rational\n"
            "1/1\n-24/1\n252/1\n-1472/1\n4830/1\n-6048/1\n")


# small values, so that every fuzzed command is quick; the first six are ints
ARGV_VALUES = ["0", "1", "-1", "2", "5", "12", "x", "", "1.5", "2,1,2", "1:2",
               "fP"]
# census values past its ceilings, which must exit 2 at once: factoring the
# prime 10^18 + 3 by trial division would take minutes
CENSUS_INTS = ["10000000000001", "1" + "0" * 30]
CENSUS_VALUES = CENSUS_INTS + ["1,0,1000000000000000003",
                               "1000000000000000003,0,1"]


@st.composite
def fuzzed_argv(draw):
    """argv built from the command table: global options, a command (or a
    stray token in its place), then the command's positionals and options in
    any order, each as two tokens or as --opt=value, some repeated or left
    out, and a few stray tokens: option names with no value, values, -h."""
    from ubd import cli

    def spelled(option, census=False):
        # an int or choice option gets a well-formed value half the time, so
        # that the draws reach the checks and the commands, not only the parser
        values = ARGV_VALUES + (CENSUS_VALUES if census else [])
        well_formed = (option.kind if isinstance(option.kind, tuple)
                       else ARGV_VALUES[:6] + (CENSUS_INTS if census else [])
                       if option.kind is int else values)
        value = draw(st.sampled_from(values) | st.sampled_from(well_formed))
        if not option.name.startswith("--"):
            return [value]
        return draw(st.sampled_from([[option.name, value],
                                     [f"{option.name}={value}"]]))

    global_options = [o for o in cli.UBD.options if o.name.startswith("--")]
    argv = [t for o in draw(st.lists(st.sampled_from(global_options),
                                     max_size=2)) for t in spelled(o)]
    command = draw(st.sampled_from(list(cli.COMMANDS) + ["x", ""]))
    options = cli.COMMANDS[command].options if command in cli.COMMANDS else ()
    census = command == "census"
    groups = [spelled(o, census) for o in options
              if o.required or draw(st.booleans())]
    if options:
        groups += [spelled(o, census) for o in
                   draw(st.lists(st.sampled_from(options), max_size=2))]
    strays = [o.name for o in options + tuple(global_options)] + ARGV_VALUES
    groups += [[t] for t in draw(st.lists(st.sampled_from(strays + ["-h"]),
                                          max_size=1))]
    return argv + [command] + [t for g in draw(st.permutations(groups))
                               for t in g]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_argv())
def test_fuzzed_argv_returns_a_documented_exit_code(tmp_path, monkeypatch,
                                                    capsys, argv):
    from ubd import cli

    monkeypatch.setenv("UBD_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)   # a relative --cache-dir lands here
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        assert err.splitlines()[-1].startswith("error: "), (argv, err)


@st.composite
def census_past_a_ceiling(draw):
    """Well-formed census argv with --xmax, or the s or v of --b, up to
    10^40 and past its ceiling; the other values anywhere up to 10^40."""
    from ubd import cli

    past = draw(st.sampled_from(("xmax", "s", "v")))

    def value(name, least, ceiling):
        return draw(st.integers(ceiling + 1, 10 ** 40) if name == past
                    else st.integers(least, 10 ** 40))

    argv = ["census", "--xmax", str(value("xmax", 2, cli.XMAX_CEILING))]
    if past != "xmax" or draw(st.booleans()):
        s = value("s", 1, cli.SV_CEILING)
        v = value("v", 1, cli.SV_CEILING)
        argv += ["--b", f"{s},{draw(st.integers(0, v - 1))},{v}"]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(census_past_a_ceiling())
def test_census_past_a_ceiling_exits_2(capsys, argv):
    from ubd import cli

    assert cli.main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: "), (argv, err)
