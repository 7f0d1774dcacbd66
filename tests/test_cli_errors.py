"""The one error boundary of ubd.cli.main: a ValueError from anywhere in a
command exits 2 with one `error:` line, and the stderr of every malformed
input below is pinned byte for byte."""

import pytest

from ubd import cli

SERIES_FILES = {
    "bad.series": b"garbage\n",
    "zero-den.series": b"series 1\nwidth 1\nlead 0\ntruncation 1\n"
                       b"field rational\n1/1\n1/0\n",
    "no-field.series": b"series 1\nwidth 1\nlead 0\ntruncation 0\n1/1\n",
    "latin1.series": "series 1\nwidth 1\n\xe9\n".encode("latin-1"),
    "exp.series": b"series 1\nwidth 1\nlead 0\ntruncation 3\n"
                  b"field rational\n1\n1e999999\n0/1\n0/1\n",
    "zero.series": b"series 1\nwidth 1\nlead 0\ntruncation 3\n"
                   b"field rational\n0\n0\n0/1\n0/1\n",
    "afile": b"",
}
CENSUS_USAGE = "usage: ubd census --xmax INT [--b STR] [-h]\n"
UBD_USAGE = ("usage: ubd [-h] [--cache-dir STR] [--format {table,records}] "
             "{eta,expand-xy,catalog,detect,census,report} ...\n")
ENTRIES = "fP1, fP2, fP3, fP, fQ, fQ+1P, fQ+2P, fQ+3P, fQ+4P"
DETECT = ["--prime", "3", "--root", "3"]

# (argv, stderr); every one exits 2 with nothing on stdout
MALFORMED = [
    (["eta", "0:1", "--width", "1", "--terms", "3"],
     "error: eta scales must be positive\n"),
    (["eta", "1:x", "--width", "1", "--terms", "3"],
     "error: bad eta term '1:x': invalid literal for int() with base 10: "
     "'x'\n"),
    (["eta", "1/0:1", "--width", "1", "--terms", "3"],
     "error: bad eta term '1/0:1': Fraction(1, 0)\n"),
    (["eta", "1", "--width", "1", "--terms", "3"],
     "error: bad eta term '1': not enough values to unpack (expected 2, got "
     "1)\n"),
    (["eta", "1:1", "--width", "1", "--terms", "5"],
     "error: width 1 incompatible: leading exponent 1/24 is not an integer "
     "(minimal valid width is 24)\n"),
    (["eta", "1:1", "--width", "0", "--terms", "5"],
     "error: --width must be a positive integer\n"),
    (["eta", "1/11:12,1:-12", "--width", "11", "--terms", "0"],
     "error: eta needs --terms of at least 1\n"),
    (["expand-xy", "--terms", "3"],
     "error: expand-xy needs --terms of at least 10\n"),
    (["catalog", "--index", "3"], "error: catalog index must be 2 or 5\n"),
    (["catalog", "--index", "5", "--terms", "0"],
     "error: catalog needs --terms of at least 1\n"),
    (["report", "--index", "2", "--terms", "15", "--prime", "4"],
     "error: 4 is not prime\n"),
    (["report", "--index", "5", "--terms", "15", "--prime", "0"],
     "error: 0 is not prime\n"),
    (["report", "--index", "3", "--terms", "15"],
     "error: catalog index must be 2 or 5\n"),
    (["report", "--index", "5", "--terms", "0"],
     "error: report needs --terms of at least 1\n"),
    (["--format", "records", "report", "--index", "2", "--terms", "0"],
     "error: report needs --terms of at least 1\n"),
    (["census", "--xmax", "1"], "error: --xmax must be at least 2\n"),
    (["census", "--xmax", "3", "--b", "1,0,1"],
     "error: --xmax must be at least 4 with --b\n"),
    (["census", "--xmax", "30", "--b", "2,9,2"],
     "error: bad --b triple: not a canonical triple: (2, 9, 2)\n"),
    (["census", "--xmax", "30", "--b", "2,1"],
     "error: bad --b triple: need three components\n"),
    (["census", "--xmax", "30", "--b", "2,x,2"],
     "error: bad --b triple: invalid literal for int() with base 10: 'x'\n"),
    (["census", "--xmax", "10000000000001"],
     "error: --xmax must be at most 10^13\n"),
    (["census", "--xmax", "100", "--b", "1,0,1000000000001"],
     "error: --b needs s and v of at most 10^12\n"),
    (["detect", "--prime", "5", "--root", "5"],
     "error: provide exactly one of --entry or --series-file\n"),
    (["detect", "--entry", "fP", "--series-file", "x", "--prime", "5",
      "--root", "5"],
     "error: provide exactly one of --entry or --series-file\n"),
    (["detect", "--entry", "nope", "--prime", "5", "--root", "5"],
     f"error: unknown entry 'nope'; available: {ENTRIES}\n"),
    (["detect", "--entry", "fP", "--prime", str(2 ** 89 - 1), "--root", "5",
      "--terms", "10"],
     "error: 618970019642690137449562111 is too large for a proven "
     "primality test (the bound is 3317044064679887385961981)\n"),
    (["detect", "--entry", "fP", "--prime", "4", "--root", "5", "--terms",
      "10"], "error: 4 is not prime\n"),
    (["detect", "--entry", "fP", "--prime", "5", "--root", "0", "--terms",
      "10"], "error: root degree must be at least 2\n"),
    (["detect", "--entry", "fQ", "--prime", "5", "--root", "5", "--terms",
      "0"], "error: detect needs --terms of at least 1\n"),
    (["detect", "--series-file", "missing.series", *DETECT],
     "error: cannot read series file: [Errno 2] No such file or directory: "
     "'missing.series'\n"),
    (["detect", "--series-file", "bad.series", *DETECT],
     "error: cannot read series file: bad series record header\n"),
    (["detect", "--series-file", "zero-den.series", *DETECT],
     "error: cannot read series file: bad series record: ZeroDivisionError: "
     "Fraction(1, 0)\n"),
    (["detect", "--series-file", "no-field.series", *DETECT],
     "error: cannot read series file: bad series record: KeyError: "
     "'field'\n"),
    (["detect", "--series-file", "latin1.series", *DETECT],
     "error: cannot read series file: 'utf-8' codec can't decode byte 0xe9 "
     "in position 17: invalid continuation byte\n"),
    (["detect", "--series-file", "exp.series", "--prime", "5", "--root", "2",
      "--terms", "3"],
     "error: cannot read series file: bad coefficient '1e999999': expected "
     "an integer or p/q\n"),
    (["detect", "--series-file", "zero.series", "--prime", "5", "--root",
      "2", "--terms", "3"],
     "error: cannot analyze a series that is 0 to precision\n"),
    (["census"], CENSUS_USAGE + "error: missing --xmax INT\n"),
    (["census", "--xmax", "10", "--ymax", "3"],
     CENSUS_USAGE + "error: unknown option --ymax\n"),
    (["census", "--xmax", "ten"],
     CENSUS_USAGE + "error: invalid --xmax INT: 'ten'\n"),
    (["--format", "json", "census", "--xmax", "10"],
     UBD_USAGE + "error: invalid --format {table,records}: 'json'\n"),
    (["census", "--xmax"], CENSUS_USAGE + "error: --xmax needs a value\n"),
    (["censor", "--xmax", "10"],
     UBD_USAGE + "error: invalid {eta,expand-xy,catalog,detect,census,"
     "report}: 'censor'\n"),
    (["eta", "--width", "1"],
     "usage: ubd eta quotient --width INT [--terms INT] [-h]\n"
     "error: missing quotient\n"),
    (["census", "--xmax", "10", "extra"],
     CENSUS_USAGE + "error: unexpected argument 'extra'\n"),
    (["--cache-dir", "afile", "expand-xy", "--terms", "10"],
     "error: cannot use cache directory: [Errno 17] File exists: 'afile'\n"),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A working directory holding the series files, with its own cache."""
    for name, data in SERIES_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("UBD_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.mark.parametrize("argv, err", MALFORMED)
def test_malformed_input_exits_2_with_its_pinned_stderr(workdir, capsys,
                                                        argv, err):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)


# each command's library call, and a well-formed argv that reaches it
REACHED = {
    "eta": ("eta_quotient_expand", ["eta", "1:24", "--width", "1"]),
    "expand-xy": ("expand_xy", ["expand-xy", "--terms", "10"]),
    "catalog": ("catalog_export", ["catalog", "--index", "2"]),
    "detect": ("detect_entry", ["detect", "--entry", "fP", "--prime", "5",
                                "--root", "5", "--terms", "5"]),
    "census": ("s_count", ["census", "--xmax", "10"]),
    "report": ("analyze_catalog", ["report", "--index", "2", "--terms", "5"]),
}


@pytest.mark.parametrize("command", sorted(REACHED))
def test_a_value_error_inside_a_command_exits_2(workdir, monkeypatch, capsys,
                                                command):
    name, argv = REACHED[command]

    def refuse(*args, **kwargs):
        raise ValueError(f"{name} refused")

    monkeypatch.setattr(cli, name, refuse)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {name} refused\n")


TERMS_ARGV = {
    "eta": ["eta", "1:24", "--width", "1"],
    "expand-xy": ["expand-xy"],
    "catalog": ["catalog", "--index", "5"],
    "detect": ["detect", "--entry", "fQ", "--prime", "3", "--root", "5"],
    "report": ["report", "--index", "5", "--prime", "3"],
}


def test_every_command_with_terms_is_under_the_ceiling():
    assert sorted(TERMS_ARGV) == sorted(
        name for name, command in cli.COMMANDS.items()
        if any(o.name == "--terms" for o in command.options))


@pytest.mark.parametrize("command", sorted(TERMS_ARGV))
def test_terms_past_the_ceiling_exits_2_at_once(workdir, monkeypatch, capsys,
                                                command):
    def never(*args, **kwargs):
        raise AssertionError("the command ran")

    for name, _ in REACHED.values():
        monkeypatch.setattr(cli, name, never)
    terms = str(cli.TERMS_CEILING + 1)
    assert cli.main([*TERMS_ARGV[command], "--terms", terms]) == 2
    assert capsys.readouterr() == (
        "", f"error: {command} needs --terms of at most {cli.TERMS_CEILING}\n")
