"""Every function and method that src/ubd defines is reached by a command.

A fixed set of commands runs in process under sys.setprofile: `report` at
both indices, at p = index and at p != index; `catalog`; `detect` on an
entry, on a rational record and on two field records, the second with
a_0 != 1 and lead 2; a 3000-term `eta`;
`expand-xy` cold, then warm; both `census` forms; and one malformed input
per command.  Every module-level function and every method defined in
src/ubd must be called by one of them, except the names in ALLOWED, each
with its reason.  Code that only the tests or the demos call belongs in the
tests.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from ubd import cli

SRC = Path(cli.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, qualified name) -> why no command calls it
ALLOWED = {
    ("exactnum", "newton_inverse"):
        "the callee of the traced LaurentSeries.invert",
    ("qseries", "LaurentSeries._check_compat"):
        "the callee of the traced LaurentSeries.__mul__",
    ("exactnum", "NumberField.zero"): "the field's 0, beside its 1",
    ("exactnum", "NumberField.one"): "the field's 1, beside its 0",
    ("census", "LatticeTriple.index"): "the index m*l of the sublattice",
}
# method name -> why no command calls it, in any class
ALLOWED_METHODS = {
    "__repr__": "read in a debugger and in test failures",
    "__hash__": "defined beside __eq__, without which instances would not "
                "hash",
}


def _traced_names():
    """The names perfbench/tracing.py wraps: they must keep resolving, so
    they stay whether or not a command calls them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {(home, attr) for _, home, attr, _ in tracing.TRACED}
    names |= {(home, f"{cls}.{attr}")
              for _, home, cls, attr in tracing.TRACED_METHODS}
    names |= {(home, f"{cls}.{attr}")
              for _, home, cls, attrs in tracing.COUNTED_METHODS
              for attr in attrs}
    return names


def _defined():
    """(module, qualified name) of every module-level function and every
    method of a module-level class in src/ubd."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.add((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                out |= {(path.stem, f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)}
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _commands(tmp):
    """(argv, exit code) of the fixed command set."""
    field = tmp / "field.series"  # Q(i), where 5 splits
    field.write_text("series 1\nwidth 1\nlead 0\ntruncation 2\n"
                     "field 1,0,1\n1/1,0/1\n2/5,-1/5\n0/1,0/1\n")
    scaled = tmp / "scaled.series"  # Q(i) again, a_0 = 3 + i at w^2
    scaled.write_text("series 1\nwidth 1\nlead 2\ntruncation 3\n"
                      "field 1,0,1\n3/1,1/1\n2/5,-1/5\n1/7,0/1\n0/1,3/25\n")
    (tmp / "bad.series").write_text("series 1\nwidth 1\nwidth 2\n")
    cache = ["--cache-dir", tmp / "cache"]
    detect = ["--prime", "5", "--root", "2", "--terms", "20"]
    return [
        (["report", "--index", "5", "--terms", "20"], 0),
        (["--format", "records", "report", "--index", "5", "--terms", "20",
          "--prime", "3"], 0),
        (["--format", "records", "report", "--index", "2", "--terms", "20"],
         0),
        (["report", "--index", "2", "--terms", "20", "--prime", "3"], 0),
        (["catalog", "--index", "2", "--terms", "3"], 0),
        (["detect", "--entry", "fQ+1P", "--prime", "5", "--root", "5",
          "--terms", "20"], 0),
        (["detect", "--series-file", tmp / "g5.series", *detect], 0),
        (["detect", "--series-file", field, *detect], 3),
        (["detect", "--series-file", scaled, *detect], 0),
        ([*cache, "expand-xy", "--terms", "20"], 0),
        ([*cache, "expand-xy", "--terms", "20"], 0),
        (["census", "--xmax", "100"], 0),
        (["census", "--xmax", "100", "--b", "2,1,2"], 0),
        # one malformed input per command, and the usage and help paths
        (["eta", "1:1", "--width", "1"], 2),
        (["expand-xy", "--terms", "3"], 2),
        (["catalog", "--index", "3"], 2),
        (["detect", "--series-file", tmp / "bad.series", *detect], 2),
        (["census", "--xmax", "1"], 2),
        (["report", "--index", "5", "--prime", "4"], 2),
        (["census", "--ymax", "3"], 2),
        (["eta", "--help"], 0),
    ]


def test_every_function_in_src_is_reached_by_a_command(tmp_path):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # the rational record is what `eta ... > g5.series` writes
        rc, record = _run(["eta", "1/11:12,1:-12", "--width", "11",
                           "--terms", "3000"])
        (tmp_path / "g5.series").write_text(record)
        codes = [(argv, want, _run(argv)[0])
                 for argv, want in _commands(tmp_path)]
    finally:
        sys.setprofile(None)
    assert rc == 0
    assert [(argv, rc) for argv, want, rc in codes if rc != want] == []
    called = {(Path(c.co_filename).stem, c.co_qualname) for c in seen
              if Path(c.co_filename).resolve().parent == SRC}
    defined = _defined()
    unreached = defined - called - _traced_names() - set(ALLOWED)
    assert sorted(name for name in unreached
                  if name[1].rpartition(".")[2] not in ALLOWED_METHODS) == []
    assert set(ALLOWED) <= defined  # no stale reason
