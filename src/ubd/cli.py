"""Command-line front end: eta expansions, x/y expansion, catalogs,
unbounded-denominator detection, and the sublattice census, read from argv
by one table (UBD, COMMANDS) that also gives the --help text.  expand-xy
keeps x and y as text records named by their run parameters: reading them
back is 7 times faster than the solve and check.  Catalog entries are
expanded in process: parsing a stored expansion costs more than redoing it.

Exit codes: 0 success, 2 malformed arguments (usage: and error: lines),
an argument past a ceiling, any ValueError a command raises (main is the
one boundary that prints it as an error: line) or out of memory,
3 detection ran but was Inconclusive only, 4 internal inconsistency (a
defining relation failed).
"""

import os
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .qseries import (
    EtaQuotient,
    eta_quotient_expand,
    deserialize_series,
    serialize_series,
)
from .x011 import (CATALOG_INDICES, KAPPA, build_catalog, catalog_export,
                   expand_xy)
from .ubdetect import analyze_catalog, detect, detect_entry
from .census import LatticeTriple, s_count, ubd_lower_bound_experiment


# census ceilings: at X = 10^13 the slowest --b found, s = v = 2*3*...*31 and
# u = 0 (3^11 kernel calls, one per divisor of s*v), takes 35-39 s on a
# 2-vCPU machine, and each tenfold X costs about 3.3 times more; factoring s
# or v <= 10^12 takes at most 10^6 trial divisions
XMAX_CEILING = 10 ** 13
SV_CEILING = 10 ** 12
# --terms: 3000 is the most the perfbench workloads ask for; at 3000 the
# slowest command found, report --index 5 at a prime other than 5 (six full
# roots, growing about as T^3), takes 9.3 min on a 2-vCPU machine
TERMS_CEILING = 3000


def _validate(args):
    """The checks the table cannot make; --b becomes a tuple of three ints."""
    least = 10 if args.command == "expand-xy" else 1
    terms = getattr(args, "terms", least)
    if not least <= terms <= TERMS_CEILING:
        bound = (f"at least {least}" if terms < least
                 else f"at most {TERMS_CEILING}")
        raise ValueError(f"{args.command} needs --terms of {bound}")
    if args.command == "eta" and args.width < 1:
        raise ValueError("--width must be a positive integer")
    if getattr(args, "index", CATALOG_INDICES[0]) not in CATALOG_INDICES:
        raise ValueError(
            f"catalog index must be {' or '.join(map(str, CATALOG_INDICES))}")
    if args.command == "detect" and bool(args.entry) == bool(args.series_file):
        raise ValueError("provide exactly one of --entry or --series-file")
    if args.command == "census":
        if args.b is not None:
            try:
                args.b = tuple(int(t) for t in args.b.split(","))
                if len(args.b) != 3:
                    raise ValueError("need three components")
            except ValueError as exc:
                raise ValueError(f"bad --b triple: {exc}")
        if args.xmax < 2:
            raise ValueError("--xmax must be at least 2")
        if args.xmax > XMAX_CEILING:
            raise ValueError("--xmax must be at most 10^13")
        if args.b is not None and max(args.b[0], args.b[2]) > SV_CEILING:
            raise ValueError("--b needs s and v of at most 10^12")
        if args.b is not None and args.xmax < 4:
            raise ValueError("--xmax must be at least 4 with --b")


# ----------------------------------------------------------------------
# Series cache: one text record per (operation, parameters, code version).
# ----------------------------------------------------------------------

def cache_dir(override=None):
    d = override or os.environ.get("UBD_CACHE_DIR") \
        or os.path.join(os.path.expanduser("~"), ".cache", "ubd")
    os.makedirs(d, exist_ok=True)
    return d


def _cache_key(op, params):
    return f"{op}-{params}-{__version__}"


def cached_series(op, params, compute, directory):
    """Load a series from the cache or compute and store it; a corrupt cache
    entry is recomputed with a warning."""
    path = os.path.join(directory, _cache_key(op, params) + ".series")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                return deserialize_series(fh.read())
        except ValueError:
            print(f"warning: corrupt cache entry {os.path.basename(path)}; "
                  "recomputing", file=sys.stderr)
    series = compute()
    # each writer has a temporary file of its own, and the rename is atomic:
    # a reader sees a whole record or none, and the last writer wins
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(serialize_series(series))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return series


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------

def _parse_eta_spec(text):
    terms = []
    for part in text.split(","):
        try:
            d, r = part.split(":")
            terms.append((Fraction(d), int(r)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad eta term {part!r}: {exc}")
    return EtaQuotient(terms)


def _fmt(v):
    if isinstance(v, Fraction) or isinstance(v, int):
        v = Fraction(v)
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def cmd_eta(args, out):
    series = eta_quotient_expand(_parse_eta_spec(args.quotient), args.width,
                                 args.terms)
    out.write(serialize_series(series))
    return 0


def cmd_expand_xy(args, out):
    solved = []  # (x, y) once either cache entry has missed

    def solve(i):
        if not solved:
            solved.extend(expand_xy(args.terms))
        return solved[i]

    try:
        d = cache_dir(args.cache_dir)
        x = cached_series("expand-xy-x", f"T={args.terms}", lambda: solve(0), d)
        y = cached_series("expand-xy-y", f"T={args.terms}", lambda: solve(1), d)
    except OSError as exc:
        raise ValueError(f"cannot use cache directory: {exc}")
    out.write(f"# kappa {_fmt(KAPPA)}\n")
    out.write(serialize_series(x))
    out.write(serialize_series(y))
    return 0


def cmd_catalog(args, out):
    entries = build_catalog(args.index)
    out.write(catalog_export(entries, args.terms))
    return 0


def _entry_by_label(label):
    labels = []
    for index in CATALOG_INDICES:
        for e in build_catalog(index):
            if e.label == label:
                return e
            labels.append(e.label)
    raise ValueError(
        f"unknown entry {label!r}; available: {', '.join(labels)}")


def _verdict_line(v, fmt):
    if fmt == "records":
        wv = _fmt(v.witness_valuation) if v.witness_valuation is not None else "-"
        wi = v.witness_index if v.witness_index is not None else "-"
        return (f"entry={v.label or '-'} status={v.status} witness_index={wi} "
                f"witness_valuation={wv} threshold={_fmt(v.threshold)} "
                f"truncation={v.truncation_used} mode={v.valuation_mode}")
    head = f"{v.label or '-':10s} {v.status:20s}"
    if v.witness_index is not None and v.witness_valuation is not None:
        head += f" witness m={v.witness_index}, -ord={_fmt(v.witness_valuation)}"
    elif v.witness_index is not None:
        head += f" partial witness m={v.witness_index}"
    return head + (f"  [tau={_fmt(v.threshold)}, T={v.truncation_used}, "
                   f"mode={v.valuation_mode}]")


def _warn_if_short(v, requested):
    """A scan that covers fewer coefficients than asked for says so."""
    if v.truncation_used < requested:
        print(f"warning: scanned {v.truncation_used} of the {requested} "
              "requested coefficients (series too short)", file=sys.stderr)


def cmd_detect(args, out):
    if args.entry:
        v = detect_entry(_entry_by_label(args.entry), args.root, args.prime,
                         args.terms)
    else:
        try:
            with open(args.series_file) as fh:
                series = deserialize_series(fh.read())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read series file: {exc}")
        v = detect(series, args.root, args.prime, args.terms,
                   label=os.path.basename(args.series_file))
    _warn_if_short(v, args.terms)
    out.write(_verdict_line(v, args.format) + "\n")
    return 3 if v.status == "Inconclusive" else 0


def cmd_census(args, out):
    if args.b:
        try:
            b = LatticeTriple(*args.b)
        except ValueError as exc:
            raise ValueError(f"bad --b triple: {exc}")
        exp = ubd_lower_bound_experiment(b, args.xmax)
        out.write(f"{exp.X}\t{exp.full_count}\t{_fmt(exp.ratio)}\t"
                  f"b={b.l},{b.n},{b.m}\trestricted={exp.restricted_count}\t"
                  f"phi_bound={exp.phi_bound}\n")
    else:
        res = s_count(args.xmax)
        out.write(f"{res.X}\t{res.count}\t{_fmt(res.ratio)}\n")
    return 0


def cmd_report(args, out):
    rep = analyze_catalog(build_catalog(args.index), T=args.terms,
                          prime_p=args.prime)
    for v in rep.verdicts:
        _warn_if_short(v, args.terms)
    if args.format == "records":
        for v in rep.verdicts:
            out.write(_verdict_line(v, "records") + "\n")
        out.write(f"summary index={rep.index} certified={rep.certified} "
                  f"bounded={rep.bounded} inconclusive={rep.inconclusive} "
                  f"hypothesis_confirmed={rep.hypothesis_confirmed}\n")
    else:
        out.write(f"index-{rep.index} catalog at T={rep.truncation}\n")
        for v in rep.verdicts:
            out.write(_verdict_line(v, "table") + "\n")
        out.write(f"certified: {rep.certified}  bounded: {rep.bounded}  "
                  f"inconclusive: {rep.inconclusive}\n")
        out.write("theorem hypothesis confirmed: "
                  f"{'yes' if rep.hypothesis_confirmed else 'no'}\n")
    return 3 if rep.inconclusive and not rep.certified else 0


# The command line in one table.  An option's kind is a converter or a tuple
# of choices; a name without dashes is a positional argument.  UBD is the row
# of ubd itself: the global options, which come before the command, and the
# command.
Option = namedtuple("Option", "name kind default required help",
                    defaults=(int, None, False, ""))
Command = namedtuple("Command", "func help options")

COMMANDS = {
    "eta": Command(cmd_eta, "expand an eta quotient", (
        Option("quotient", str, required=True,
               help="terms 'delta:exp,...', delta rational like 1/11"),
        Option("--width", required=True), Option("--terms", default=50))),
    "expand-xy": Command(cmd_expand_xy, "expand x(w), y(w) for Gamma^0(11)",
                         (Option("--terms", default=50),)),
    "catalog": Command(cmd_catalog, "build a character-group catalog", (
        Option("--index", required=True), Option("--terms", default=20))),
    "detect": Command(cmd_detect, "unbounded-denominator detection", (
        Option("--entry", str), Option("--series-file", str),
        Option("--prime", required=True), Option("--root", required=True),
        Option("--terms", default=300))),
    "census": Command(cmd_census, "count type II(A) sublattice triples", (
        Option("--xmax", required=True),
        Option("--b", str, help="comparison triple 's,u,v'"))),
    "report": Command(cmd_report, "detection report over a catalog", (
        Option("--index", required=True), Option("--terms", default=300),
        Option("--prime"))),
}
UBD = Command(None, "Exact expansions and unbounded-denominator certificates "
              "for character groups of Gamma^0(11); ubd COMMAND --help lists "
              "the options of one command.", (
                  Option("--cache-dir", str, help="cache directory (default: "
                         "$UBD_CACHE_DIR or ~/.cache/ubd)"),
                  Option("--format", ("table", "records"), "table"),
                  Option("command", tuple(COMMANDS), required=True)))


class UsageError(Exception):
    """Malformed argv: args are the command (or None) and the message."""


def _spell(o):
    """An option as usage shows it, such as --terms INT; a positional by its
    name, or by its choices if it has them."""
    choices = "{" + ",".join(o.kind) + "}" if isinstance(o.kind, tuple) else ""
    if not o.name.startswith("-"):
        return choices or o.name
    return f"{o.name} {choices or o.kind.__name__.upper()}"


def _usage(command, full=False):
    """The usage line of ubd or of one command; with full, the -h help."""
    row = COMMANDS.get(command, UBD)
    lines = [" ".join(["usage: ubd", command or "[-h]", *(
        _spell(o) if o.required else f"[{_spell(o)}]" for o in row.options),
        "[-h]" if command else "..."])]
    if full:
        rows = [(_spell(o), o.help) for o in row.options] + [
            (name, r.help) for name, r in COMMANDS.items() if row is UBD]
        lines += ["", row.help, ""] + [f"  {a:28s}{b}".rstrip() for a, b in rows]
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """argv read against the table as a namespace, or the help text when
    -h/--help comes first; raises UsageError on anything malformed."""
    command, options, values, tokens = None, UBD.options, {}, iter(argv)
    pending = [o for o in options if not o.name.startswith("-")]
    for token in tokens:
        if token in ("-h", "--help"):
            return _usage(command, full=True)
        if token.startswith("--"):
            name, eq, value = token.partition("=")
            option = next((o for o in options if o.name == name), None)
            if option is None:
                raise UsageError(command, f"unknown option {name}")
            value = value if eq else next(tokens, None)
            if value is None:
                raise UsageError(command, f"{name} needs a value")
        elif pending:
            option, value = pending.pop(0), token
        else:
            raise UsageError(command, f"unexpected argument {token!r}")
        kind = option.kind
        try:  # tuple.index raises ValueError for a value outside the choices
            values[option.name] = (kind[kind.index(value)]
                                   if isinstance(kind, tuple) else kind(value))
        except ValueError:
            raise UsageError(command, f"invalid {_spell(option)}: {value!r}")
        if option.name == "command":
            command, options = value, COMMANDS[value].options
            pending = [o for o in options if not o.name.startswith("-")]
    missing = [_spell(o) for o in options if o.required and o.name not in values]
    if missing:
        raise UsageError(command, f"missing {', '.join(missing)}")
    return SimpleNamespace(func=COMMANDS[command].func, **{
        o.name.lstrip("-").replace("-", "_"): values.get(o.name, o.default)
        for o in UBD.options + options})


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{_usage(exc.args[0])}error: {exc.args[1]}", file=sys.stderr)
        return 2
    if isinstance(args, str):
        sys.stdout.write(args)
        return 0
    try:
        _validate(args)
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print("error: out of memory; ask for fewer --terms or a smaller --xmax",
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
