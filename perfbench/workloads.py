"""The benchmark's three workloads: their operations and the checks on the outputs.

Each operation is one `ubd` command line. A workload lists the operations of
one pass, resets its state before each pass, and checks every output against
the independent computations in oracles.py. A check returns a list of
problems; an empty list means the output is right.
"""

import os
import shutil
from fractions import Fraction

import gen
import oracles
from records import parse_catalog, parse_fields, parse_records

CERTIFY_TERMS = 300
XY_TERMS = 600
ETA_TERMS = 3000

# The eta commands of the series workload: (spec, width, oracle terms)
ETA_OPS = {
    "eta_G5": ("1/11:12,1:-12", 11, [(Fraction(1, 11), 12), (Fraction(1), -12)]),
    "eta_zeta": ("1:2,13:-2", 1, [(Fraction(1), 2), (Fraction(13), -2)]),
}


class Op:
    def __init__(self, name, argv):
        self.name = name
        self.argv = argv


class Workload:
    """A fixed list of operations over a cache directory of its own."""

    name = None

    def __init__(self, seed, work):
        self.work = work
        self.cache = os.path.join(work, "cache")
        self.ops = []

    def prepare(self, run_cli):
        """Untimed set-up of inputs and expected values; run_cli(argv) runs a
        ubd command and returns (exit code, stdout)."""

    def start_pass(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)

    def check(self, op, stdout):
        raise NotImplementedError


# ----------------------------------------------------------------------
# certify: the paper's headline computation.
# ----------------------------------------------------------------------

def _verdicts(stdout):
    entries, summary = {}, None
    for line in stdout.splitlines():
        fields = parse_fields(line)
        if line.startswith("entry="):
            entries[fields["entry"]] = fields
        elif line.startswith("summary "):
            summary = fields
    return entries, summary


def _neg_ord_or_none(value, p, field):
    zero = (value == 0) if field is None else not any(value)
    return None if zero else oracles.neg_ord(value, p, field)


class Certify(Workload):
    """`report` over the index-5 and the index-2 catalog at T = 300, each pass
    on an empty cache. The seed does not change these two commands."""

    name = "certify"
    CERTIFIED = {5: ["fP", "fQ+1P", "fQ+2P", "fQ+3P", "fQ+4P"],
                 2: ["fP1", "fP2", "fP3"]}

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.ops = [Op(f"report{i}", ["--format", "records", "report",
                                      "--index", str(i),
                                      "--terms", str(CERTIFY_TERMS)])
                    for i in (5, 2)]
        self.catalog = {}

    def prepare(self, run_cli):
        # the first expansion coefficients of every entry, for the witness oracle
        for index in (5, 2):
            rc, out = run_cli(["catalog", "--index", str(index), "--terms", "2"])
            if rc != 0:
                raise RuntimeError(f"ubd catalog --index {index} exited {rc}")
            self.catalog[index] = parse_catalog(out)

    def check(self, op, stdout):
        index = int(op.argv[op.argv.index("--index") + 1])
        entries, summary = _verdicts(stdout)
        problems = []
        if summary is None or summary.get("hypothesis_confirmed") != "True":
            problems.append(f"index {index}: hypothesis not confirmed: {summary}")
        expected = set(self.CERTIFIED[index]) | ({"fQ"} if index == 5 else set())
        if set(entries) != expected:
            return problems + [f"index {index}: entries {sorted(entries)}"]
        if index == 5 and entries["fQ"]["status"] == "UnboundedCertified":
            problems.append("fQ, the congruence control, was certified")
        for label, v in entries.items():
            if int(v["truncation"]) != CERTIFY_TERMS:
                problems.append(f"{label}: scanned to T={v['truncation']}")
            if label in self.CERTIFIED[index]:
                problems += self._check_witness(index, label, v)
        return problems

    def _check_witness(self, index, label, v):
        """The certificate against the binomial-series root of the entry's
        expansion and a resultant norm, at p = n = the root degree."""
        if v["status"] != "UnboundedCertified":
            return [f"{label}: {v['status']}, expected UnboundedCertified"]
        m = int(v["witness_index"])
        if m > 2:
            return [f"{label}: witness at m={m}, expected m <= 2"]
        rec = self.catalog[index][label]
        b = oracles.root_witnesses(rec.coeffs[:3], index, rec.field)
        tau = Fraction(v["threshold"])
        got = Fraction(v["witness_valuation"])
        want = _neg_ord_or_none(b[m - 1], index, rec.field)
        problems = []
        if want != got:
            problems.append(f"{label}: -ord(b_{m}) = {got}, oracle says {want}")
        if not got > tau:
            problems.append(f"{label}: witness {got} does not exceed tau {tau}")
        if m == 2:
            first = _neg_ord_or_none(b[0], index, rec.field)
            if first is not None and first > tau:
                problems.append(f"{label}: b_1 already witnesses, yet m=2 reported")
        return problems


# ----------------------------------------------------------------------
# series: the series kernels, the x/y solve and the cache.
# ----------------------------------------------------------------------

class Series(Workload):
    """expand-xy on an empty then a warm cache, two long eta quotients, and
    detect on generated series files."""

    name = "series"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.inputs = os.path.join(work, "inputs")
        self.detect = gen.detect_inputs(seed)
        xy = ["expand-xy", "--terms", str(XY_TERMS)]
        self.ops = [Op("xy_cold", xy), Op("xy_warm", xy)]
        for name, (spec, width, _) in ETA_OPS.items():
            self.ops.append(Op(name, ["eta", spec, "--width", str(width),
                                      "--terms", str(ETA_TERMS)]))
        for name, (_, p, n, _) in self.detect.items():
            # relative to the work directory, where the commands run
            path = os.path.join("inputs", f"{name}.series")
            self.ops.append(Op(f"detect_{name}", [
                "--format", "records", "detect", "--series-file", path,
                "--prime", str(p), "--root", str(n),
                "--terms", str(gen.DETECT_TERMS)]))
        self.eta_expected = {}
        self.xy_cold_stdout = None

    def prepare(self, run_cli):
        os.makedirs(self.inputs, exist_ok=True)
        for name, (text, _, _, _) in self.detect.items():
            with open(os.path.join(self.inputs, f"{name}.series"), "w") as fh:
                fh.write(text)
        for name, (_, width, terms) in ETA_OPS.items():
            self.eta_expected[name] = oracles.eta_quotient(terms, width, ETA_TERMS)

    def check(self, op, stdout):
        if op.name == "xy_cold":
            self.xy_cold_stdout = stdout
            return self._check_xy(stdout)
        if op.name == "xy_warm":
            if stdout != self.xy_cold_stdout:
                return ["warm expand-xy output differs from the cold one"]
            return []
        if op.name in ETA_OPS:
            return self._check_eta(op.name, stdout)
        return self._check_detect(op.name[len("detect_"):], stdout)

    def _check_xy(self, stdout):
        recs = parse_records(stdout.splitlines())
        if len(recs) != 2:
            return [f"expand-xy printed {len(recs)} series, expected 2"]
        x, y = recs
        if (x.lead, y.lead) != (-2, -3) or x.truncation != XY_TERMS \
                or y.truncation != XY_TERMS:
            return [f"expand-xy leads {x.lead}, {y.lead}, truncations "
                    f"{x.truncation}, {y.truncation}"]
        try:
            xi, yi = x.integers(), y.integers()
        except ValueError as exc:
            return [f"expand-xy: {exc}"]
        if xi[0] != 1 or yi[0] != 1:
            return ["expand-xy: x or y does not lead with 1"]
        lo, residual = oracles.curve_residual(xi, x.lead, yi, y.lead)
        bad = [lo + k for k, c in enumerate(residual) if c]
        if bad:
            return [f"curve equation fails at orders {bad[:5]}"]
        return []

    def _check_eta(self, name, stdout):
        recs = parse_records(stdout.splitlines())
        lead, coeffs = self.eta_expected[name]
        if len(recs) != 1 or recs[0].lead != lead \
                or recs[0].truncation != ETA_TERMS:
            return [f"{name}: unexpected record header"]
        if recs[0].coeffs != [Fraction(c) for c in coeffs]:
            return [f"{name}: coefficients differ from the pentagonal/Miller oracle"]
        return []

    def _check_detect(self, name, stdout):
        text, p, n, expect = self.detect[name]
        entries, _ = _verdicts(stdout)
        if len(entries) != 1:
            return [f"detect {name}: {len(entries)} verdicts"]
        (v,) = entries.values()
        if v["status"] != expect:
            return [f"detect {name}: {v['status']}, expected {expect}"]
        if int(v["truncation"]) != gen.DETECT_TERMS:
            return [f"detect {name}: scanned to T={v['truncation']}"]
        if expect == "UnboundedCertified":
            coeffs = parse_records(text.splitlines())[0].coeffs
            want = oracles.neg_ord(oracles.root_witnesses(coeffs[:3], n)[0], p)
            if v["witness_index"] != "1" or Fraction(v["witness_valuation"]) != want:
                return [f"detect {name}: witness m={v['witness_index']} "
                        f"-ord={v['witness_valuation']}, oracle m=1 -ord={want}"]
        return []


# ----------------------------------------------------------------------
# census: integer counting, no series code.
# ----------------------------------------------------------------------

class Census(Workload):
    """census --b at X = 800, 1100 and 1400 with seeded triples b, and the
    plain count at X = 10^6."""

    name = "census"
    BIG_X = 10 ** 6

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.triples = gen.census_triples(seed)
        self.ops = [Op(f"census_{X}", ["census", "--xmax", str(X),
                                        "--b", ",".join(map(str, b))])
                    for X, b in self.triples]
        self.ops.append(Op("census_big", ["census", "--xmax", str(self.BIG_X)]))
        self.expected = {}

    def prepare(self, run_cli):
        for X, b in self.triples:
            self.expected[X] = (oracles.full_join_count(b, X),
                                oracles.restricted_count(b[0], X))
        self.expected[self.BIG_X] = oracles.sigma_sum(self.BIG_X)

    def check(self, op, stdout):
        cols = stdout.rstrip("\n").split("\t")
        X = int(op.argv[op.argv.index("--xmax") + 1])
        if int(cols[0]) != X:
            return [f"census printed X={cols[0]} for --xmax {X}"]
        count = int(cols[1])
        if Fraction(cols[2]) != Fraction(count, X * X):
            return [f"census X={X}: ratio {cols[2]} is not {count}/X^2"]
        if X == self.BIG_X:
            problems = []
            if count != self.expected[X]:
                problems.append(f"S({X}) = {count}, oracle {self.expected[X]}")
            if not Fraction(81, 100) < Fraction(cols[2]) < Fraction(835, 1000):
                problems.append(f"S(X)/X^2 = {cols[2]} outside (0.81, 0.835)")
            return problems
        fields = parse_fields(" ".join(cols[3:]))
        full, restricted = self.expected[X]
        b = dict(self.triples)[X]
        problems = []
        if fields.get("b") != ",".join(map(str, b)):
            problems.append(f"census X={X}: b={fields.get('b')}")
        if count != full:
            problems.append(f"census X={X}: full_count {count}, oracle {full}")
        if int(fields["restricted"]) != restricted:
            problems.append(f"census X={X}: restricted {fields['restricted']}, "
                            f"oracle {restricted}")
        if int(fields["restricted"]) < int(fields["phi_bound"]):
            problems.append(f"census X={X}: restricted below phi_bound")
        return problems


WORKLOADS = {w.name: w for w in (Certify, Series, Census)}
