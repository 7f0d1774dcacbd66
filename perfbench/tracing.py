"""Spans around ubd's layer entry points, recorded from outside the program.

install() runs inside the child process after `import ubd`. It replaces each
traced function at every name a caller looks it up by (a module global, or a
class attribute for methods) with a wrapper that records a span: name, start,
end and the index of the enclosing span. AlgebraicNumber products are only
counted, since there are millions of them. layer_metrics() turns the spans of
a run's operations into the per-layer metrics.
"""

import sys
import time
from statistics import median

# (span name, module, attribute, modules whose binding is replaced; None = all)
TRACED = [
    ("qseries.root", "qseries", "nth_root_normalized", None),
    ("ubdetect.detect", "ubdetect", "detect", None),
    ("exactnum.valuation", "exactnum", "val_p", ["ubdetect"]),
    ("exactnum.valuation", "exactnum", "ord_at_unique_prime", ["ubdetect"]),
    ("exactnum.valuation", "exactnum", "newton_polygon_valuations", ["ubdetect"]),
    ("exactnum.sympy", "exactnum", "factor_poly_q", None),
    ("exactnum.sympy", "exactnum", "poly_is_irreducible_q", None),
    ("exactnum.sympy", "exactnum", "poly_is_irreducible_modp", None),
    ("x011.build_catalog", "x011", "build_catalog", None),
    ("ellcurve.function_with_divisor", "ellcurve", "function_with_divisor", None),
    ("ellcurve.verify_divisor", "ellcurve", "verify_divisor", None),
    ("x011.expand_on_curve", "x011", "expand_on_curve", None),
    ("x011.expand_xy", "x011", "expand_xy", None),
    ("qseries.eta", "qseries", "eta_quotient_expand", None),
    ("qseries.serialize", "qseries", "serialize_series", None),
    ("qseries.deserialize", "qseries", "deserialize_series", None),
    ("cli.cached_series", "cli", "cached_series", None),
    ("census.experiment", "census", "ubd_lower_bound_experiment", None),
    ("census.s_count", "census", "s_count", None),
    ("census.enumerate", "census", "enumerate_triples", None),
]
TRACED_METHODS = [
    ("qseries.mul", "qseries", "LaurentSeries", "__mul__"),
    ("qseries.invert", "qseries", "LaurentSeries", "invert"),
]
COUNTED_METHODS = [
    ("exactnum.nf_mul", "exactnum", "AlgebraicNumber", ("__mul__", "__rmul__")),
]


# span name -> the count a span keeps from its function's result
EXTRAS = {
    # root coefficients b_1 .. b_(T-1) produced
    "qseries.root": lambda root: root.prec - 1,
    # coefficients scanned up to the verdict
    "ubdetect.detect": lambda v: v.witness_index if v.certified() else v.truncation_used,
    "census.enumerate": len,
}


class Recorder:
    """Spans as [name, start, end, parent index, extra] plus call counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if extra is not None:
                span[4] = extra(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_cached_series(self, fn):
        """cached_series with its compute callback as a child span, so a
        miss shows as a `cli.cache_compute` child and the rest is cache I/O."""
        wrap = self.wrap

        def cached(op, params, compute, directory):
            return fn(op, params, wrap("cli.cache_compute", compute), directory)

        return self.wrap("cli.cached_series", cached)

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def install():
    """Wrap the traced entry points of the imported ubd package."""
    rec = Recorder()
    modules = {name: sys.modules[f"ubd.{name}"]
               for name in ("exactnum", "qseries", "ellcurve", "x011",
                            "ubdetect", "census", "cli")}
    for span, home, attr, scope in TRACED:
        original = getattr(modules[home], attr)
        if span == "cli.cached_series":
            wrapper = rec.wrap_cached_series(original)
        else:
            wrapper = rec.wrap(span, original)
        for mod_name in scope or modules:
            mod = modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for span, home, cls, attr in TRACED_METHODS:
        klass = getattr(modules[home], cls)
        setattr(klass, attr, rec.wrap(span, getattr(klass, attr)))
    for name, home, cls, attrs in COUNTED_METHODS:
        klass = getattr(modules[home], cls)
        for attr in attrs:
            setattr(klass, attr, rec.count(name, getattr(klass, attr)))
    return rec


# ----------------------------------------------------------------------
# Per-layer metrics from the spans of traced operations.
# ----------------------------------------------------------------------

# metric name -> (unit, better)
LAYER_METRICS = {
    "qseries.root_s": ("s", "lower"),
    "qseries.root_coeffs": ("count", "lower"),
    "ubdetect.detect_s": ("s", "lower"),
    "ubdetect.self_s": ("s", "lower"),
    "ubdetect.scan_yield": ("ratio", "higher"),
    "exactnum.valuation_s": ("s", "lower"),
    "exactnum.valuation_calls": ("count", "lower"),
    "exactnum.nf_mul_calls": ("count", "lower"),
    "exactnum.sympy_s": ("s", "lower"),
    "x011.build_catalog_s": ("s", "lower"),
    "ellcurve.function_with_divisor_s": ("s", "lower"),
    "ellcurve.verify_divisor_s": ("s", "lower"),
    "x011.expand_on_curve_s": ("s", "lower"),
    "x011.expand_on_curve_calls": ("count", "lower"),
    "x011.expand_xy_s": ("s", "lower"),
    "x011.expand_xy_calls": ("count", "lower"),
    "qseries.mul_s": ("s", "lower"),
    "qseries.mul_calls": ("count", "lower"),
    "qseries.invert_s": ("s", "lower"),
    "qseries.eta_s": ("s", "lower"),
    "qseries.serialize_s": ("s", "lower"),
    "qseries.deserialize_s": ("s", "lower"),
    "cli.cache_hits": ("count", "higher"),
    "cli.cache_misses": ("count", "lower"),
    "cli.cache_io_s": ("s", "lower"),
    "cli.sympy_import_s": ("s", "lower"),
    "census.experiment_s": ("s", "lower"),
    "census.s_count_s": ("s", "lower"),
    "census.triples": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> time metric; a span inside another of the same name is not
# counted again
_TIMES = {
    "qseries.root": "qseries.root_s",
    "ubdetect.detect": "ubdetect.detect_s",
    "exactnum.valuation": "exactnum.valuation_s",
    "exactnum.sympy": "exactnum.sympy_s",
    "x011.build_catalog": "x011.build_catalog_s",
    "ellcurve.function_with_divisor": "ellcurve.function_with_divisor_s",
    "ellcurve.verify_divisor": "ellcurve.verify_divisor_s",
    "x011.expand_on_curve": "x011.expand_on_curve_s",
    "x011.expand_xy": "x011.expand_xy_s",
    "qseries.mul": "qseries.mul_s",
    "qseries.invert": "qseries.invert_s",
    "qseries.eta": "qseries.eta_s",
    "qseries.serialize": "qseries.serialize_s",
    "qseries.deserialize": "qseries.deserialize_s",
    "census.experiment": "census.experiment_s",
    "census.s_count": "census.s_count_s",
}
_CALLS = {
    "exactnum.valuation": "exactnum.valuation_calls",
    "x011.expand_on_curve": "x011.expand_on_curve_calls",
    "x011.expand_xy": "x011.expand_xy_calls",
    "qseries.mul": "qseries.mul_calls",
}


def overlap(intervals, lo, hi):
    """Total length of the parts of the (start, end) intervals inside [lo, hi]."""
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in intervals)


def _op_layers(spans, counts, pauses, scale, totals):
    """Add one operation's spans, with the benchmark's pauses taken out and
    times scaled to reference speed."""

    def duration(i):
        _, start, end, _, _ = spans[i]
        return (end - start - overlap(pauses, start, end)) * scale

    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def nested_in_same(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    scanned = detect_roots = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = duration(i)
        if name in _TIMES and not nested_in_same(i):
            totals[_TIMES[name]] += dur
        if name in _CALLS:
            totals[_CALLS[name]] += 1
        if name == "qseries.root":
            totals["qseries.root_coeffs"] += extra
        elif name == "ubdetect.detect":
            kids = children[i]
            totals["ubdetect.self_s"] += dur - sum(duration(k) for k in kids)
            scanned += extra
            detect_roots += sum(spans[k][4] for k in kids
                                if spans[k][0] == "qseries.root")
        elif name == "cli.cached_series":
            compute = [k for k in children[i] if spans[k][0] == "cli.cache_compute"]
            totals["cli.cache_misses" if compute else "cli.cache_hits"] += 1
            totals["cli.cache_io_s"] += dur - sum(duration(k) for k in compute)
        elif name == "census.enumerate":
            totals["census.triples"] += extra
    totals["exactnum.nf_mul_calls"] += counts.get("exactnum.nf_mul", 0)
    return scanned, detect_roots


def layer_metrics(traced_ops, passes, overhead_s):
    """Per-pass layer metrics from traced operations.

    traced_ops holds dicts with the child's `spans`, `counts` and
    `sympy_import` interval, the benchmark's `pauses` of the child and the
    operation's reference `scale`.
    """
    totals = {name: 0 for name in LAYER_METRICS}
    scanned = roots = 0
    for op in traced_ops:
        s, r = _op_layers(op["spans"], op["counts"], op["pauses"], op["scale"],
                          totals)
        scanned += s
        roots += r
    out = {name: value / passes for name, value in totals.items()}
    out["ubdetect.scan_yield"] = scanned / roots if roots else 0.0
    imports = []
    for op in traced_ops:
        t0, t1 = op["sympy_import"]
        imports.append((t1 - t0 - overlap(op["pauses"], t0, t1)) * op["scale"])
    out["cli.sympy_import_s"] = median(imports)
    out["trace.overhead_s"] = overhead_s
    return out
