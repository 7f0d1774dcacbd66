"""The benchmark's tracer wraps ubd functions by name: every name it lists
must still resolve, and be called and return the way the tracer expects,
or the traced benchmark run stops."""

import importlib
import importlib.util
import inspect
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing_lists():
    module = _tracing_module()
    return module.TRACED, module.TRACED_METHODS, module.COUNTED_METHODS


def test_every_traced_name_resolves():
    traced, methods, counted = _tracing_lists()
    names = [(home, (attr,)) for _, home, attr, _ in traced]
    names += [(home, (cls, attr)) for _, home, cls, attr in methods]
    names += [(home, (cls, attr)) for _, home, cls, attrs in counted
              for attr in attrs]
    missing = []
    for home, path in names:
        obj = importlib.import_module(f"ubd.{home}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"ubd.{home}.{'.'.join(path)}")
    assert missing == []


def test_traced_call_shapes(tmp_path, monkeypatch):
    """The tracer also relies on how the traced functions are called and
    what they return: cli calls cached_series with four positional
    arguments, its EXTRAS read a root's .prec, a verdict's certified(),
    witness_index and truncation_used and the len() of enumerate_triples,
    and AlgebraicNumber products are counted through counted(*args)."""
    from fractions import Fraction

    from ubd import census, cli, exactnum, qseries, ubdetect

    tracing = _tracing_module()
    rec = tracing.Recorder()
    assert list(inspect.signature(cli.cached_series).parameters) == [
        "op", "params", "compute", "directory"]
    monkeypatch.setattr(cli, "cached_series",
                        rec.wrap_cached_series(cli.cached_series))
    argv = ["--cache-dir", str(tmp_path), "expand-xy", "--terms", "10"]
    assert cli.main(argv) == 0 and cli.main(argv) == 0
    assert [span[0] for span in rec.spans] == [
        "cli.cached_series", "cli.cache_compute"] * 2 + [
        "cli.cached_series"] * 2

    f = qseries.LaurentSeries(1, 0, [1, 4, Fraction(2, 3)])
    assert list(inspect.signature(qseries.nth_root_normalized).parameters) \
        == ["f", "n"]
    assert tracing.EXTRAS["qseries.root"](
        qseries.nth_root_normalized(f, 2)) == 2
    assert list(inspect.signature(ubdetect.detect).parameters)[:4] == [
        "f", "root_degree", "prime_p", "T"]
    witness = ubdetect.detect(f, 2, 3, 2)
    assert witness.certified()
    assert tracing.EXTRAS["ubdetect.detect"](witness) == witness.witness_index
    bounded = ubdetect.detect(qseries.LaurentSeries(1, 0, [1, 4, 2]), 2, 3, 2)
    assert not bounded.certified()
    assert tracing.EXTRAS["ubdetect.detect"](bounded) == 2
    assert tracing.EXTRAS["census.enumerate"](census.enumerate_triples(3)) \
        == 4

    K = exactnum.NumberField([-2, 0, 1])
    counted = {attr: rec.count(attr, getattr(exactnum.AlgebraicNumber, attr))
               for attr in ("__mul__", "__rmul__")}
    root2 = K.gen()
    assert counted["__mul__"](root2, root2) == K.from_rational(2)
    assert counted["__rmul__"](root2, 3) == 3 * root2
    assert rec.counts == {"__mul__": 1, "__rmul__": 1}
