"""Run one ubd command in this fresh process and report what it cost.

    python3 perfbench/child.py SRC_DIR RESULT_JSON STDOUT_FILE TRACE -- ARGV...

The script imports ubd from SRC_DIR (the set-up), then calls
ubd.cli.main(ARGV) with stdout captured, exactly as `ubd ARGV...` would run.
It writes the exit code, the monotonic clock at the end of set-up and at the
end of the command, and its peak RSS to RESULT_JSON. With TRACE = 1 it times
`import sympy` on its own, wraps the layer entry points (see tracing.py) and
adds the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    src, result_path, stdout_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC RESULT STDOUT TRACE -- ARGV...")
    trace = trace == "1"
    sys.path.insert(0, src)
    sympy_import = None
    if trace:
        t0 = time.monotonic()
        import sympy  # noqa: F401  (the part of `import ubd` that is sympy)
        sympy_import = [t0, time.monotonic()]
    import ubd.cli
    t_ready = time.monotonic()
    if not os.path.abspath(ubd.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported ubd from {ubd.__file__}, not from {src}")
    recorder = None
    if trace:
        import tracing
        recorder = tracing.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = ubd.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    t_done = time.monotonic()
    result = {
        "rc": rc,
        "t_ready": t_ready,
        "t_done": t_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result.update(spans=recorder.spans, counts=recorder.counts,
                      sympy_import=sympy_import)
    with open(stdout_path, "w") as fh:
        fh.write(out.getvalue())
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
