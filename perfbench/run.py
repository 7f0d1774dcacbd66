"""The ubd benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload certify|series|census|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/ubd. Each operation is one ubd
command line, run in a fresh process by perfbench/child.py; one client runs
one operation at a time (a closed loop). A pass is the workload's fixed list
of operations; passes repeat until the next one would end after S seconds,
and at least one pass runs. Every output is checked against independent
computations (perfbench/oracles.py).

Times are in seconds at reference speed: each raw time is multiplied by
NOMINAL_S / measured, where measured is the mean time of the reference
computation in perfbench/reference.py just before and just after the
operation. The raw seconds are printed beside them.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics setup_s, pass_s, op_p50_s and peak_rss_mb. With --trace 1 untraced and
traced passes alternate, the spans go to .perfbench-work/spans-WORKLOAD-SEED.jsonl
and the JSON object holds the per-layer metrics of perfbench/tracing.py,
per traced pass, with the tracing overhead.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import reference
import tracing
from tracing import overlap
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# a run must end within this many seconds of starting
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs ubd commands in fresh child processes inside one work directory.

    While a command runs, it is paused every SAMPLE_EVERY_S seconds for one
    run of the reference computation on the same CPU, so that long commands
    are scaled by the speed the machine had while they ran. The pauses are
    taken out of the command's times.
    """

    SAMPLE_EVERY_S = 0.5

    def __init__(self, work, cache, deadline):
        self.work = work
        self.env = dict(os.environ, UBD_CACHE_DIR=cache)
        self.env.pop("PYTHONPATH", None)
        self.deadline = deadline

    def run(self, argv, trace=False, sample=False):
        """Run `ubd argv` once; returns (child result dict or None, stdout).
        With sample=True the result holds the reference times taken during
        the command under "ref_during"."""
        result_path = os.path.join(self.work, "op-result.json")
        stdout_path = os.path.join(self.work, "op-stdout.txt")
        for path in (result_path, stdout_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path,
               stdout_path, "1" if trace else "0", "--", *argv]
        pauses, during = [], []
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                stdout=subprocess.DEVNULL)
        try:
            while proc.returncode is None:
                try:
                    proc.wait(timeout=self.SAMPLE_EVERY_S)
                except subprocess.TimeoutExpired:
                    if time.monotonic() > self.deadline:
                        print(f"ubd {' '.join(argv)}: killed at the run's time "
                              "limit", file=sys.stderr)
                        return None, ""
                    if sample:
                        self._sample_paused(proc, pauses, during)
        finally:
            if proc.returncode is None:     # also when it is stopped
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"ubd {' '.join(argv)}: child exited {proc.returncode}",
                  file=sys.stderr)
            return None, ""
        with open(result_path) as fh:
            result = json.load(fh)
        with open(stdout_path) as fh:
            stdout = fh.read()
        t_ready, t_done = result["t_ready"], result["t_done"]
        result["setup_raw"] = t_ready - t_spawn - overlap(pauses, t_spawn, t_ready)
        result["op_raw"] = t_done - t_ready - overlap(pauses, t_ready, t_done)
        result["ref_during"] = during
        result["pauses"] = pauses
        return result, stdout

    @staticmethod
    def _sample_paused(proc, pauses, during):
        """Stop the child, time the reference computation, continue it."""
        os.kill(proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):          # it ended before it stopped
            proc.returncode = os.waitstatus_to_exitcode(status)
            return
        t0 = time.monotonic()
        during.extend(reference.measure(1))
        t1 = time.monotonic()
        os.kill(proc.pid, signal.SIGCONT)
        pauses.append((t0, t1))

    def run_cli(self, argv):
        result, stdout = self.run(argv)
        return (None if result is None else result["rc"]), stdout


def run_pass(workload, runner, trace, ref, log):
    """One pass over the workload's operations. Returns (per-op records,
    attempted, failed, problems, reference times after the pass)."""
    workload.start_pass()
    ops, failed, problems = [], 0, []
    for op in workload.ops:
        result, stdout = runner.run(op.argv, trace, sample=True)
        ref_before, ref = ref, reference.measure()
        if result is None or result["rc"] != 0:
            failed += 1
            log(f"  {op.name}: FAILED (exit {None if result is None else result['rc']})")
            continue
        # the machine's speed: the reference before, during and after the op
        points = [median(ref_before), *result["ref_during"], median(ref)]
        scale = reference.NOMINAL_S / (sum(points) / len(points))
        try:
            found = workload.check(op, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            found = [f"{op.name}: output the check cannot read ({exc!r})"]
        problems += found
        result.update(name=op.name, scale=scale)
        ops.append(result)
        log(f"  {op.name}: {result['op_raw'] * scale:.3f} s "
            f"(raw {result['op_raw']:.3f} s, setup raw {result['setup_raw']:.3f} s)"
            + ("" if not found else f"  WRONG: {found}"))
    return ops, len(workload.ops), failed, problems, ref


def end_to_end(passes):
    """The four end-to-end metrics, scaled and raw, from untraced passes."""
    ops = [op for p in passes for op in p]
    if not ops:
        raise RuntimeError("no operation completed")

    def pass_time(p, scaled):
        return sum(op["op_raw"] * (op["scale"] if scaled else 1) for op in p)

    scaled = {
        "setup_s": median(op["setup_raw"] * op["scale"] for op in ops),
        "pass_s": median(pass_time(p, True) for p in passes),
        "op_p50_s": median(op["op_raw"] * op["scale"] for op in ops),
        "peak_rss_mb": max(op["maxrss_kb"] for op in ops) / 1024,
    }
    raw = {
        "setup_s": median(op["setup_raw"] for op in ops),
        "pass_s": median(pass_time(p, False) for p in passes),
        "op_p50_s": median(op["op_raw"] for op in ops),
    }
    return scaled, raw


def run_workload(name, seed, seconds, trace, log):
    """Run one workload; returns the result object printed as JSON."""
    t_start = time.monotonic()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[name](seed, work)
        runner = Runner(work, workload.cache, t_start + RUN_LIMIT_S)
        workload.prepare(runner.run_cli)
        ref = reference.measure()
        plain, traced, pass_walls = [], [], []
        attempted = failed = 0
        problems = []
        t_measure = time.monotonic()
        while True:
            kinds = [False, True] if trace else [False]
            for traced_pass in kinds:
                t0 = time.monotonic()
                log(f"{name} pass {len(plain) + len(traced) + 1}"
                    + (" (traced)" if traced_pass else ""))
                ops, a, f, found, ref = run_pass(workload, runner, traced_pass,
                                                 ref, log)
                (traced if traced_pass else plain).append(ops)
                attempted += a
                failed += f
                problems += found
                pass_walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - t_measure
            if elapsed + sum(pass_walls) / len(pass_walls) * len(kinds) > seconds:
                break
        scaled, raw = end_to_end(plain)
        if trace:
            overhead = (median(sum(op["op_raw"] * op["scale"] for op in p)
                               for p in traced) - scaled["pass_s"])
            metrics = tracing.layer_metrics([op for p in traced for op in p],
                                            len(traced), overhead)
            units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
            spans_path = os.path.join(WORK_ROOT, f"spans-{name}-{seed}.jsonl")
            with open(spans_path, "w") as fh:
                for op_id, op in enumerate(op for p in traced for op in p):
                    for i, (sname, start, end, parent, extra) in enumerate(op["spans"]):
                        fh.write(json.dumps({
                            "op": op_id, "op_name": op["name"], "span": i,
                            "name": sname, "start": start, "end": end,
                            "parent": parent, "extra": extra}) + "\n")
            log(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            metrics = scaled
            units = END_TO_END
        for key, value in metrics.items():
            note = f"   (raw {raw[key]:.4f} s)" if not trace and key in raw else ""
            log(f"{name} {key} = {value:.6g} {units[key]}{note}")
        for p in problems:
            log(f"WRONG OUTPUT: {p}")
        log(f"{name}: {attempted} operations attempted, {failed} failed, "
            f"{len(plain)} untraced and {len(traced)} traced passes, "
            f"{time.monotonic() - t_start:.1f} s")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description="Run the ubd benchmark.")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ubd", "cli.py")):
        print(f"error: no ubd sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    # the reference and every operation run on one CPU (children inherit this)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace == 1, log)
               for n in names}
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
