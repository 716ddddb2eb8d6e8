"""Benchmark of the cremlat command line, end to end and layer by layer.

Run from the root of a cremlat checkout:

    python3 bench/run.py --workload words --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's calls as real ``python -m cremlat.cli``
processes, one at a time from this single process (a closed loop with one
client), in at least three passes and then in more while another pass fits
in ``--seconds``, and reports the end-to-end metrics.  ``--trace 1`` runs
the same calls in this process through ``cremlat.cli.main``, each once
untraced and once with the layer functions wrapped (tracer.py), and reports
the per-layer metrics.  Every output is checked (check.py).  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics that BENCHMARK.json lists for the mode.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import check
import gen
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SETUP_ARGV = ("bounds", "--lam", "2")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CALL_TIMEOUT_S = 150
TAIL_BEYOND = 10  # a tail percentile needs at least this many calls above it
# every run makes at least this many passes over its call list; with the 8
# calls of each workload that is 24 call executions, so the tail lies above
# the median (p58)
MIN_PASSES = 3


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one CLI call in a child process -------------------------------------------

class Child:
    """Runs ``python -m cremlat.cli`` and reaps it with os.wait4 for its rusage."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, argv, code=None):
        cmd = [sys.executable] + (["-c", code] if code else ["-m", "cremlat.cli", *argv])
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(CALL_TIMEOUT_S, p.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        try:
            out = p.stdout.read()
            reader.join()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
            p.stdout.close()
            p.stderr.close()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": p.returncode,
                "stdout": out.decode(), "stderr": err[0].decode()}


# -- one CLI call in this process -----------------------------------------------

def in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI would print this traceback and exit 1
            traceback.print_exc()
            rc = 1
    return {"wall": time.perf_counter() - t0, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


# -- statistics -----------------------------------------------------------------

def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND values above it."""
    xs = sorted(values)
    k = max(1, len(xs) - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs)


def judge(checker, calls, records, log):
    """Count verdicts; returns (correct, failed, known)."""
    failed = known = 0
    correct = True
    for call, rec in zip(calls, records):
        status, reason = checker.verdict(call, rec["rc"], rec["stdout"], rec["stderr"])
        if status == "ok":
            continue
        failed += 1
        known += status == "known_defect"
        correct &= status == "known_defect"
        log(f"  {status}: {' '.join(call.argv)[:100]} -> {reason[:160]}")
    return correct, failed, known


# -- the two modes ----------------------------------------------------------------

def end_to_end(root, calls, seconds, reference, log):
    child = Child(root)
    setups = []
    for _ in range(SETUP_REPEATS):
        rec = child.run(SETUP_ARGV)
        if rec["rc"] != 0 or json.loads(rec["stdout"]).get("lam") != 2.0:
            raise RuntimeError(f"set-up call failed: {rec['stderr'][-300:]}")
        setups.append(rec["wall"])
    # at least MIN_PASSES passes, then more while another one fits in the run
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        t0 = time.perf_counter()
        records = [child.run(c.argv) for c in calls]
        wall = time.perf_counter() - t0
        passes.append((wall, records))
        if len(passes) >= MIN_PASSES and time.perf_counter() + wall > deadline:
            break
    checker = check.Checker(reference)
    correct, failed, known = True, 0, 0
    for _, records in passes:
        c, f, k = judge(checker, calls, records, log)
        correct, failed, known = correct and c, failed + f, known + k
    attempted = len(calls) * len(passes)
    per_call = [statistics.median(p[1][i]["wall"] for p in passes) for i in range(len(calls))]
    executions = [r["wall"] for _, records in passes for r in records]
    tail_value, tail_pct = tail(executions)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p[0] for p in passes),
        "call_p50_s": statistics.median(per_call),
        "call_tail_s": tail_value,
        "peak_rss_mb": max(r["rss_mb"] for _, records in passes for r in records),
    }
    log(f"  {len(calls)} calls x {len(passes)} passes; call_tail_s is p{tail_pct:.1f} "
        f"of {len(executions)} call executions")
    groups = {}
    for c, t in zip(calls, per_call):
        groups[c.group] = groups.get(c.group, 0.0) + t
    log("  time by group: " + ", ".join(f"{g} {t:.3f} s" for g, t in groups.items()))
    log(f"  fail_share {failed / attempted:.4f} ratio ({failed} of {attempted} calls failed, "
        f"{known} of them the known axis_data defect); reference compared "
        f"{checker.compared} outputs")
    return correct, attempted, failed, metrics


def traced(root, calls, reference, log):
    child = Child(root)
    code = ("import time; t = time.perf_counter(); import cremlat.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(IMPORT_REPEATS):
        rec = child.run((), code=code)
        if rec["rc"] != 0:
            raise RuntimeError(f"import of cremlat.cli failed: {rec['stderr'][-300:]}")
        imports.append(float(rec["stdout"]))
    sys.path.insert(0, str(root / "src"))
    from cremlat import cli

    tracer = Tracer()

    def run_traced(argv):
        tracer.install()
        try:
            return in_process(cli.main, argv)
        finally:
            tracer.uninstall()

    # each call runs untraced and traced, the first of the two alternating,
    # so that warm caches favour neither side of the overhead ratio
    plain, records = [], []
    for i, c in enumerate(calls):
        tracer.request = i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                records.append(run_traced(c.argv))
            else:
                plain.append(in_process(cli.main, c.argv))
    untraced_wall = sum(r["wall"] for r in plain)
    traced_wall = sum(r["wall"] for r in records)
    checker = check.Checker(reference)
    c1, f1, _ = judge(checker, calls, plain, log)
    c2, f2, _ = judge(checker, calls, records, log)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    log(f"  in-process: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s, "
        f"{len(tracer.spans)} spans")
    return c1 and c2, 2 * len(calls), f1 + f2, metrics


def run_workload(root, spec, workload, seed, seconds, trace, reference, log):
    calls = gen.calls_for(workload, seed)
    log(f"workload {workload} seed {seed} trace {trace}: {len(calls)} calls")
    if trace:
        correct, attempted, failed, values = traced(root, calls, reference, log)
        wanted = spec["per_layer"]
    else:
        correct, attempted, failed, values = end_to_end(root, calls, seconds, reference, log)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        log(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    log(f"  output check: {'pass' if correct else 'FAIL'}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def git_rev(root) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the results, with the run's context, here")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cremlat" / "cli.py").is_file():
        print("bench: no src/cremlat here; run from the root of a cremlat checkout",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    reference = check.load_reference(HERE / "reference.json")

    lines = []

    def log(line):
        lines.append(line)
        print(line, flush=True)

    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(root, spec, w, args.seed, args.seconds, args.trace,
                               reference, log) for w in names}
    if args.out:
        context = {"rev": git_rev(root), "python": platform.python_version(),
                   "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "results": results, "log": lines}
        with open(args.out, "w") as fh:
            json.dump(context, fh, indent=1)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
