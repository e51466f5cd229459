"""Runs one workload in-process against statecast and writes a JSON result.

Started by run.py in a fresh interpreter whose environment caps the
BLAS/OpenMP thread pools before numpy loads. One client drives
``statecast.cli.main`` in a closed loop: each invocation starts when the
previous one returned.

Sequence: golden replay, one untimed warm-up pass over the fixed operation
list, then at least two timed passes, until ``--seconds`` have passed since
the warm-up began; the last pass is the one that ends nearest that mark.
The first pass over a workload's inputs runs slower than later ones, which
is why it is not timed. The warm-up logs the stationarity solver's
iteration counts, read from the reports it returns, so that failed verdicts
can be itemised. Each timed pass must reproduce the warm-up's exit codes
and output bytes; run.py checks the artifacts left in the work directory,
so the checks' memory does not count towards this process's peak RSS. With
``--trace 1`` timed passes alternate between untraced and traced.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

# (config, artifact, command) of the pinned artifacts under tests/golden.
GOLDEN = (
    ("noiseless_sim.ini", "noiseless_sim.csv", "run"),
    ("output_fb_compare.ini", "output_fb_compare.csv", "compare"),
    ("state_estimate_sim.ini", "state_estimate_sim.csv", "run"),
)


def os_threads() -> int:
    task = Path("/proc/self/task")
    return len(os.listdir(task)) if task.is_dir() else threading.active_count()


class Runner:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.max_threads = os_threads()

    def invoke(self, command: str, config: Path, out: Path) -> tuple[object, float, bytes]:
        """(exit code or exception text, seconds, artifact bytes) of one CLI call."""
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            code = self.cli.main([command, str(config), "--output", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a contract break, reported with the op
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        self.max_threads = max(self.max_threads, os_threads())
        return code, elapsed, out.read_bytes() if out.exists() else b""

    def run_pass(self, ops, on_op=None) -> tuple[list, list, int]:
        """([seconds per invocation], [(exit code, artifact sha256)], bytes written)."""
        times, outcomes, nbytes = [], [], 0
        for op in ops:
            code, elapsed, data = self.invoke(
                op["command"], self.workdir / op["config"], self.workdir / f"{op['id']}.out")
            times.append(elapsed)
            nbytes += len(data)
            outcomes.append((code, hashlib.sha256(data).hexdigest()))
            if on_op is not None:
                on_op(op, code, data)
        return times, outcomes, nbytes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    root, workdir = Path(args.root), Path(args.workdir)

    import numpy
    import statecast
    from statecast import cli

    src = (root / "src").resolve()
    if src not in Path(statecast.__file__).resolve().parents:
        print(f"statecast imported from {statecast.__file__}, not {src}", file=sys.stderr)
        return 2
    _, ops = workloads.generate(args.workload, args.seed)
    runner = Runner(cli, workdir)
    tracer = Tracer()
    breaks = []

    for ini, csv, command in GOLDEN:
        code, _, data = runner.invoke(command, root / "tests" / "golden" / ini, workdir / csv)
        if code != 0 or data != (root / "tests" / "golden" / csv).read_bytes():
            breaks.append({"op": f"golden/{csv}", "kind": "contract",
                           "reason": f"exit {code}; output differs from the pinned artifact"})

    solver = {}

    def log_solver(op, code, data):
        solver[op["id"]] = list(tracer.solver_log)
        tracer.solver_log.clear()

    t_start = perf_counter()
    gc.collect()
    tracer.install(solver_only=True)
    try:
        warm_times, expected, _ = runner.run_pass(ops, log_solver)
    finally:
        tracer.restore()

    passes, layers = [], []
    while True:
        untraced = sum(1 for p in passes if not p["traced"])
        traced = bool(args.trace) and untraced > len(passes) - untraced
        tracer.reset()
        gc.collect()
        if traced:
            tracer.install()
        try:
            times, outcomes, nbytes = runner.run_pass(ops)
        finally:
            tracer.restore()
        seconds = sum(times)
        passes.append({"traced": traced, "seconds": seconds, "op_s": times})
        if traced:
            snap = tracer.snapshot()
            snap["cli.bytes_out"] = nbytes
            snap["trace.pass_s"] = seconds
            layers.append(snap)
        if outcomes != expected:
            breaks.append({"op": "*", "kind": "contract",
                           "reason": f"timed pass {len(passes)} differs from the warm-up pass"})
        elapsed = perf_counter() - t_start
        done_min = len(passes) >= 2 and (not args.trace or len(layers) >= 1)
        if done_min and elapsed + 0.5 * elapsed / (len(passes) + 1) >= args.seconds:
            break

    result = {
        "breaks": breaks,
        "exit_codes": {op["id"]: code for op, (code, _) in zip(ops, expected)},
        "solver": solver,
        "items_per_pass": sum(op["items"] for op in ops),
        "warmup_s": sum(warm_times),
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_os_threads": runner.max_threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "statecast": getattr(statecast, "__version__", "unknown"),
    }
    Path(args.result).write_text(json.dumps(result))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if runner.max_threads > nproc:
        print(f"worker ran {runner.max_threads} OS threads, more than nproc = {nproc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
