"""statecast benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mc_wide --seed 1 --seconds 52 --trace 0

Run from the root of a source checkout (``src/statecast`` and
``tests/golden`` must be there); nothing needs to be built or installed.

Workloads (see workloads.py for the exact operation lists):

* ``mc_wide`` [trial-steps]: ``compare`` at T=200, M=1e5 in three regimes.
  Bulk noise sampling and the vectorized closed loop dominate, and the
  (T, M) stream arrays set peak RSS.
* ``long_horizon`` [schedule steps]: T=2e4 with per-step a(t), P(t), M=32;
  one ``run`` in predict mode and three ``compare`` runs. Per-step Python
  overhead dominates: recursions, ``build_plan``, validation, the closed
  loop at width 32, parsing long lists and writing long CSVs. Not listed in
  BENCHMARK.json: on a shared 2-vCPU host its items_per_s moved with the
  host's speed by more than the 25% bound between runs of the same code.
* ``exact_analysis`` [analyses]: a state-estimate stationarity sweep on both
  sides of the closed-form threshold a*(P,N), including points the damped
  solver cannot resolve within its iteration cap, stationarity runs for
  three more regimes, and T=12 oracle runs in all five regimes. Solver
  iterations dominate; no sampling runs.

Untraced runs report ``items_per_s`` (the items of one pass over the sum of
each invocation's median time across the timed passes), ``setup_s`` (median
over fresh-interpreter probes of ``import statecast`` plus
``cli.parse_config`` of the workload's configs, after one warm-up probe),
``peak_rss_mb`` of the worker process and ``success_ratio`` (1 -
failed/attempted over the seed's fixed analysis list). Traced runs report
per-layer self times and counters. The full record, with provenance and
itemised failures, goes to ``.bench_out/``.

Exit code 0 with the result as the last stdout line; 2 when the checkout
lacks the program; 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUDGET_S = 170.0  # the whole run, probes and worker included
SETUP_PROBES = 5
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    """Environment with thread caps set before the child imports numpy.

    STATECAST_MAX_THREADS is dropped so that the caller's shell cannot change
    how many threads the program under test starts.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_CAPS})
    env.pop("STATECAST_MAX_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def setup_probes(configs: list, env: dict, deadline: float) -> list:
    """Seconds for import + parse in fresh interpreters; the first probe is dropped."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *map(str, configs)],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return times[1:]


def tail_percentile(samples: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"samples": n, "median": statistics.median(samples), "tail_pct": None, "tail": None}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out.update(tail_pct=pct, tail=sorted(samples)[math.ceil(pct / 100 * n) - 1])
    return out


def median_pass_s(passes: list) -> float:
    """Sum over invocations of each one's median seconds across ``passes``.

    Per-invocation medians discard a pass slowed by the host for part of its
    length, where a median over whole passes could only discard whole passes.
    """
    return sum(statistics.median(times) for times in zip(*(p["op_s"] for p in passes)))


def layer_units() -> dict:
    """Per-layer metric names and units, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def check_artifacts(ops: list, res: dict, workdir: Path) -> tuple[int, list]:
    """(failed analyses, itemised failures) of the artifacts the worker left.

    Every timed pass reproduced these bytes, so one check covers them all. An
    operation that breaks its contract counts all of its analyses as failed.
    """
    failed, failures = 0, list(res["breaks"])
    for op in ops:
        out = workdir / f"{op['id']}.out"
        text = out.read_text(errors="replace") if out.exists() else ""
        breaks, verdicts = checks.check(op, text, res["exit_codes"][op["id"]],
                                        res["solver"].get(op["id"]))
        failures += [{"op": op["id"], "kind": "contract", "reason": r} for r in breaks]
        failures += [{"op": op["id"], **v} for v in verdicts]
        failed += op["analyses"] if breaks else len(verdicts)
    return failed, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    missing = [p for p in ("src/statecast/__init__.py", "tests/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a statecast checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    files, ops = workloads.generate(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = worker_env()
    result_path = workdir / "result.json"
    try:
        workdir.mkdir(parents=True)
        for name, text in files.items():
            (workdir / name).write_text(text)
        configs = [workdir / name for name in files]
        setup = [] if args.trace else setup_probes(configs, env, deadline)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
             "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            cwd=ROOT, env=env, timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
        failed, failures = check_artifacts(ops, res, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op["analyses"] for op in ops)
    correct = not any(f["kind"] == "contract" for f in failures)
    untraced = [p for p in res["passes"] if not p["traced"]]
    pass_s = median_pass_s(untraced)
    if args.trace:
        metrics = {name: {"value": statistics.median(snap[name] for snap in res["layers"]),
                          "unit": unit} for name, unit in layer_units().items()
                   if name != "trace.overhead_s"}
        traced = [p for p in res["passes"] if p["traced"]]
        metrics["trace.overhead_s"] = {"value": median_pass_s(traced) - pass_s, "unit": "s"}
    else:
        metrics = {
            "items_per_s": {"value": res["items_per_pass"] / pass_s, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "success_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics,
        "items_per_pass": res["items_per_pass"], "median_pass_s": pass_s,
        "untraced_pass_s": tail_percentile([p["seconds"] for p in untraced]),
        "passes": res["passes"], "warmup_s": res["warmup_s"], "setup_probes_s": setup,
        "failures": failures, "layers": res["layers"],
        "provenance": {
            "git_commit": git_commit(), "python": res["python"], "numpy": res["numpy"],
            "statecast": res["statecast"], "nproc": len(os.sched_getaffinity(0)),
            "max_os_threads": res["max_os_threads"],
            "thread_env": {v: env.get(v, "unset") for v in THREAD_CAPS + ("STATECAST_MAX_THREADS",)},
            "config_sha256": {n: hashlib.sha256(t.encode()).hexdigest() for n, t in files.items()},
        },
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
