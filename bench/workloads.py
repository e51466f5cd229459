"""Workload definitions: INI configs and the fixed operation list per seed.

Sizes are fixed per workload. The seed only draws parameter values, Monte
Carlo seeds and the order of invocations, so every seed gives the same item
count and nearly the same work. Uses the standard library only, so configs
can be made before numpy is loaded.

An operation is one CLI invocation, except for the stationarity sweep, where
each N_f point of a ``compare`` invocation is one checked analysis.
"""

from __future__ import annotations

import random

from reference import a_star

WORKLOADS = ("mc_wide", "long_horizon", "exact_analysis")

MC_WIDE_T = 200
MC_WIDE_M = 100_000
LONG_T = 20_000
LONG_M = 32
ORACLE_T = 12

# Relative distances a/a*(P,N) - 1 of the state-estimate stationarity sweep.
# The +-6e-5 band is closer to the threshold than the damped solver can
# resolve within its iteration cap.
SWEEP_REL = (-0.2, -0.1, -0.05, -0.02, -0.01, 0.01, 0.05, 0.2)
BAND_REL = ((-6e-5, 2), (6e-5, 1))  # (distance, number of N_f points)
SWEEP_POINTS = 3
# Relative distances from the boundedness threshold of the stationarity runs.
STAT_REL = (-0.2, 0.2)
REGIMES_MC = ("output_feedback", "state_estimate_feedback", "separation_output_feedback")


def _num(x) -> str:
    return ", ".join(map(repr, x)) if isinstance(x, list) else repr(x)


def _ini(sched: dict, experiment: dict, measurement=None, sweep=None) -> str:
    lines = ["[schedule]", f"T = {sched['T']}"]
    for key in ("a", "b", "P", "N", "N_f", "V_xx0"):
        lines.append(f"{key} = {_num(sched[key])}")
    if measurement is not None:
        lines.append("")
        lines.append("[measurement]")
        lines += [f"{k} = {_num(v)}" for k, v in measurement.items()]
    lines += ["", "[experiment]"]
    lines += [f"{k} = {v}" for k, v in experiment.items()]
    if sweep is not None:
        lines += ["", "[sweep]", f"N_f = {_num(sweep)}"]
    return "\n".join(lines) + "\n"


def _measurement(r):
    return {"c": r.uniform(0.5, 1.5), "d": r.uniform(0.2, 1.0), "V_ww": 1.0, "V_wv": 0.0,
            "V_vv": r.uniform(0.2, 1.0)}


def expand(sched: dict) -> dict:
    """Per-step lists for every schedule parameter (as the references take them)."""
    T = sched["T"]
    out = {"V_xx0": sched["V_xx0"]}
    for key in ("a", "b", "P", "N", "N_f"):
        v = sched[key]
        out[key] = list(v) if isinstance(v, list) else [float(v)] * T
    return out


def _op(files, name, text, command, check, items, params, analyses=1):
    files[name] = text
    return {"id": name[:-4], "command": command, "config": name, "check": check,
            "items": items, "analyses": analyses, "params": params}


def mc_wide(r):
    files, ops = {}, []
    sched = {"T": MC_WIDE_T, "a": r.uniform(0.5, 0.95), "b": r.uniform(0.5, 1.5),
             "P": r.uniform(0.5, 2.0), "N": r.uniform(0.5, 2.0), "N_f": r.uniform(0.1, 2.0),
             "V_xx0": r.uniform(0.5, 2.0)}
    for regime in REGIMES_MC:
        meas = _measurement(r) if regime == "separation_output_feedback" else None
        exp = {"mode": "simulate", "regime": regime, "trials": MC_WIDE_M,
               "seed": r.randrange(1, 2**31), "output": "out.csv"}
        ops.append(_op(files, f"mc_{regime}.ini", _ini(sched, exp, meas), "compare",
                       "mc_steps", MC_WIDE_T * MC_WIDE_M,
                       {"schedule": sched, "regime": regime, "trials": MC_WIDE_M}))
    return files, ops


def long_horizon(r):
    files, ops = {}, []
    T = LONG_T
    sched = {"T": T, "a": [r.uniform(-0.95, 0.95) for _ in range(T)], "b": r.uniform(0.5, 1.5),
             "P": [r.uniform(0.5, 2.0) for _ in range(T)], "N": r.uniform(0.5, 2.0),
             "N_f": r.uniform(0.1, 2.0), "V_xx0": r.uniform(0.5, 2.0)}
    exp = {"mode": "predict", "regime": "output_feedback", "output": "out.csv"}
    ops.append(_op(files, "lh_predict.ini", _ini(sched, exp), "run", "predict", T,
                   {"schedule": sched, "regime": "output_feedback"}))
    for regime in REGIMES_MC:
        meas = _measurement(r) if regime == "separation_output_feedback" else None
        exp = {"mode": "simulate", "regime": regime, "trials": LONG_M,
               "seed": r.randrange(1, 2**31), "output": "out.csv"}
        ops.append(_op(files, f"lh_{regime}.ini", _ini(sched, exp, meas), "compare",
                       "mc_aggregate", T,
                       {"schedule": sched, "regime": regime, "trials": LONG_M}))
    return files, ops


def exact_analysis(r):
    files, ops = {}, []
    exp = {"mode": "stationarity", "regime": "state_estimate_feedback", "output": "out.csv"}
    for i, (rel, points) in enumerate([(x, SWEEP_POINTS) for x in SWEEP_REL] + list(BAND_REL)):
        P, N = r.uniform(0.5, 2.0), r.uniform(0.5, 2.0)
        sched = {"T": 2, "a": a_star(P, N) * (1.0 + rel), "b": r.uniform(0.5, 1.5),
                 "P": P, "N": N, "N_f": 1.0, "V_xx0": 1.0}
        sweep = sorted(r.uniform(0.1, 2.0) for _ in range(points))
        ops.append(_op(files, f"sweep{i}.ini", _ini(sched, exp, sweep=sweep), "compare",
                       "sweep", points, {"schedule": sched, "sweep": sweep, "rel": rel},
                       analyses=points))
    for regime, nf in (("noiseless_feedback", 0.0), ("output_feedback", None),
                       ("no_feedback", float("inf"))):
        for j, rel in enumerate(STAT_REL):
            P, N = r.uniform(0.5, 2.0), r.uniform(0.5, 2.0)
            # thresholds: a^2 N/(N+P) < 1 without feedback noise, |a| < 1 with it
            edge = ((N + P) / N) ** 0.5 if nf == 0.0 else 1.0
            sched = {"T": 2, "a": edge * (1.0 + rel), "b": r.uniform(0.5, 1.5), "P": P,
                     "N": N, "N_f": r.uniform(0.1, 2.0) if nf is None else nf, "V_xx0": 1.0}
            e = {"mode": "stationarity", "regime": regime, "output": "out.json"}
            ops.append(_op(files, f"stat_{regime}{j}.ini", _ini(sched, e), "run",
                           "stationarity", 1, {"schedule": sched, "regime": regime}))
    for regime, nf in (("output_feedback", None), ("no_feedback", float("inf")),
                       ("noiseless_feedback", 0.0), ("state_estimate_feedback", None),
                       ("separation_output_feedback", None)):
        sched = {"T": ORACLE_T, "a": [r.uniform(-1.2, 1.2) for _ in range(ORACLE_T)],
                 "b": r.uniform(0.5, 1.5), "P": [r.uniform(0.5, 2.0) for _ in range(ORACLE_T)],
                 "N": r.uniform(0.5, 2.0), "N_f": r.uniform(0.1, 2.0) if nf is None else nf,
                 "V_xx0": r.uniform(0.5, 2.0)}
        meas = _measurement(r) if regime == "separation_output_feedback" else None
        e = {"mode": "oracle", "regime": regime, "output": "out.csv"}
        ops.append(_op(files, f"oracle_{regime}.ini", _ini(sched, e, meas), "run", "oracle",
                       1, {"schedule": sched, "regime": regime}))
    return files, ops


_GENERATORS = {"mc_wide": mc_wide, "long_horizon": long_horizon, "exact_analysis": exact_analysis}


def generate(workload: str, seed: int) -> tuple[dict, list]:
    """({file name: INI text}, [operation]) for one workload and seed.

    The operations come in a seed-drawn order; the same seed always gives
    identical bytes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    r = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
    files, ops = _GENERATORS[workload](r)
    r.shuffle(ops)
    return files, ops
