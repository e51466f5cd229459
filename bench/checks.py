"""Output checks that do not trust the code under test.

``check(op, text, exit_code, solver)`` returns ``(breaks, failures)``:

* ``breaks`` lists contract breaks: a wrong number, a malformed artifact or
  an exit code the artifact does not explain. Any break makes the run
  incorrect.
* ``failures`` lists analyses whose verdict disagrees with the closed form,
  as ``{"kind", "reason"}`` dicts. They count against ``success_ratio``.

``solver`` is the list of ``(iterations, cap_hit)`` pairs the stationarity
solver returned during the invocation, in call order, or None when unknown;
it only names the kind of a failure.
"""

from __future__ import annotations

import json
import math

import reference
from workloads import expand

# Monte Carlo tolerance in standard errors, per step. An mc_wide run makes
# 3 x 200 such comparisons, so at 6 se a correct program trips one with
# probability about 1e-6.
K_SE = 6.0
# Long-horizon runs have M = 32 trials, too few for per-step standard errors.
# Their whole-horizon averages pool 32 x 2e4 weakly correlated samples and
# stay within 0.5% of the prediction; they must lie within this share.
AGG_TOL = 0.02
PRED_RTOL = 1e-9  # recursions against the reference series
FP_RTOL = 1e-9  # stationary points against the closed forms
ORACLE_RTOL = 1e-12  # exact scheme error against the prediction

_REFERENCE = {
    "output_feedback": reference.predict_output_fb,
    "no_feedback": reference.predict_output_fb,
    "noiseless_feedback": reference.predict_output_fb,
    "state_estimate_feedback": reference.predict_state_estimate_fb,
}


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(1.0, abs(ref))


def _table(text: str, header: str, rows: int) -> list:
    """Rows of floats from a CSV artifact, after checking header and length."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} != {header!r}")
    table = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    if len(table) != rows:
        raise ValueError(f"{len(table)} rows, expected {rows}")
    return table


def _check_prediction(breaks, regime, sched, table):
    """Compare the (sigma2, vbar, mse) columns 1-3 with the reference recursion."""
    ref_fn = _REFERENCE.get(regime)
    if ref_fn is None:
        return
    sigma2, vbar = ref_fn(expand(sched))
    for i, row in enumerate(table):
        if int(row[0]) != i + 1:
            breaks.append(f"row {i + 1}: t = {row[0]}")
            return
        got = row[1:4]
        ref = (sigma2[i], vbar[i], sigma2[i] + vbar[i])
        if not all(_close(g, r, PRED_RTOL) for g, r in zip(got, ref)):
            breaks.append(f"t={i + 1}: prediction {got} != reference {list(ref)}")
            return


MC_HEADER = "t,pred_sigma2,pred_vbar,pred_mse,emp_mse,emp_se,emp_zpow"


def check_predict(op, text, breaks):
    sched = op["params"]["schedule"]
    table = _table(text, "t,pred_sigma2,pred_vbar,pred_mse", sched["T"])
    _check_prediction(breaks, op["params"]["regime"], sched, table)


def check_mc_steps(op, text, breaks):
    """Per step: |emp_mse - pred_mse| <= K se and |emp_zpow - P| <= K sqrt(2/M) P."""
    p = op["params"]
    sched, M = p["schedule"], p["trials"]
    table = _table(text, MC_HEADER, sched["T"])
    _check_prediction(breaks, p["regime"], sched, table)
    P = expand(sched)["P"]
    for i, (t, _, _, pred, emp, se, zpow) in enumerate(table):
        if not abs(emp - pred) <= K_SE * se:
            breaks.append(f"t={int(t)}: emp_mse {emp} vs pred_mse {pred} is beyond {K_SE} se ({se})")
            return
        last = i == len(table) - 1
        if last and not math.isnan(zpow):
            breaks.append(f"t={int(t)}: emp_zpow {zpow} at the final step, where nothing is sent")
        if not last and not abs(zpow - P[i + 1]) <= K_SE * math.sqrt(2.0 / M) * P[i + 1]:
            breaks.append(f"t={int(t)}: emp_zpow {zpow} vs P {P[i + 1]}")
            return


def check_mc_aggregate(op, text, breaks):
    """Whole-horizon mean emp_mse and emp_zpow/P within AGG_TOL of the prediction."""
    p = op["params"]
    sched = p["schedule"]
    table = _table(text, MC_HEADER, sched["T"])
    _check_prediction(breaks, p["regime"], sched, table)
    P = expand(sched)["P"]
    mse_ratio = sum(r[4] for r in table) / sum(r[3] for r in table)
    zpow_ratio = sum(r[6] / P[i + 1] for i, r in enumerate(table[:-1])) / (len(table) - 1)
    if not math.isnan(table[-1][6]):
        breaks.append("emp_zpow at the final step, where nothing is sent")
    for name, ratio in (("emp_mse/pred_mse", mse_ratio), ("emp_zpow/P", zpow_ratio)):
        if not abs(ratio - 1.0) <= AGG_TOL:
            breaks.append(f"horizon mean {name} = {ratio}")


def check_oracle(op, text, breaks):
    """scheme_mse equals pred_mse and the conditional-mean error is no larger."""
    sched = op["params"]["schedule"]
    table = _table(text, "t,oracle_mse,scheme_mse,pred_mse", sched["T"])
    for t, oracle, scheme, pred in table:
        if not _close(scheme, pred, ORACLE_RTOL):
            breaks.append(f"t={int(t)}: scheme_mse {scheme} != pred_mse {pred}")
            return
        if not oracle <= scheme + ORACLE_RTOL * max(1.0, scheme):
            breaks.append(f"t={int(t)}: oracle_mse {oracle} > scheme_mse {scheme}")
            return
    ref_fn = _REFERENCE.get(op["params"]["regime"])
    if ref_fn is not None:
        sigma2, vbar = ref_fn(expand(sched))
        for (t, _, _, pred), s2, vb in zip(table, sigma2, vbar):
            if not _close(pred, s2 + vb, PRED_RTOL):
                breaks.append(f"t={int(t)}: pred_mse {pred} != reference {s2 + vb}")
                return


def _fixed_point(regime, sched, N_f):
    a, b, P, N = sched["a"], sched["b"], sched["P"], sched["N"]
    if regime == "state_estimate_feedback":
        return reference.se_fixed_point(a, b, P, N, N_f)
    return reference.output_fb_fixed_point(a, b, P, N, N_f)


def _verdict(failures, breaks, where, regime, sched, N_f, bounded, point, solver_entry):
    """Compare one solver verdict and point with the closed form."""
    ref = _fixed_point(regime, sched, N_f)
    if (ref is not None) != bounded:
        iters, cap = solver_entry if solver_entry is not None else (None, False)
        side = "bounded" if ref is not None else "unbounded"
        threshold = ""
        if regime == "state_estimate_feedback":
            threshold = f" (a*={reference.a_star(sched['P'], sched['N'])!r})"
        failures.append({
            "kind": "cap_hit" if cap else "verdict_mismatch",
            "reason": f"{where}: a={sched['a']!r}{threshold}, N_f={N_f!r}: "
                      f"solver says {'bounded' if bounded else 'unbounded'}"
                      f"{f' after {iters} iterations' if iters is not None else ''}; "
                      f"closed form says {side}",
        })
        return
    if ref is None:
        if point is not None and not all(math.isnan(v) for v in point):
            breaks.append(f"{where}: unbounded but reports point {point}")
        return
    if point is None or not (_close(point[0], ref[0], FP_RTOL) and _close(point[1], ref[1], FP_RTOL)
                             and _close(point[2], ref[0] + ref[1], FP_RTOL)):
        breaks.append(f"{where}: point {point} != closed form {ref}")


def check_sweep(op, text, breaks, failures, solver):
    p = op["params"]
    sched, sweep = p["schedule"], p["sweep"]
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "N_f,bounded,sigma2,sigbar2,mse" or len(lines) != len(sweep) + 1:
        breaks.append(f"malformed sweep table {lines[:2]}")
        return
    if solver is not None and len(solver) != len(sweep):
        solver = None
    for i, (ln, nf) in enumerate(zip(lines[1:], sweep)):
        cells = ln.split(",")
        if float(cells[0]) != nf or cells[1] not in ("true", "false"):
            breaks.append(f"row {i}: {ln}")
            return
        _verdict(failures, breaks, f"N_f point {i}", "state_estimate_feedback", sched, nf,
                 cells[1] == "true", [float(c) for c in cells[2:]],
                 solver[i] if solver is not None else None)


def check_stationarity(op, text, exit_code, breaks, failures, solver):
    sched = op["params"]["schedule"]
    rep = json.loads(text)
    if exit_code != (0 if rep["bounded"] else 3):
        breaks.append(f"exit code {exit_code} for bounded={rep['bounded']}")
    fp = rep["fixed_point"]
    point = None if fp is None else [fp["sigma2"], fp["sigbar2"], fp["mse"]]
    _verdict(failures, breaks, "stationarity", op["params"]["regime"], sched,
             sched["N_f"], rep["bounded"], point, solver[0] if solver else None)


def check(op, text, exit_code, solver=None):
    """(contract breaks, failed analyses) of one operation's artifact."""
    breaks, failures = [], []
    kind = op["check"]
    try:
        if kind == "stationarity":
            check_stationarity(op, text, exit_code, breaks, failures, solver)
        elif exit_code != 0:
            breaks.append(f"exit code {exit_code}")
        elif kind == "sweep":
            check_sweep(op, text, breaks, failures, solver)
        else:
            {"predict": check_predict, "mc_steps": check_mc_steps,
             "mc_aggregate": check_mc_aggregate, "oracle": check_oracle}[kind](op, text, breaks)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        breaks.append(f"unreadable artifact: {exc!r}")
    return breaks, failures
