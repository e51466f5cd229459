"""statecast: optimal linear filters for streaming the state of a scalar
linear dynamical system over a Gaussian channel with noisy, noiseless, or
absent feedback, plus the variance recursions, stationarity solvers, Monte
Carlo harness and exact-conditioning oracle that validate them.

Submodules load on first use (PEP 562): ``import statecast`` imports none of
them, and ``statecast.monte_carlo`` imports ``statecast.simulate`` and what
it needs, so a one-shot CLI run loads only the modules its mode runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {
    "Gains": "recursions",
    "KalmanPrefilter": "recursions",
    "McConfig": "model",
    "McSummary": "simulate",
    "MeasurementModel": "model",
    "OracleResult": "simulate",
    "RegimeKind": "model",
    "RegimePlan": "schemes",
    "StationaryReport": "stationarity",
    "SystemSchedule": "model",
    "ValidationError": "model",
    "VariancePrediction": "model",
    "build_plan": "schemes",
    "channel_capacity": "stationarity",
    "check_regime_consistency": "schemes",
    "check_noiseless": "stationarity",
    "check_output_fb": "stationarity",
    "exact_conditioning_oracle": "simulate",
    "gains": "recursions",
    "kalman_prefilter": "recursions",
    "monte_carlo": "simulate",
    "predict_noiseless_fb": "recursions",
    "predict_output_fb": "recursions",
    "predict_separation": "recursions",
    "predict_state_estimate_fb": "recursions",
    "solve_state_estimate_fp": "stationarity",
}
_SUBMODULES = ("model", "recursions", "schemes", "simulate", "stationarity", "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
