"""statecast: optimal linear filters for streaming the state of a scalar
linear dynamical system over a Gaussian channel with noisy, noiseless, or
absent feedback, plus the variance recursions, stationarity solvers, Monte
Carlo harness and exact-conditioning oracle that validate them."""

from .model import (
    MeasurementModel,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
)
from .recursions import (
    Gains,
    KalmanPrefilter,
    gains,
    kalman_prefilter,
    predict_noiseless_fb,
    predict_output_fb,
    predict_separation,
    predict_state_estimate_fb,
)
from .schemes import (
    RegimeKind,
    RegimePlan,
    build_plan,
    check_regime_consistency,
)
from .simulate import (
    McConfig,
    McSummary,
    OracleResult,
    exact_conditioning_oracle,
    monte_carlo,
)
from .stationarity import (
    StationaryReport,
    channel_capacity,
    check_noiseless,
    check_output_fb,
    solve_state_estimate_fp,
)

__version__ = "0.1.0"

__all__ = [
    "Gains",
    "KalmanPrefilter",
    "McConfig",
    "McSummary",
    "MeasurementModel",
    "OracleResult",
    "RegimeKind",
    "RegimePlan",
    "StationaryReport",
    "SystemSchedule",
    "ValidationError",
    "VariancePrediction",
    "build_plan",
    "channel_capacity",
    "check_regime_consistency",
    "check_noiseless",
    "check_output_fb",
    "exact_conditioning_oracle",
    "gains",
    "kalman_prefilter",
    "monte_carlo",
    "predict_noiseless_fb",
    "predict_output_fb",
    "predict_separation",
    "predict_state_estimate_fb",
    "solve_state_estimate_fp",
]
