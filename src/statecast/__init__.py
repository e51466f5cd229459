"""statecast: optimal linear filters for streaming the state of a scalar
linear dynamical system over a Gaussian channel with noisy, noiseless, or
absent feedback, plus the variance recursions, stationarity solvers, Monte
Carlo harness and exact-conditioning oracle that validate them."""

from .model import (
    MeasurementModel,
    SchemeState,
    SystemSchedule,
    TrajectoryRecord,
    ValidationError,
    VariancePrediction,
    validate_measurement,
    validate_schedule,
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
    StepIO,
    StepParams,
    build_plan,
    check_regime_consistency,
    decoder_step,
    encoder_step_noiseless_fb,
    encoder_step_output_fb,
    encoder_step_separation,
    encoder_step_state_estimate_fb,
    run_regime,
    select_regime,
)
from .simulate import (
    McConfig,
    McSummary,
    NoiseStreams,
    OracleResult,
    exact_conditioning_oracle,
    monte_carlo,
    sample_gaussian_streams,
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
    "NoiseStreams",
    "OracleResult",
    "RegimeKind",
    "RegimePlan",
    "SchemeState",
    "StationaryReport",
    "StepIO",
    "StepParams",
    "SystemSchedule",
    "TrajectoryRecord",
    "ValidationError",
    "VariancePrediction",
    "build_plan",
    "channel_capacity",
    "check_regime_consistency",
    "check_noiseless",
    "check_output_fb",
    "decoder_step",
    "encoder_step_noiseless_fb",
    "encoder_step_output_fb",
    "encoder_step_separation",
    "encoder_step_state_estimate_fb",
    "exact_conditioning_oracle",
    "gains",
    "kalman_prefilter",
    "monte_carlo",
    "predict_noiseless_fb",
    "predict_output_fb",
    "predict_separation",
    "predict_state_estimate_fb",
    "run_regime",
    "sample_gaussian_streams",
    "select_regime",
    "solve_state_estimate_fp",
    "validate_measurement",
    "validate_schedule",
]
