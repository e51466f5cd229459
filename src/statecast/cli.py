"""Experiment runner: load a keyed config, run an analysis, emit CSV/JSON.

Config format (INI sections; scalars or comma-separated per-step lists)::

    [schedule]
    T = 50
    a = 0.5          ; scalar or comma list of length T
    b = 1.0
    P = 1.0
    N = 1.0
    N_f = 0          ; 0 = noiseless feedback, inf = no feedback
    V_xx0 = 1.0

    [measurement]    ; separation regime only (required there, ignored elsewhere)
    c = 1.0
    d = 0.0
    V_ww = 1.0       ; scalar or comma list of length T+1
    V_wv = 0.0
    V_vv = 0.0

    [experiment]
    mode = predict   ; predict | simulate | stationarity | oracle
    regime = noiseless_feedback
    output = out.csv
    trials = 100000  ; simulate mode
    seed = 12345     ; simulate mode
    form = proof     ; optional: proof | stated residual recursion

    [sweep]          ; optional; used by `compare` (not in the separation regime)
    N_f = 0, 0.1, 1, inf

The file is read as UTF-8, in one pass over its lines, as this INI subset:

* ``[section]`` headers, names taken as written; ``[DEFAULT]`` has no
  special meaning and is rejected like any unknown section;
* ``key = value`` or ``key: value``, split at the first ``=`` or ``:`` (so
  ``output = C:\\x.csv`` keeps its value); keys are stripped and
  lower-cased, values stripped and literal (``%`` is not interpolated);
* full-line ``;``/``#`` comments, and inline ones where whitespace precedes
  the ``;``/``#``; blank lines;
* lines indented deeper than their key line continue its value, joined with
  newlines (``a = 0.5,`` followed by indented ``0.6,`` and ``0.7``).

Any other line, a duplicate key or section, and a line before the first
header is a one-line ``malformed config: <path> line <n>: ...`` error.

One parser reads the command (``run`` or ``compare``), the config path and
the flags; flags may come before or after the command, and ``statecast -h``
lists both commands.  ``--output``, ``--seed`` and ``--trials`` set the
``[experiment]`` key of the same name, ``--set section.key=value`` any key,
and flags override file keys.  Exit codes: 0 success, 1 I/O or memory
failure, 2 validation error (including a malformed config, a value that
does not parse as a number and a file that is not UTF-8), 3 stationarity
mode reported an unbounded system.

Importing this module and parsing a config load only ``statecast.model``
(and numpy).  Each mode imports the modules it runs when it runs, each with
what it imports itself (``recursions`` in every case):

* predict, stationarity and the ``compare`` sweep: ``schemes`` (with
  ``stationarity``);
* simulate, oracle and ``compare``: ``simulate`` (with ``schemes``,
  ``stationarity`` and ``numpy.random``).
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (
    SIGBAR_FORMS,
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    csv_table,
    format_float,
)

__all__ = ["ExperimentSpec", "parse_config", "run", "compare", "main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NOT_STATIONARY = 3

MODES = ("predict", "simulate", "stationarity", "oracle")

_SCHEDULE_KEYS = ("t", "a", "b", "p", "n", "n_f", "v_xx0")
_MEASUREMENT_KEYS = ("c", "d", "v_ww", "v_wv", "v_vv")
_EXPERIMENT_KEYS = ("mode", "regime", "output", "trials", "seed", "form")
_SWEEP_KEYS = ("n_f",)


@dataclass
class ExperimentSpec:
    """Validated experiment manifest."""

    schedule: SystemSchedule
    mode: str
    regime: RegimeKind
    output: str
    measurement: Optional[MeasurementModel] = None
    mc: Optional[McConfig] = None
    form: str = "proof"
    sweep_N_f: Optional[list[float]] = None


def _numbers(text: str, key: str, conv=float) -> list:
    """The comma-separated numbers in ``text``; ``key`` names it in errors."""
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    try:
        return [conv(p) for p in parts]
    except ValueError:
        kind = "an integer" if conv is int else "numeric"
        raise ValidationError(f"{key} must be {kind}, got {text!r}") from None


def _floats(text: str, key: str) -> object:
    """A scalar or a per-step list of floats."""
    vals = _numbers(text, key)
    if not vals:
        raise ValidationError(f"empty numeric value for {key}: {text!r}")
    return vals[0] if len(vals) == 1 else np.array(vals)


def _scalar(text: str, key: str, conv=float):
    vals = _numbers(text, key, conv)
    if len(vals) != 1:
        raise ValidationError(f"{key} must be a single value, got {text!r}")
    return vals[0]


def _require(section: dict, key: str, section_name: str) -> str:
    if key not in section:
        raise ValidationError(f"missing key '{key}' in [{section_name}]")
    return section[key]


# An inline comment: ';' or '#' with whitespace before it.
_INLINE_COMMENT = re.compile(r"\s[;#]")


def _malformed(path: str, n: int, what: str) -> ValidationError:
    return ValidationError(f"malformed config: {path} line {n}: {what}")


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of the config at ``path`` (format in the
    module docstring), read in one pass over its lines."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"config {path} is not UTF-8: byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start}"
        ) from None

    sections: dict[str, dict[str, list[str]]] = {}
    section = None  # the current section's {key: value lines}
    lines = None  # the value lines of the current section's latest key
    indent = 0  # indentation of the latest header or key line
    for n, line in enumerate(text.split("\n"), 1):
        body = line.strip()
        if not body:
            if lines is not None:
                lines.append("")  # kept inside a continued value, dropped at its end
            continue
        if body[0] in ";#":
            continue
        if ";" in body or "#" in body:
            comment = _INLINE_COMMENT.search(body)
            if comment is not None:
                body = body[: comment.start()].rstrip()
        lead = len(line) - len(line.lstrip())
        deeper = lead > indent
        if deeper and lines is not None:
            lines.append(body)
            continue
        indent = lead
        close = body.rfind("]")
        if body[0] == "[" and close > 1:
            sec = body[1:close]
            if sec in sections:
                raise _malformed(path, n, f"duplicate section [{sec}]")
            section = sections[sec] = {}
            lines = None
            continue
        if section is None:
            raise _malformed(path, n, f"{body!r} comes before any [section] header")
        eq, colon = body.find("="), body.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon
        if cut < 0:
            if deeper:
                raise _malformed(path, n, f"continuation {body!r} has no key before it")
            raise _malformed(path, n, f"expected key = value or key: value, got {body!r}")
        key = body[:cut].rstrip().lower()
        if not key:
            raise _malformed(path, n, f"no key before {body[cut]!r}")
        if key in section:
            raise _malformed(path, n, f"duplicate key '{key}' in [{sec}]")
        lines = section[key] = [body[cut + 1 :].lstrip()]
    return {
        sec: {key: "\n".join(val).rstrip() for key, val in keys.items()}
        for sec, keys in sections.items()
    }


def parse_config(path: str, overrides: Optional[dict] = None) -> ExperimentSpec:
    """Parse and validate a config file, applying ``{section.key: value}`` overrides."""
    cfg = _read_ini(path)
    for sec_key, value in (overrides or {}).items():
        if "." not in sec_key:
            raise ValidationError(f"override {sec_key!r} must look like section.key")
        sec, key = sec_key.split(".", 1)
        cfg.setdefault(sec, {})[key.strip().lower()] = value

    known = {"schedule", "measurement", "experiment", "sweep"}
    for sec in cfg:
        if sec not in known:
            raise ValidationError(f"unknown config section [{sec}]")
    for sec, keys in (
        ("schedule", _SCHEDULE_KEYS),
        ("measurement", _MEASUREMENT_KEYS),
        ("experiment", _EXPERIMENT_KEYS),
        ("sweep", _SWEEP_KEYS),
    ):
        for key in cfg.get(sec, ()):
            if key not in keys:
                raise ValidationError(f"unknown key '{key}' in [{sec}]")

    if "schedule" not in cfg:
        raise ValidationError("missing [schedule] section")
    if "experiment" not in cfg:
        raise ValidationError("missing [experiment] section")
    sched_sec = cfg["schedule"]
    exp = cfg["experiment"]

    schedule = SystemSchedule(
        T=_scalar(_require(sched_sec, "t", "schedule"), "schedule.T", int),
        a=_floats(_require(sched_sec, "a", "schedule"), "schedule.a"),
        b=_floats(_require(sched_sec, "b", "schedule"), "schedule.b"),
        P=_floats(_require(sched_sec, "p", "schedule"), "schedule.P"),
        N=_floats(_require(sched_sec, "n", "schedule"), "schedule.N"),
        N_f=_floats(_require(sched_sec, "n_f", "schedule"), "schedule.N_f"),
        V_xx0=_scalar(_require(sched_sec, "v_xx0", "schedule"), "schedule.V_xx0"),
    )

    entries = None
    if "measurement" in cfg:
        msec = cfg["measurement"]
        entries = dict(
            c=_scalar(_require(msec, "c", "measurement"), "measurement.c"),
            d=_scalar(_require(msec, "d", "measurement"), "measurement.d"),
            V_ww=_floats(msec.get("v_ww", "1.0"), "measurement.V_ww"),
            V_wv=_floats(msec.get("v_wv", "0.0"), "measurement.V_wv"),
            V_vv=_floats(msec.get("v_vv", "0.0"), "measurement.V_vv"),
        )

    mode = _require(exp, "mode", "experiment").strip().lower()
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    regime_name = _require(exp, "regime", "experiment").strip().lower()
    try:
        regime = RegimeKind(regime_name)
    except ValueError:
        names = ", ".join(k.value for k in RegimeKind)
        raise ValidationError(f"regime must be one of: {names}; got {regime_name!r}")
    output = _require(exp, "output", "experiment").strip()
    form = exp.get("form", "proof").strip().lower()
    if form not in SIGBAR_FORMS:
        raise ValidationError(f"form must be one of {SIGBAR_FORMS}, got {form!r}")

    mc = None
    if mode == "simulate":
        mc = McConfig(
            trials=_scalar(_require(exp, "trials", "experiment"), "experiment.trials", int),
            seed=_scalar(_require(exp, "seed", "experiment"), "experiment.seed", int),
        )

    separation = regime is RegimeKind.SEPARATION_OUTPUT_FEEDBACK
    if separation and entries is None:
        raise ValidationError("separation regime requires a [measurement] section")

    sweep = None
    if "sweep" in cfg:
        sweep = _numbers(cfg["sweep"].get("n_f", ""), "sweep.N_f")
        for nf in sweep:
            if not nf >= 0.0:
                raise ValidationError(f"sweep.N_f values must be >= 0 (may be inf), got {nf!r}")

    return ExperimentSpec(
        schedule=schedule,
        mode=mode,
        regime=regime,
        output=output,
        # Only the separation regime reads the model, so only it builds one.
        measurement=MeasurementModel(**entries) if separation else None,
        mc=mc,
        form=form,
        sweep_N_f=sweep,
    )


def _summary(spec: ExperimentSpec):
    """The Monte Carlo summary of a simulate spec."""
    from .simulate import monte_carlo

    return monte_carlo(
        spec.schedule, spec.regime, spec.mc, measurement=spec.measurement, form=spec.form
    )


def _stationarity_check(regime: RegimeKind):
    from .schemes import REGIMES

    check = REGIMES[regime].stationarity  # None for separation, the one that reads a model
    if check is None:
        raise ValidationError(f"stationarity mode does not support regime {regime.value}")
    return check


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def run(spec: ExperimentSpec) -> int:
    """Run the configured mode, write its artifact, return the exit code."""
    from .schemes import REGIMES, check_regime_consistency

    code = EXIT_OK
    if spec.mode == "predict":
        regime, m = check_regime_consistency(spec.schedule, spec.regime, spec.measurement)
        pred = regime.predict(spec.schedule, m, spec.form)[0]
        text = csv_table("t,pred_sigma2,pred_vbar,pred_mse", (pred.sigma2, pred.vbar, pred.mse))
    elif spec.mode == "simulate":
        text = _summary(spec).to_csv()
    elif spec.mode == "oracle":
        from .simulate import exact_conditioning_oracle

        res = exact_conditioning_oracle(spec.schedule, spec.regime, measurement=spec.measurement)
        # the oracle checked the pairing
        pred = REGIMES[spec.regime].predict(spec.schedule, spec.measurement, spec.form)[0]
        columns = (res.mse, res.scheme_mse, pred.mse)
        text = csv_table("t,oracle_mse,scheme_mse,pred_mse", columns)
    else:
        import json

        check = _stationarity_check(spec.regime)
        check_regime_consistency(spec.schedule, spec.regime)
        report = check(spec.schedule, spec.form)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        code = EXIT_OK if report.bounded else EXIT_NOT_STATIONARY
    _write(spec.output, text)
    return code


def _sweep_csv(spec: ExperimentSpec) -> str:
    if not spec.sweep_N_f:
        raise ValidationError("empty N_f sweep")
    lines = ["N_f,bounded,sigma2,sigbar2,mse"]
    # A swept N_f may be 0, finite or +inf.  The noiseless check reads no
    # N_f, so that regime sweeps output feedback's, which reads all three.
    kind = spec.regime
    if kind is RegimeKind.NOISELESS_FEEDBACK:
        kind = RegimeKind.OUTPUT_FEEDBACK
    check = _stationarity_check(kind)
    for nf in spec.sweep_N_f:
        rep = check(replace(spec.schedule, N_f=nf), spec.form)
        if rep.fixed_point is None:
            cells = ["false", "nan", "nan", "nan"]
        else:
            cells = ["true", *map(format_float, (*rep.fixed_point, rep.mse))]
        lines.append(",".join([format_float(nf), *cells]))
    return "\n".join(lines) + "\n"


def compare(spec: ExperimentSpec) -> int:
    """Join prediction, Monte Carlo and (for T <= 12) oracle columns.

    With a [sweep] section, emits the stationary-mse sweep table instead.
    Appends '#'-prefixed max-deviation summary lines.
    """
    if spec.sweep_N_f is not None:
        _write(spec.output, _sweep_csv(spec))
        return EXIT_OK
    if spec.mode != "simulate":
        raise ValidationError("compare requires mode = simulate")
    from .simulate import CSV_HEADER, ORACLE_HORIZON_MAX, exact_conditioning_oracle

    summary = _summary(spec)
    oracle = None
    if spec.schedule.T <= ORACLE_HORIZON_MAX:
        oracle = exact_conditioning_oracle(
            spec.schedule, spec.regime, measurement=spec.measurement
        )
    header, columns = CSV_HEADER, summary.csv_columns()
    footer = [
        "# max_abs_delta_mse = %s, max_se_ratio = %s"
        % (
            format_float(float(np.max(np.abs(summary.delta_mse)))),
            format_float(summary.max_se_ratio()),
        )
    ]
    if oracle is not None:
        header += ",oracle_mse,scheme_mse"
        columns += (oracle.mse, oracle.scheme_mse)
        footer.append(
            "# max_abs_scheme_vs_pred = %s"
            % format_float(float(np.max(np.abs(oracle.scheme_mse - summary.pred.mse))))
        )
    _write(spec.output, csv_table(header, columns, footer))
    return EXIT_OK


#: The flags that override an [experiment] key of the same name.
_FLAG_KEYS = ("output", "seed", "trials")


@functools.cache
def _parser():
    """The ``statecast`` ``argparse.ArgumentParser``, built on first use and
    reused by every call.

    Reuse is safe: parsing leaves the parser unchanged, and argparse copies
    the ``--set`` default list before appending to it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="statecast",
        description="Run channel-communication experiments from a config file.",
    )
    parser.add_argument(
        "command",
        choices=("run", "compare"),
        help="run: run the configured mode and write its artifact; "
        "compare: join prediction, Monte Carlo and oracle columns",
    )
    parser.add_argument("config", help="path to the experiment config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable)",
    )
    # Parsed by parse_config, so a bad value gets its one-line error.
    for key in _FLAG_KEYS:
        parser.add_argument(f"--{key}", help=f"override [experiment] {key}")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects SECTION.KEY=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_VALIDATION
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in _FLAG_KEYS:
        if getattr(args, key) is not None:
            overrides[f"experiment.{key}"] = getattr(args, key)

    try:
        spec = parse_config(args.config, overrides)
        return run(spec) if args.command == "run" else compare(spec)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
