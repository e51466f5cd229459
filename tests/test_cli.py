import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from statecast import cli
from statecast.cli import (
    EXIT_NOT_STATIONARY,
    EXIT_VALIDATION,
    compare,
    main,
    parse_config,
    run,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

BASE = """
[schedule]
T = {T}
a = {a}
b = 1.0
P = {P}
N = {N}
N_f = {N_f}
V_xx0 = 1.0

[experiment]
mode = {mode}
regime = {regime}
output = {output}
{extra}
"""


def write_cfg(tmp_path, name="exp.ini", **kw):
    kw.setdefault("T", 50)
    kw.setdefault("a", 0.5)
    kw.setdefault("P", 1.0)
    kw.setdefault("N", 1.0)
    kw.setdefault("N_f", 0)
    kw.setdefault("mode", "predict")
    kw.setdefault("regime", "noiseless_feedback")
    kw.setdefault("output", str(tmp_path / "out.csv"))
    kw.setdefault("extra", "")
    path = tmp_path / name
    path.write_text(BASE.format(**kw))
    return path


def read_csv(path):
    lines = [l for l in Path(path).read_text().strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return header, data


def test_predict_mode_reaches_noiseless_fixed_point(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    header, data = read_csv(tmp_path / "out.csv")
    assert header == ["t", "pred_sigma2", "pred_vbar", "pred_mse"]
    assert abs(data[-1, 1] - 8.0 / 7.0) < 1e-6


def test_stationarity_mode_unbounded_reports_and_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, T=2, a=2.0, P=3.0, mode="stationarity", output=str(tmp_path / "r.json")
    )
    assert main(["run", str(cfg)]) == EXIT_NOT_STATIONARY
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["bounded"] is False
    assert report["capacity"] == 1.0


def test_stationarity_mode_bounded_exits_0(tmp_path):
    cfg = write_cfg(
        tmp_path, T=2, a=0.9, N_f=0.1, regime="output_feedback",
        mode="stationarity", output=str(tmp_path / "r.json"),
    )
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["bounded"] is True
    assert report["fixed_point"]["sigma2"] > 0


def test_missing_key_names_it(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[schedule]\nT = 2\na = 1\nb = 1\nP = 1\nN_f = 0\nV_xx0 = 0\n"
        "[experiment]\nmode = predict\nregime = noiseless_feedback\noutput = x.csv\n"
    )
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "'n'" in capsys.readouterr().err


def test_unknown_key_and_section_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra="bogus = 1")
    assert main(["run", str(cfg)]) == EXIT_VALIDATION
    assert "bogus" in capsys.readouterr().err
    path = tmp_path / "sec.ini"
    path.write_text(write_cfg(tmp_path).read_text() + "\n[mystery]\nx = 1\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION


def test_bad_regime_and_mode_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, regime="telepathy")
    assert main(["run", str(cfg)]) == EXIT_VALIDATION
    cfg2 = write_cfg(tmp_path, name="m.ini", mode="dance")
    assert main(["run", str(cfg2)]) == EXIT_VALIDATION


def test_bad_form_is_rejected_naming_the_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra="form = bogus")
    assert main(["run", str(cfg)]) == EXIT_VALIDATION == 2
    assert capsys.readouterr().err == "error: form must be one of ('proof', 'stated'), got 'bogus'\n"


@pytest.mark.parametrize(
    "override",
    [
        "schedule.a=abc",
        "schedule.a=0.5%",
        "schedule.t=2.5",
        "schedule.v_xx0=1,2",
        "experiment.trials=1.5",
        "experiment.seed=seven",
        "measurement.c=x",
        "sweep.n_f=x,1",
        "--seed=abc",
        "--trials=x",
    ],
)
def test_unparsable_number_is_one_line_validation_error(tmp_path, capsys, override):
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    out = str(tmp_path / "out.csv")
    flags = [override] if override.startswith("--") else ["--set", override]
    assert main(["compare", ini, *flags, "--output", out]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert override.split("=")[0].replace("--", "experiment.") in err.lower()


def test_unreadable_config_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1


def test_unwritable_output_is_io_error(tmp_path):
    cfg = write_cfg(tmp_path, output=str(tmp_path / "no_dir" / "out.csv"))
    assert main(["run", str(cfg)]) == 1


def test_overrides_take_precedence(tmp_path):
    cfg = write_cfg(tmp_path)
    out2 = tmp_path / "other.csv"
    assert main(["run", str(cfg), "--set", "schedule.t=5", "--output", str(out2)]) == 0
    _, data = read_csv(out2)
    assert data.shape[0] == 5


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_cfg(
        tmp_path, T=12, mode="simulate",
        extra="trials = 2000\nseed = 77",
    )
    out = tmp_path / "out.csv"
    assert main(["run", str(cfg)]) == 0
    first = out.read_bytes()
    assert main(["run", str(cfg)]) == 0
    assert out.read_bytes() == first


def test_oracle_mode(tmp_path):
    cfg = write_cfg(
        tmp_path, T=6, a=0.9, N_f=0.1, regime="output_feedback", mode="oracle"
    )
    assert main(["run", str(cfg)]) == 0
    header, data = read_csv(tmp_path / "out.csv")
    assert header == ["t", "oracle_mse", "scheme_mse", "pred_mse"]
    assert np.max(np.abs(data[:, 2] - data[:, 3])) < 1e-10
    cfg_big = write_cfg(tmp_path, name="big.ini", T=13, mode="oracle")
    assert main(["run", str(cfg_big)]) == EXIT_VALIDATION


def test_compare_requires_simulate_mode(tmp_path):
    cfg = write_cfg(tmp_path, mode="predict")
    assert main(["compare", str(cfg)]) == EXIT_VALIDATION


def test_compare_joins_oracle_columns_with_summary(tmp_path):
    cfg = write_cfg(
        tmp_path, T=8, a=0.9, N_f=0.1, regime="output_feedback", mode="simulate",
        extra="trials = 2000\nseed = 5",
    )
    assert main(["compare", str(cfg)]) == 0
    text = (tmp_path / "out.csv").read_text()
    assert text.splitlines()[0].endswith(",oracle_mse,scheme_mse")
    assert any(line.startswith("# max_abs_delta_mse") for line in text.splitlines())
    header, data = read_csv(tmp_path / "out.csv")
    # realized-scheme exact error equals prediction in the joined table
    assert np.max(np.abs(data[:, 8] - data[:, 3])) < 1e-10


def test_compare_sweep_monotone_and_empty_rejected(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, T=2, a=0.9, N_f=0.1, regime="output_feedback", mode="simulate",
        extra="trials = 10\nseed = 1\n\n[sweep]\nN_f = 0, 0.1, 1, inf",
    )
    assert main(["compare", str(cfg)]) == 0
    lines = (tmp_path / "out.csv").read_text().strip().split("\n")
    assert lines[0] == "N_f,bounded,sigma2,sigbar2,mse"
    rows = [l.split(",") for l in lines[1:]]
    assert all(r[1] == "true" for r in rows)
    mse = np.array([float(r[4]) for r in rows])
    assert np.all(np.diff(mse) >= -1e-12)  # nondecreasing in N_f
    cfg_empty = write_cfg(
        tmp_path, name="empty.ini", T=2, a=0.9, N_f=0.1, regime="output_feedback",
        mode="simulate", extra="trials = 10\nseed = 1\n\n[sweep]\nN_f =",
    )
    assert main(["compare", str(cfg_empty)]) == EXIT_VALIDATION


def test_compare_sweep_rejects_the_separation_regime(tmp_path, capsys):
    # no stationarity check covers the pre-filtered chain, so the sweep must
    # not stand in the raw plant's output-feedback check for it
    cfg = write_cfg(
        tmp_path, T=2, a=0.9, N_f=0.5, regime="separation_output_feedback", mode="simulate",
        extra="trials = 10\nseed = 1\n\n[measurement]\nc = 1\nd = 1\nV_vv = 2\n\n"
        "[sweep]\nN_f = 0.5",
    )
    assert main(["compare", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: stationarity mode does not support regime separation_output_feedback\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("entry, message", [("V_ww = nan", "V_ww(0)"), ("V_ww = inf\nV_vv = 1", "V_ww(0)"),
                                            ("V_wv = nan\nV_vv = 1", "V_wv(0)"), ("V_vv = nan", "V_vv(0)")])
def test_non_finite_measurement_entry_is_one_line_error(tmp_path, capsys, entry, message):
    # named where it was set, not as the filtered-estimate chain's b(0)
    cfg = write_cfg(
        tmp_path, T=4, a=0.9, N_f=0.5, regime="separation_output_feedback", mode="simulate",
        extra=f"trials = 10\nseed = 1\n\n[measurement]\nc = 1\nd = 1\n{entry}\n",
    )
    assert main(["run", str(cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message} must be finite\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value, shown", [("-0.5", "-0.5"), ("nan", "nan")])
def test_compare_sweep_rejects_a_bad_N_f_naming_the_sweep(tmp_path, capsys, value, shown):
    cfg = write_cfg(
        tmp_path, T=2, a=0.9, N_f=0.1, regime="output_feedback", mode="simulate",
        extra=f"trials = 10\nseed = 1\n\n[sweep]\nN_f = 0, {value}, 1",
    )
    assert main(["compare", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "sweep.N_f" in err and f"got {shown}" in err


def test_residual_form_key_selects_recursion_variant(tmp_path):
    base = dict(
        T=12, a=0.9, N_f=0.5, regime="state_estimate_feedback", mode="predict"
    )
    cfg_proof = write_cfg(tmp_path, name="p.ini", output=str(tmp_path / "p.csv"), **base)
    cfg_stated = write_cfg(
        tmp_path, name="s.ini", output=str(tmp_path / "s.csv"),
        extra="form = stated", **base,
    )
    assert main(["run", str(cfg_proof)]) == 0
    assert main(["run", str(cfg_stated)]) == 0
    _, proof = read_csv(tmp_path / "p.csv")
    _, stated = read_csv(tmp_path / "s.csv")
    assert np.max(np.abs(proof[:, 3] - stated[:, 3])) > 1e-3
    cfg_bad = write_cfg(tmp_path, name="b.ini", extra="form = wild", **base)
    assert main(["run", str(cfg_bad)]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("entries", ["V_vv = -1", "V_ww = 1\nV_wv = 2\nV_vv = 1"])
def test_measurement_section_is_ignored_outside_separation(tmp_path, command, entries):
    # values the model would reject are never built into one outside the
    # separation regime, so the artifact is the one without the section
    plain = GOLDEN_DIR / "output_fb_compare.ini"
    with_section = tmp_path / "m.ini"
    with_section.write_text(plain.read_text() + f"\n[measurement]\nc = 1\nd = 1\n{entries}\n")
    artifacts = []
    for ini in (plain, with_section):
        out = tmp_path / f"{len(artifacts)}.csv"
        assert main([command, str(ini), "--trials", "500", "--output", str(out)]) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_zero_trials_is_one_line_validation_error(tmp_path, capsys, command):
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    out = tmp_path / "out.csv"
    assert main([command, ini, "--trials", "0", "--output", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "seed", ["18446744073709551617", "-18446744073709551615", "18446744073709551616", "-1"]
)
def test_seed_outside_64_bits_is_one_line_validation_error(tmp_path, capsys, seed):
    # the noise is keyed by a 64-bit word, so such a seed would alias another
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    out = tmp_path / "out.csv"
    assert main(["run", ini, "--seed", seed, "--output", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_allocation_failure_is_one_line_io_error(tmp_path, capsys, command):
    # a schedule of 2**59 steps needs 4 EiB per row, past any 64-bit address
    # space, so its allocation fails before any memory is touched
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    out = tmp_path / "out.csv"
    argv = [command, ini, "--set", f"schedule.T={2**59}", "--output", str(out)]
    assert main(argv) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4.00 EiB" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_bare_memory_error_still_names_the_failure(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("statecast.simulate.monte_carlo", out_of_memory)
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    assert main(["run", ini, "--output", str(tmp_path / "out.csv")]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: out of memory\n"


def test_regime_schedule_mismatch_is_validation_error(tmp_path):
    cfg = write_cfg(tmp_path, T=6, N_f=0.5, regime="no_feedback")
    assert main(["run", str(cfg)]) == EXIT_VALIDATION


def test_parse_config_roundtrip_values(tmp_path):
    cfg = write_cfg(tmp_path, N_f="0.1, 0.2, 0.3", T=3)
    spec = parse_config(str(cfg))
    assert np.allclose(spec.schedule.N_f, [0.1, 0.2, 0.3])
    assert spec.schedule.T == 3


def test_console_script_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, T=10, output=str(tmp_path / "cli_out.csv"))
    proc = subprocess.run(
        [sys.executable, "-m", "statecast.cli", "run", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out.csv").exists()


@pytest.mark.parametrize(
    "ini,artifact,command",
    [
        ("noiseless_sim.ini", "noiseless_sim.csv", "run"),
        ("output_fb_compare.ini", "output_fb_compare.csv", "compare"),
        ("state_estimate_sim.ini", "state_estimate_sim.csv", "run"),
    ],
)
def test_golden_artifacts(tmp_path, ini, artifact, command):
    # pinned after cross-checking the empirical columns against the exact
    # conditioning oracle (within 4 standard errors at every step)
    out = tmp_path / artifact
    code = main([command, str(GOLDEN_DIR / ini), "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / artifact).read_bytes()


@pytest.mark.parametrize("where", ["--output", "--set", "config"])
def test_percent_in_a_value_is_literal(tmp_path, where):
    out = tmp_path / "o%.csv"
    ini = tmp_path / "pct.ini"
    text = (GOLDEN_DIR / "noiseless_sim.ini").read_text()
    flags = []
    if where == "--output":
        flags = ["--output", str(out)]
    elif where == "--set":
        flags = ["--set", f"experiment.output={out}"]
    else:
        text = text.replace("output = noiseless_sim.csv", f"output = {out}")
    ini.write_text(text)
    assert main(["run", str(ini), *flags]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "noiseless_sim.csv").read_bytes()


def test_config_that_is_not_utf8_is_one_line_validation_error(tmp_path, capsys):
    path = tmp_path / "latin.ini"
    path.write_bytes(write_cfg(tmp_path).read_bytes().replace(b"b = 1.0", b"b = 1.0 \xff"))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err and "UTF-8" in err


def test_compare_with_one_trial_warns_nothing(tmp_path):
    out = tmp_path / "one.csv"
    ini = str(GOLDEN_DIR / "output_fb_compare.ini")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", ini, "--trials", "1", "--output", str(out)]) == 0
    assert "max_se_ratio = nan" in out.read_text()


def test_parser_reuse_keeps_no_state_between_calls(tmp_path):
    ini = str(GOLDEN_DIR / "noiseless_sim.ini")
    golden = (GOLDEN_DIR / "noiseless_sim.csv").read_bytes()
    first = tmp_path / "first.csv"
    args = ["--set", "schedule.T=3", "--seed", "9", "--output", str(first)]
    assert main(["run", ini, *args]) == 0
    _, data = read_csv(first)
    assert data.shape[0] == 3
    out = tmp_path / "second.csv"
    assert main(["run", ini, "--output", str(out)]) == 0
    assert out.read_bytes() == golden
    assert cli._parser() is cli._parser()


def test_usage_error_between_calls_leaves_the_parser_usable(tmp_path, capsys):
    ini = str(GOLDEN_DIR / "noiseless_sim.ini")
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == EXIT_VALIDATION
    assert "required: config" in capsys.readouterr().err
    out = tmp_path / "after.csv"
    assert main(["run", ini, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "noiseless_sim.csv").read_bytes()


def test_import_builds_no_parser():
    code = "import statecast.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "0"


def test_import_leaves_configparser_out():
    code = "import sys, statecast.cli; print('configparser' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


_COLD_START_PROBE = """
import sys
import statecast
from statecast import cli
sim_ini, stat_ini, out = sys.argv[1:]
cli.parse_config(sim_ini)
parsed = sorted(sys.modules)
code = cli.main(["run", stat_ini, "--output", out])
loaded = sorted(sys.modules)
import json
print(json.dumps({"parsed": parsed, "stationarity": loaded, "code": code}))
"""
# Modules a config parse does not need: the package's other modules, numpy's
# sampler, and the CLI's argument and JSON handling.
_NOT_FOR_PARSING = (
    "statecast.simulate", "statecast.schemes", "statecast.recursions",
    "statecast.stationarity", "numpy.random", "argparse", "json",
)


def test_parsing_and_stationarity_mode_load_only_what_they_run(tmp_path):
    stat_ini = write_cfg(tmp_path, T=2, a=0.9, N_f=0.1, regime="output_feedback",
                         mode="stationarity", output=str(tmp_path / "r.json"))
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE, str(GOLDEN_DIR / "noiseless_sim.ini"),
         str(stat_ini), str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0 and (tmp_path / "r.json").exists()
    assert [m for m in _NOT_FOR_PARSING if m in probe["parsed"]] == []
    assert [m for m in ("statecast.simulate", "numpy.random") if m in probe["stationarity"]] == []


_HEAD = "[schedule]\nT = 2\na = 0.5\nb = 1\nP = 1\nN = 1\nN_f = 0\nV_xx0 = 1\n"


@pytest.mark.parametrize(
    "text,line",
    [
        ("; a comment\nT = 2\n" + _HEAD, 2),  # a line before any header
        (_HEAD + "N_f\n", 9),  # no '=' or ':'
        (_HEAD + "= 3\n", 9),  # no key before the delimiter
        (_HEAD + "n_F = 1\n", 9),  # duplicate key (keys are lower-cased)
        (_HEAD + "[experiment]\nmode = predict\n\n[schedule]\n", 12),  # duplicate section
        ("[schedule]\n    0.5, 0.6\n", 2),  # continuation with no key before it
    ],
    ids=["before_header", "no_delimiter", "no_key", "duplicate_key", "duplicate_section",
         "continuation_without_key"],
)
def test_malformed_config_is_one_line_error_naming_the_line(tmp_path, capsys, text, line):
    path = tmp_path / "bad.ini"
    path.write_text(text + "[experiment]\nmode = predict\nregime = noiseless_feedback\n")
    assert main(["run", str(path), "--output", str(tmp_path / "o.csv")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: malformed config: {path} line {line}: ")


@pytest.mark.parametrize("source", ["config", "--set"])
def test_default_section_is_unknown(tmp_path, capsys, source):
    # [DEFAULT] has no special meaning: the same message from either source
    golden = (GOLDEN_DIR / "noiseless_sim.ini").read_text(encoding="utf-8")
    ini, extra = tmp_path / "c.ini", []
    if source == "config":
        ini.write_text("[DEFAULT]\nT = 3\n" + golden, encoding="utf-8")
    else:
        ini.write_text(golden, encoding="utf-8")
        extra = ["--set", "DEFAULT.t=3"]
    assert main(["run", str(ini), *extra, "--output", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"


# Configs in the format the README documents, each valid for parse_config.
_CORPUS = {
    "colon_and_comments": (
        "# full-line hash comment\n"
        "; full-line semicolon comment\n"
        "[schedule]\n"
        "T: 3\n"
        "a = 0.5,\n"
        "    0.6,\n"
        "    0.7   ; inline comment after a continuation line\n"
        "B = 1.0   # inline hash comment\n"
        "P:1.0\n"
        "N   =   2.0\n"
        "N_F = 0.1, 0.2,\n"
        "\n"
        "      0.3\n"
        "V_xx0 = 1.0\n"
        "\n"
        "\n"
        "[experiment]\n"
        "MODE = simulate\n"
        "Regime: output_feedback\n"
        "output: a=b;c%1.csv\n"
        "trials = 10\n"
        "seed = 4\n"
        "  ; an indented comment line\n"
    ),
    "windows_path_and_percent": (
        "[experiment]\n"
        "output = C:\\runs\\x%d.csv\n"
        "mode = predict\n"
        "regime = noiseless_feedback\n"
        "form = stated  # form of the residual recursion\n"
        "[schedule]\n"
        "T = 4\na = 0.5\nb = 1\nP = 1\nN = 1\nN_f = 0\nV_xx0 = 0.5\n"
    ),
    "measurement_and_sweep": (
        "[schedule]\n"
        "  T = 2\n"
        "  a = 0.9\n  b = 1\n  P = 1\n  N = 1\n  N_f = 0.1\n  V_xx0 = 1\n"
        "[measurement]\n"
        "c = 1.0\nd = 0.5\nV_ww = 1.0, 1.1,\n  1.2\nv_wv: 0\n"
        "[experiment]\n"
        "mode = simulate\nregime = separation_output_feedback\noutput = o.csv\n"
        "trials = 5\nseed = 9\n"
        "[sweep]\n"
        "N_f = 0,\n\t0.1,\n\t1, inf\n"
    ),
}


def _corpus():
    for name in ("noiseless_sim", "output_fb_compare", "state_estimate_sim"):
        yield name, (GOLDEN_DIR / f"{name}.ini").read_text()
    for name, text in _CORPUS.items():
        yield name, text
        yield name + "_crlf", text.replace("\n", "\r\n")


def _configparser_dict(path):
    import configparser

    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return {s: dict(cp.items(s, raw=True)) for s in cp.sections()}


def _spec_fields(spec):
    def plain(obj):
        return {k: np.asarray(v).tolist() for k, v in vars(obj).items()}

    fields = dict(vars(spec))
    fields["schedule"] = plain(spec.schedule)
    if spec.measurement is not None:
        fields["measurement"] = plain(spec.measurement)
    return fields


@pytest.mark.parametrize("name", [name for name, _ in _corpus()])
def test_reader_matches_configparser(tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.ini"
    path.write_bytes(dict(_corpus())[name].encode())
    assert cli._read_ini(str(path)) == _configparser_dict(path)
    spec = parse_config(str(path))
    monkeypatch.setattr(cli, "_read_ini", _configparser_dict)
    assert _spec_fields(spec) == _spec_fields(parse_config(str(path)))


@pytest.mark.parametrize(
    "regime,N_f,step",
    [("noiseless_feedback", "0", 181), ("state_estimate_feedback", "0.5", 85)],
)
def test_overflowing_prediction_is_one_line_error(tmp_path, capsys, regime, N_f, step):
    cfg = write_cfg(tmp_path, T=400, a=10.0, N_f=N_f, regime=regime)
    for mode in ("predict", "simulate"):
        flags = ["--set", f"experiment.mode={mode}", "--seed", "1", "--trials", "3"]
        assert main(["run", str(cfg), *flags]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"predicted mse at step {step} is not finite" in err
