import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUBMODULES = ("model", "recursions", "schemes", "simulate", "stationarity", "cli")
README = Path(__file__).resolve().parent.parent / "README.md"
# A backticked Python name such as `predict_output_fb` or `schemes.REGIMES`;
# `y_f = y` and `statecast run` are expressions and commands, not names.
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


@pytest.mark.parametrize("name", ("statecast",) + tuple(f"statecast.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize(
    "module, name",
    [
        ("statecast", "NoiseStreams"),
        ("statecast.simulate", "NoiseStreams"),
        ("statecast.schemes", "ArrayRecorder"),
        ("statecast", "validate_measurement"),
        ("statecast.model", "validate_measurement"),
    ],
)
def test_test_only_surface_stays_out_of_the_package(module, name):
    # monte_carlo streams its rows through run_closed_loop's rows(t),
    # recorders that keep whole trajectories live with the tests, and a
    # measurement model checks itself when built
    assert not hasattr(importlib.import_module(module), name)


_LAZY_PROBE = """
import importlib, sys
import statecast
loaded = sorted(m for m in sys.modules if m.startswith("statecast"))
listed = sorted(set(statecast.__all__) - set(dir(statecast)))
lazy = {name: getattr(statecast, name) for name in statecast.__all__}
lazy_simulate = statecast.simulate
mods = {m: importlib.import_module(f"statecast.{m}") for m in %r}
# every module that holds a public name of any module holds one object under
# it, the one the package gives for its own names
names = set(lazy).union(*(mod.__all__ for mod in mods.values()))
differ = [f"{m}.{n}" for n in sorted(names) for m, mod in mods.items()
          if hasattr(mod, n) and getattr(mod, n) is not lazy.setdefault(n, getattr(mod, n))]
import json
print(json.dumps({"loaded": loaded, "listed": listed, "differ": differ,
                  "simulate": lazy_simulate is mods["simulate"]}))
""" % (SUBMODULES,)


def test_bare_import_loads_nothing_and_names_resolve_to_their_modules():
    env = dict(os.environ)
    src = str(Path(importlib.import_module("statecast").__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"loaded": ["statecast"], "listed": [], "differ": [], "simulate": True}


def _section(heading: str) -> str:
    """The README's text under ``## heading``, up to the next heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _table(heading: str) -> list:
    """Cells of the table under the README's ``## heading``, header row first."""
    section = _section(heading)
    rows = [line.strip() for line in section.splitlines() if line.startswith("|")]
    del rows[1]  # the | --- | separator
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def _missing(obj, text: str) -> list:
    """The backticked names in ``text`` that do not resolve: a dotted name
    whose first part is a package submodule resolves from the package, any
    other name from ``obj``."""
    package = importlib.import_module("statecast")
    missing = []
    for name in _NAME.findall(text):
        parts = name.split(".")
        found = package if len(parts) > 1 and parts[0] in SUBMODULES else obj
        for part in parts:
            if not hasattr(found, part):
                missing.append(f"{getattr(obj, '__name__', obj)}: {name}")
                break
            found = getattr(found, part)
    return missing


def test_readme_tables_name_only_existing_objects():
    missing = []
    for module, contents in _table("Layout")[1:]:
        missing += _missing(importlib.import_module(module.strip("`")), contents)
    header, *rows = _table("Regimes")
    schemes = importlib.import_module("statecast.schemes")
    recursions = importlib.import_module("statecast.recursions")
    missing += _missing(schemes, header[0])
    for kind, _feedback, predictor in rows:
        missing += _missing(schemes.RegimeKind, kind) + _missing(recursions, predictor)
    assert len(rows) == len(schemes.RegimeKind)
    assert not missing, f"README names objects the package lacks: {missing}"


def test_readme_quick_start_runs():
    block = _section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library quick start)", "exec"), {})
