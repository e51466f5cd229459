import importlib
import re
from pathlib import Path

import pytest

SUBMODULES = ("model", "recursions", "schemes", "simulate", "stationarity", "cli")
README = Path(__file__).resolve().parent.parent / "README.md"
# A backticked Python name such as `predict_output_fb`; `y_f = y` and
# `statecast run` are expressions and commands, not names.
_NAME = re.compile(r"`([A-Za-z_]\w*)`")


@pytest.mark.parametrize("name", ("statecast",) + tuple(f"statecast.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def _table(heading: str) -> list:
    """Cells of the table under the README's ``## heading``, header row first."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line.strip() for line in section.splitlines() if line.startswith("|")]
    del rows[1]  # the | --- | separator
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_tables_name_only_existing_objects():
    missing = []
    for module, contents in _table("Layout")[1:]:
        mod = importlib.import_module(module.strip("`"))
        missing += [f"{mod.__name__}.{n}" for n in _NAME.findall(contents) if not hasattr(mod, n)]
    header, *rows = _table("Regimes")
    schemes = importlib.import_module("statecast.schemes")
    recursions = importlib.import_module("statecast.recursions")
    missing += [f"schemes.{n}" for n in _NAME.findall(header[0]) if not hasattr(schemes, n)]
    for kind, _feedback, predictor in rows:
        missing += [f"RegimeKind.{n}" for n in _NAME.findall(kind) if not hasattr(schemes.RegimeKind, n)]
        missing += [f"recursions.{n}" for n in _NAME.findall(predictor) if not hasattr(recursions, n)]
    assert len(rows) == len(schemes.RegimeKind)
    assert not missing, f"README names objects the package lacks: {missing}"
