"""The benchmark's span hooks name functions that exist.

perfbench/spans.py intercepts calls by replacing `module.attr` for each
entry of its HOOKS table. A refactor that renames or inlines a hooked
function would leave the traced benchmark without that span; this test
fails instead. spans.py is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _hooks()])
def test_hooked_name_is_a_callable(module, attr):
    mod = importlib.import_module(f"dronegrid.{module}")
    assert callable(getattr(mod, attr, None)), f"dronegrid.{module}.{attr}"
