"""The quick demos run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# each demo runs from an empty directory: it finds its scenarios next to
# itself, and whatever it writes (battery_trajectories.py's PNG, when
# matplotlib is present) stays out of the checkout
@pytest.mark.parametrize(
    "demo", ["placement_search.py", "power_allocation.py", "pd_battery.py", "battery_trajectories.py"]
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
