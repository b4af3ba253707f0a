"""Every example runs to completion and prints its headline numbers.

Each ``examples/*.py`` runs in its own interpreter, as a reader would
run it (``python examples/NAME.py`` with ``src`` on the path); the test
asserts exit 0 and the lines that carry the example's result.  The
numbers are the analytic model's, so they are exact for a fixed seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: example -> lines its output must contain
HEADLINES = {
    "quickstart": (
        "projected speedup on K20X: 2.256x",
        "output verified bit-faithful: True",
    ),
    "seismic_fission": (
        "fusion only:      1.052x",
        "fission + fusion: 1.424x",
    ),
    "custom_objective": (
        "K20X (48 KB smem):        speedup 1.062x",
        "K20X-BIGSMEM (96 KB):     speedup 1.134x",
    ),
    "weather_model_guided": (
        "automated speedup: 1.553x",
        "guided speedup:    1.717x",
    ),
}


def test_every_example_has_a_headline():
    assert sorted(HEADLINES) == sorted(
        path.stem for path in (ROOT / "examples").glob("*.py")
    )


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_example_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for line in HEADLINES[name]:
        assert line in done.stdout, (line, done.stdout)
