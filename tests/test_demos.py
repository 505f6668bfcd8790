"""The demos run to completion: they are the README's worked examples."""

import os
import subprocess
import sys

import pytest

import kerrpqd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("negativity_curves.py", ["--workers", "1"]),
        ("noise_thresholds.py", []),
        ("click_sampler.py", ["--samples", "2000"]),
    ],
)
def test_demo_runs(script, args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kerrpqd.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    path = os.path.join(ROOT, "demos", script)
    proc = subprocess.run([sys.executable, path, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
