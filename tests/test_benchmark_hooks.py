"""The benchmark's tracer wraps package functions and methods by name, so a
renamed or deleted name breaks it; this keeps such a change from passing."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", "from layers import Tracer; Tracer().install()"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
