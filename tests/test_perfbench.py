import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_every_benchmark_check_catches_its_perturbed_output():
    # runs each workload once and requires each output check to pass on
    # it and to fail on a perturbed copy
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
