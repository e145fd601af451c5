"""The benchmark harness's own check runs clean: one small scenario per
workload, traced and untraced, its seeded inputs, and the per-scenario
timeout, which must end perfbench's UNBOUNDED input inside 2 s."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # UNBOUNDED, kclosure-compare of C(3,5) against the strip p=3, ends in
    # about 4 s, so a faster comparison would leave the timeout check
    # without an input that outlasts it
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "self-test passed"
