"""The benchmark harness's own check runs clean: one small scenario per
workload, traced and untraced, its seeded inputs, and the per-scenario
timeout, which must end perfbench's UNBOUNDED input inside 2 s. And every
report the benchmark runs besides the corpus files, which test_cli checks,
matches its golden digest and exit code."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from treeclose.cli import main

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


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
POOL = json.loads(WORKLOADS.POOL_FILE.read_text(encoding="utf-8"))

# name -> (scenario as the benchmark writes it, exit code its workload expects)
NON_CORPUS = {
    **{name: ({"schema": WORKLOADS.SCENARIO_SCHEMA, **body}, code)
       for name, (body, code) in WORKLOADS.STRESS.items()},
    **{entry["name"]: (WORKLOADS.legality_scenario(POOL, entry),
                       0 if entry["kind"] == "element" else 10)
       for entry in POOL["entries"]},
}


def test_goldens_cover_the_stress_scenarios_and_the_pool():
    assert len(WORKLOADS.STRESS) == 9 and len(POOL["entries"]) == 48
    assert set(NON_CORPUS) == {name for name in GOLDEN if not name.endswith(".json")}


@pytest.mark.parametrize("name", sorted(NON_CORPUS))
def test_benchmark_report_matches_its_golden(name, capsys, tmp_path):
    scenario, expected = NON_CORPUS[name]
    path = tmp_path / f"{name}.json"
    WORKLOADS.write_scenario(path, scenario)
    code = main(["run", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == expected == GOLDEN[name]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name]["sha256"]
