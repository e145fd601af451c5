"""Time to verdict of treeclose scenarios, run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Closed loop, one client: the scenarios of a workload run one after
another, each in a fresh process that calls treeclose.cli.main exactly as
`python -m treeclose.cli run FILE --format json` does. A pass runs every
scenario once. The first pass always runs; another starts only if it
should end within --seconds of the first one's start.
With --trace 0 the end-to-end metrics are the medians over the passes.
With --trace 1 one untraced pass is followed by one traced pass, whose
per-layer totals are the per-layer metrics; their wall-time difference is
the tracing overhead. Every report is checked against its golden digest
and every exit code against its expected value; a mismatch, a crash or a
timeout fails the scenario. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN_FILE = HERE / "golden.json"
SCENARIO_TIMEOUT_S = 60.0
# a run ends well inside the 180 s its caller allows, even if scenarios hang
RUN_DEADLINE_S = 150.0


class Outcome:
    """One scenario process: its timings, memory and verdict check."""

    def __init__(self, name, wall_s, setup_s, rss_mb, error, record):
        self.name = name
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.rss_mb = rss_mb
        self.error = error
        self.record = record


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # fixed string hashing, so set iteration order is the same every run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_scenario(scenario, work, trace, timeout, golden, env):
    out_path = work / f"{scenario.name}.out"
    record_path = work / f"{scenario.name}.record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0",
           "run", str(scenario.path), "--format", "json"]
    timed_out = threading.Event()
    with open(out_path, "wb") as out, \
            open(work / f"{scenario.name}.err", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=env, start_new_session=True)

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # it ended as the timer fired
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if record_path.exists() and not timed_out.is_set():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    report = out_path.read_bytes()
    expected = golden.get(scenario.name)
    if timed_out.is_set():
        error = f"timed out after {timeout:.0f} s"
    elif expected is None:
        error = "no golden report recorded"
    elif proc.returncode != scenario.expected_exit:
        error = f"exit {proc.returncode}, expected {scenario.expected_exit}"
    elif expected["exit"] != scenario.expected_exit:
        error = f"golden exit {expected['exit']} disagrees with the expectation"
    elif hashlib.sha256(report).hexdigest() != expected["sha256"]:
        error = "report differs from the golden report"
    elif record is None:
        error = "the process left no record"
    else:
        error = None
    setup_s = None if record is None else record["imported_at"] - started
    return Outcome(scenario.name, ended - started, setup_s,
                   usage.ru_maxrss / 1024.0, error, record)


def run_pass(scenarios, work, trace, deadline, golden, env):
    started = time.monotonic()
    outcomes = []
    for scenario in scenarios:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            outcomes.append(Outcome(scenario.name, 0.0, None, 0.0,
                                    "not started: run deadline passed", None))
            continue
        outcomes.append(run_scenario(scenario, work, trace,
                                     min(SCENARIO_TIMEOUT_S, remaining),
                                     golden, env))
    return time.monotonic() - started, outcomes


def warm_up(env):
    """Compile treeclose's bytecode once, as an installed package would be."""
    subprocess.run([sys.executable, "-c", "import treeclose.cli"], cwd=ROOT,
                   env=env, check=True, stdout=subprocess.DEVNULL)


# --- metrics -------------------------------------------------------------------


def end_to_end(passes):
    """Medians over the passes of a run, by metric name, with units."""
    outcomes = [o for _, outs in passes for o in outs]
    setups = [o.setup_s for o in outcomes if o.setup_s is not None]
    failed = sum(1 for o in outcomes if o.error)
    return {
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        # no process got as far as the import: nothing to report
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "slowest_s": (statistics.median(
            max(o.wall_s for o in outs) for _, outs in passes), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        # not in BENCHMARK.json, which takes only metrics that are never 0
        "failed_share": (failed / len(outcomes), "share"),
    }


def layer_totals(outcomes):
    """Sum the per-process span totals of one traced pass."""
    calls, self_s, counts = {}, {}, {}
    import_s = []
    for o in outcomes:
        if o.record is None:
            continue
        import_s.append(o.record["import_s"])
        layers = o.record.get("layers", {})
        for target, part in ((calls, "calls"), (self_s, "self_s"),
                             (counts, "counts")):
            for key, value in layers.get(part, {}).items():
                target[key] = target.get(key, 0) + value
    return calls, self_s, counts, import_s


def per_layer(traced, untraced_wall_s):
    """Every per-layer number of the traced pass, by metric name."""
    wall_s, outcomes = traced
    calls, self_s, counts, import_s = layer_totals(outcomes)
    out = {}

    def add(name, value, unit):
        out[name] = (out.get(name, (0, unit))[0] + value, unit)

    for layer, n in calls.items():
        spent = self_s.get(layer, 0.0)
        names = [layer]
        family_method = layer.split(".")
        if len(family_method) == 3:  # models.<family>.<method>
            names.append(f"models.{family_method[2]}")
        for name in names:
            add(f"{name}.calls", n, "count")
            add(f"{name}.self_s", spent, "s")
    for key, n in counts.items():
        add(key, n, "count")
        if key.endswith(".stab_germ_group.distinct_keys"):
            add("models.stab_germ_group.distinct_keys", n, "count")
    scanned = counts.get("models.fixator.scanned", 0)
    out["models.fixator.kept_ratio"] = (
        counts.get("models.fixator.kept", 0) / scanned if scanned else 0.0,
        "ratio")
    hits = counts.get("tree_core.ball_vertices.hits", 0)
    lookups = hits + counts.get("tree_core.ball_vertices.misses", 0)
    out["tree_core.ball_vertices.hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    out["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0,
                           "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    return out


# --- one run ---------------------------------------------------------------------


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def measure(scenarios, seconds, trace, work):
    """Run passes; return (end-to-end, per-layer or None, outcomes)."""
    env = child_env()
    golden = load_json(GOLDEN_FILE)
    warm_up(env)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    passes = []
    if trace:
        passes.append(run_pass(scenarios, work, False, deadline, golden, env))
        traced = run_pass(scenarios, work, True, deadline, golden, env)
        layers = per_layer(traced, passes[0][0])
        outcomes = passes[0][1] + traced[1]
        return end_to_end(passes), layers, outcomes
    # another pass only if it should still end within the measuring window
    while True:
        passes.append(run_pass(scenarios, work, False, deadline, golden, env))
        if time.monotonic() - started + passes[-1][0] > seconds:
            break
    return end_to_end(passes), None, [o for _, outs in passes for o in outs]


def result_line(spec, e2e, layers, outcomes, trace):
    """The final JSON object, with the metrics BENCHMARK.json declares."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    metrics = {}
    for m in declared:
        value, _ = source.get(m["name"], (0, None))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(1 for o in outcomes if o.error)
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def print_outcomes(outcomes):
    for o in outcomes:
        setup = "-" if o.setup_s is None else f"{o.setup_s:.4f}"
        status = "ok" if o.error is None else f"FAILED: {o.error}"
        print(f"# scenario {o.name} wall_s {o.wall_s:.4f} setup_s {setup} "
              f"rss_mb {o.rss_mb:.1f} {status}")


def print_metrics(e2e, layers):
    for name, (value, unit) in [*e2e.items(), *sorted((layers or {}).items())]:
        print(f"metric {name} {value:.6g} {unit}")


def check_checkout():
    missing = [p for p in ("src/treeclose/cli.py", "scenarios", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"run.py: not a treeclose checkout; missing {', '.join(missing)}")


def run(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }))
    scenarios = workloads.generate(args.workload, args.seed, ROOT, work)
    e2e, layers, outcomes = measure(scenarios, args.seconds, args.trace, work)
    print_outcomes(outcomes)
    print_metrics(e2e, layers)
    result = result_line(spec, e2e, layers, outcomes, args.trace)
    if result["failed"]:
        print(f"# failed scenarios kept in {work}")
    else:
        shutil.rmtree(work)
    print(json.dumps(result))


# --- self-test -----------------------------------------------------------------


class SelfTestError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise SelfTestError(message)


def validate(result, declared, positive):
    """The result line has the contract's shape and the declared metrics."""
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys: {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"scenarios failed: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"attempted: {result['attempted']!r}")
    check([m["name"] for m in declared] == list(result["metrics"]),
          "metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{m['name']}: {got}")
        check(isinstance(got["value"], (int, float)), f"{m['name']}: {got}")
        if positive:
            check(got["value"] > 0, f"{m['name']} is not positive: {got}")
    json.loads(json.dumps(result, allow_nan=False))


def self_test():
    """One small scenario per workload, traced and untraced, plus a timeout."""
    spec = load_json(ROOT / "BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json and workloads.py name different workloads")
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="self-test-", dir=HERE / "work"))
    small = {"bs-window": "bs23-normal-form.json",
             "aut-enum": "full-aut-local-action.json",
             "padic-cover": "psl2-lattice-r1.json"}
    for workload, name in small.items():
        scenario = workloads.Scenario(name, ROOT / "scenarios" / name,
                                      workloads.CORPUS_EXIT[name])
        for trace in (0, 1):
            e2e, layers, outcomes = measure([scenario], 0, trace, work)
            result = result_line(spec, e2e, layers, outcomes, trace)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            validate(result, declared, positive=not trace)
        print(f"self-test {workload}: ok")
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in (7, 7, 8):
            out = Path(tempfile.mkdtemp(dir=work))
            runs.append([(s.name, s.path.read_bytes())
                         for s in workloads.generate(workload, seed, ROOT, out)])
        check(runs[0] == runs[1], f"{workload}: same seed, different inputs")
        check(len(runs[0]) == len(runs[2]),
              f"{workload}: the seed changed the number of scenarios")
    print("self-test seeded inputs: ok")
    path = work / "unbounded.json"
    workloads.write_scenario(
        path, {"schema": workloads.SCENARIO_SCHEMA, **workloads.UNBOUNDED})
    started = time.monotonic()
    outcome = run_scenario(workloads.Scenario("unbounded", path, 0), work,
                           False, 2.0, {}, child_env())
    check(outcome.error is not None and outcome.error.startswith("timed out"),
          f"unbounded scenario: {outcome.error}")
    check(time.monotonic() - started < 10, "the timeout did not end the process")
    print("self-test timeout: ok")
    shutil.rmtree(work)
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    check_checkout()
    if args.self_test:
        try:
            self_test()
        except SelfTestError as exc:
            sys.exit(f"self-test failed: {exc}")
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
