"""Record the legality germ pool and the golden reports of every scenario.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_inputs.py

The benchmark itself never imports treeclose; this script does, once, to
draw random model elements and take their germs. It then runs every
scenario any workload can use through the CLI and stores the SHA-256 of
each report next to its exit code, failing if an exit code differs from
the expectation in workloads.py. Rerun it only when the report format or
the pool is meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    COVER_C25,
    CORPUS_EXIT,
    POOL_FILE,
    PSL2_2,
    STRESS,
    WORKLOADS,
    SCENARIO_SCHEMA,
    legality_scenario,
    write_scenario,
)

from treeclose.models import build_model
from treeclose.tree_core import ROOT, Germ, ball_vertices, sphere_vertices

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"
RADIUS, K = 5, 2
POOL_PER_KIND = 12
WORD_LENGTH = 6


def random_element(model, rng, stabilizers, transporters):
    """A word of root-stabiliser factors, then one move to distance 2.

    Every element sends the root to distance 2 and has the same word
    length, so every pool germ costs about the same to check.
    """
    g = model.identity()
    for _ in range(WORD_LENGTH):
        g = model.mul(g, rng.choice(stabilizers))
    return model.mul(g, rng.choice(transporters))


def with_defect(germ, degree):
    """Swap the images of two sibling leaves under one last-shell vertex.

    That vertex is a child of u, the last vertex of shell R-2 in ball order.
    B(u, 2) is the only 2-ball in the check's range that sees the swap, and
    a legality check visits it last.
    """
    mapping = dict(germ.pairs)
    shell = [v for v in ball_vertices(ROOT, RADIUS - 2, degree)
             if v.depth == RADIUS - 2]
    parent = max(
        (shell[-1].step(c) for c in range(degree)),
        key=lambda v: (v.depth, v.word),
    )
    a, b = sorted(
        (parent.step(c) for c in range(degree)
         if parent.step(c).depth == RADIUS),
        key=lambda v: v.word,
    )[:2]
    mapping[a], mapping[b] = mapping[b], mapping[a]
    return Germ.from_mapping(germ.src_center, germ.dst_center, RADIUS, mapping)


def encode(germ, degree):
    """One color per non-root vertex: the step from the parent's image."""
    colors = []
    for v in ball_vertices(ROOT, RADIUS, degree):
        if v == ROOT:
            continue
        parent_image = germ.apply(v.step(v.word[-1]))
        image = germ.apply(v)
        colors.append(next(
            c for c in range(degree) if parent_image.step(c) == image
        ))
    return "".join(str(c) for c in colors)


def make_pool():
    rng = random.Random(20131209)
    families = {"psl2": PSL2_2, "cover": COVER_C25}
    pool = {"radius": RADIUS, "k": K, "families": {}, "entries": []}
    for family, desc in families.items():
        model = build_model(desc)
        pool["families"][family] = {"model": desc, "degree": model.degree}
        stabilizers = [
            g for g in itertools.islice(model.iter_elements(), 1, 200)
            if model.act(g, ROOT) == ROOT
        ][:30]
        transporters = [
            model.transporter(ROOT, v)
            for v in sphere_vertices(ROOT, 2, model.degree)
        ]
        for kind, i in itertools.product(("element", "defect"),
                                         range(POOL_PER_KIND)):
            element = random_element(model, rng, stabilizers, transporters)
            germ = model.germ_of(element, ROOT, RADIUS)
            if kind == "defect":
                germ = with_defect(germ, model.degree)
            pool["entries"].append({
                "name": f"{family}-{kind}-{i:02d}",
                "family": family,
                "kind": kind,
                "dst": germ.dst_center.render(),
                "images": encode(germ, model.degree),
            })
    POOL_FILE.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    return pool


def run_cli(path):
    proc = subprocess.run(
        [sys.executable, "-m", "treeclose.cli", "run", str(path),
         "--format", "json"],
        capture_output=True, check=False,
    )
    return proc.returncode, proc.stdout


def main():
    root = HERE.parent
    pool = make_pool()
    golden = {}
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        jobs = [(n, root / "scenarios" / n, CORPUS_EXIT[n])
                for spec in WORKLOADS.values() for n in spec["corpus"]]
        for name, (body, code) in STRESS.items():
            path = Path(tmp) / f"{name}.json"
            write_scenario(path, {"schema": SCENARIO_SCHEMA, **body})
            jobs.append((name, path, code))
        for entry in pool["entries"]:
            path = Path(tmp) / f"{entry['name']}.json"
            write_scenario(path, legality_scenario(pool, entry))
            jobs.append((entry["name"], path,
                         0 if entry["kind"] == "element" else 10))
        for name, path, expected in jobs:
            started = time.monotonic()
            code, report = run_cli(path)
            elapsed = time.monotonic() - started
            if code != expected:
                raise SystemExit(f"{name}: exit {code}, expected {expected}")
            golden[name] = {
                "exit": code,
                "sha256": hashlib.sha256(report).hexdigest(),
            }
            print(f"{name:32s} exit {code:2d} {elapsed:6.2f} s", flush=True)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
