"""Scenario lists of the three workloads and the seeded input generator.

Stdlib only: nothing here imports treeclose. Inputs are written as plain
scenario files; the program under test sees only those files.

Each scenario carries the exit code it must end with. For corpus files the
code is the corpus contract (the EXPECTED_EXIT table of tests/test_cli.py,
copied here when the goldens were recorded). For the stress scenarios the
code follows from the mathematics stated next to each one. For generated
legality germs: a germ of a model element is k-legal because G lies in its
k-closure (exit 0); a defect germ swaps two sibling leaves under a single
vertex of the last shell, a move no vertex stabiliser of these discrete or
congruence-structured groups makes on a 2-ball, so it is rejected (exit 10).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SCENARIO_SCHEMA = "treeclose.scenario/v1"

BS23 = {"model": "bs", "m": 2, "n": 3}
FULL_AUT3 = {"model": "full_aut", "d": 3}
FULL_AUT4 = {"model": "full_aut", "d": 4}
PSL2_2 = {"model": "psl2", "p": 2}
COVER_C25 = {"model": "cover", "graph": "C", "p": 2, "r": 5}
COVER_C27 = {"model": "cover", "graph": "C", "p": 2, "r": 7}
STRIP_2 = {"model": "cover", "graph": "strip", "p": 2}

# corpus file -> expected exit code (tests/test_cli.py EXPECTED_EXIT)
CORPUS_EXIT = {
    "bs23-discreteness-k1.json": 0,
    "bs23-ipk-k1-r3.json": 10,
    "bs23-local-action.json": 0,
    "bs23-normal-form.json": 0,
    "bs23-plusk-k1.json": 0,
    "bs23-stab-germs-k1.json": 0,
    "cl-discreteness-k2.json": 20,
    "cl-ipk-k2.json": 0,
    "cl-legality-k1.json": 0,
    "cl-legality-k2-fails.json": 10,
    "cl-plusk-k2.json": 0,
    "cl-stab-germs-k1.json": 0,
    "cover-c25-discreteness-k2.json": 0,
    "cover-c25-local-action.json": 0,
    "cover-compare-k1.json": 0,
    "cover-compare-k3.json": 10,
    "full-aut-commutator-a1.json": 0,
    "full-aut-ipk-k1.json": 0,
    "full-aut-local-action.json": 0,
    "full-aut-pk-len2.json": 0,
    "psl2-discreteness-k2.json": 0,
    "psl2-lattice-r1.json": 0,
    "psl2-lattice-r2.json": 10,
    "psl2-stab-germs-k1.json": 0,
}

# name -> (scenario body, expected exit code); the reason for each code is
# in the comment above the entry
STRESS = {
    # BS(2,3): gcd(m, n) = 1 certifies trivial one-sided fixators, and the
    # edge fixator is not trivial, so path independence fails
    "bs23-pk-k1-r3": (
        {"model": BS23, "verb": "pk", "path": ["ε", "0"], "k": 1, "R": 3}, 10),
    # generators of the +k subgroup are k-legal by construction
    "bs23-plusk-k1-r3": (
        {"model": BS23, "verb": "plusk-generators", "vertex": "ε", "k": 1,
         "radius": 3}, 0),
    # Aut(T) has Tits' independence property P, hence IP_k and P_k
    "full-aut-ipk-k1-r3": (
        {"model": FULL_AUT3, "verb": "ipk", "edge": ["ε", "0"], "k": 1,
         "R": 3}, 0),
    "full-aut-pk-k2-r3": (
        {"model": FULL_AUT3, "verb": "pk", "path": ["1", "ε", "0"], "k": 2,
         "R": 3}, 0),
    # a plain enumeration: 4! * 3!^4 = 31,104 germs
    "full-aut4-stab-germs-k2": (
        {"model": FULL_AUT4, "verb": "stab-germs", "vertex": "ε", "k": 2}, 0),
    "psl2-stab-germs-k3": (
        {"model": PSL2_2, "verb": "stab-germs", "vertex": "ε", "k": 3}, 0),
    # fractional-linear maps fixing a half-tree are the identity, yet the
    # edge fixator is not trivial, so both independence tests fail
    "psl2-ipk-k1-r2": (
        {"model": PSL2_2, "verb": "ipk", "edge": ["ε", "0"], "k": 1,
         "R": 2}, 10),
    "psl2-pk-k1-r2": (
        {"model": PSL2_2, "verb": "pk", "path": ["ε", "0"], "k": 1,
         "R": 2}, 10),
    # the cycle cover and the strip cover agree on 1-balls
    "cover-c27-compare-k1": (
        {"model": COVER_C27, "verb": "kclosure-compare", "other": STRIP_2,
         "k": 1, "first_difference_kmax": 4}, 0),
}

# Not in any workload: on the parent of the benchmark this did not finish
# within 120 s. It is the known unbounded input that enforced budgets must
# end; the self-test uses it to show the per-scenario timeout works.
UNBOUNDED = {
    "model": {"model": "cover", "graph": "C", "p": 3, "r": 5},
    "verb": "kclosure-compare",
    "other": {"model": "cover", "graph": "strip", "p": 3},
    "k": 1,
}

POOL_FILE = Path(__file__).resolve().parent / "inputs" / "legality-pool.json"
PICKS_PER_FAMILY = {"element": 1, "defect": 1}

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "bs-window": {
        "corpus": [n for n in CORPUS_EXIT if n.startswith("bs23-")],
        "stress": ["bs23-pk-k1-r3", "bs23-plusk-k1-r3"],
        "legality": (),
    },
    "aut-enum": {
        "corpus": [n for n in CORPUS_EXIT
                   if n.startswith(("full-aut-", "cl-"))],
        "stress": ["full-aut-ipk-k1-r3", "full-aut-pk-k2-r3",
                   "full-aut4-stab-germs-k2"],
        "legality": (),
    },
    "padic-cover": {
        "corpus": [n for n in CORPUS_EXIT
                   if n.startswith(("psl2-", "cover-"))],
        "stress": ["psl2-stab-germs-k3", "psl2-ipk-k1-r2", "psl2-pk-k1-r2",
                   "cover-c27-compare-k1"],
        "legality": ("psl2", "cover"),
    },
}


def render_word(word):
    return ".".join(str(c) for c in word) if word else "ε"


def parse_word(text):
    return () if text == "ε" else tuple(int(c) for c in text.split("."))


def step(word, color):
    if word and word[-1] == color:
        return word[:-1]
    return word + (color,)


def ball_order(degree, radius):
    """Ball around the root, sorted by (distance, word), with parents."""
    out = [((), None)]
    layer = [()]
    for _ in range(radius):
        nxt = sorted(
            {(step(v, c), v) for v in layer for c in range(degree)
             if len(step(v, c)) > len(v)}
        )
        out.extend(nxt)
        layer = [v for v, _ in nxt]
    return out


def decode_germ(degree, radius, dst, images):
    """Germ pairs from the compact pool encoding.

    images holds one color per non-root vertex of the ball, in ball order:
    the image of a vertex is its parent's image stepped along that color.
    """
    order = ball_order(degree, radius)
    if len(images) != len(order) - 1:
        raise ValueError("pool germ has the wrong number of colors")
    image = {(): parse_word(dst)}
    for (v, parent), color in zip(order[1:], images):
        image[v] = step(image[parent], int(color))
    return [[render_word(v), render_word(image[v])] for v, _ in order]


def legality_scenario(pool, entry):
    family = pool["families"][entry["family"]]
    pairs = decode_germ(family["degree"], pool["radius"], entry["dst"],
                        entry["images"])
    return {
        "schema": SCENARIO_SCHEMA,
        "model": family["model"],
        "verb": "legality",
        "k": pool["k"],
        "germ": {"src": "ε", "dst": entry["dst"], "radius": pool["radius"],
                 "pairs": pairs},
    }


def write_scenario(path, body):
    path.write_text(json.dumps(body, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")


class Scenario:
    """One input file with the exit code it must produce."""

    def __init__(self, name, path, expected_exit):
        self.name = name
        self.path = path
        self.expected_exit = expected_exit


def generate(workload, seed, root, out_dir):
    """Write the workload's inputs into out_dir; return them in run order.

    The seed picks which pool germs are used and the order scenarios run
    in, never how many there are or how large they are.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    scenarios = [
        Scenario(name, root / "scenarios" / name, CORPUS_EXIT[name])
        for name in spec["corpus"]
    ]
    for name in spec["stress"]:
        body, code = STRESS[name]
        path = out_dir / f"{name}.json"
        write_scenario(path, {"schema": SCENARIO_SCHEMA, **body})
        scenarios.append(Scenario(name, path, code))
    if spec["legality"]:
        pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))
        for family in spec["legality"]:
            for kind, count in PICKS_PER_FAMILY.items():
                entries = [e for e in pool["entries"]
                           if e["family"] == family and e["kind"] == kind]
                for entry in rng.sample(entries, count):
                    path = out_dir / f"{entry['name']}.json"
                    write_scenario(path, legality_scenario(pool, entry))
                    code = 0 if kind == "element" else 10
                    scenarios.append(Scenario(entry["name"], path, code))
    rng.shuffle(scenarios)
    return scenarios
