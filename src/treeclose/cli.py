"""Scenario-driven command line front end.

One scenario file per invocation: a JSON object naming a model, a verb,
and parameters. The run emits a report (fixed-layout text or JSON with
identical content) and sets the exit code by verdict class: 0 for a
holding verdict or plain result, 10 for an exact failure, 20 for an
inconclusive verdict, 2 for an error. Reports are byte-identical across
runs for equal (scenario, seed); wall clock is reported as 0 unless
--timings is passed, precisely to keep that guarantee.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

from .errors import TooLarge, TreecloseError, ValidationError, as_int, max_elements, read_int
from .kclosure import (
    axis_fibers,
    check_k_legal,
    commutator_translation,
    discreteness_certificate,
    first_stab_germ_difference,
    germ_from_json,
    germ_to_json,
    ipk_check,
    kclosure_equal,
    local_action,
    nondiscreteness_certificate,
    pk_check,
    plusk_generator_germs,
    random_fiber_auto,
    solve_commutator,
)
from .models import build_model
from .permgroup import closure_chain
from .tree_core import ROOT, Germ, VertexAddr

SCENARIO_SCHEMA = "treeclose.scenario/v1"
REPORT_SCHEMA = "treeclose.report/v1"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_FAILS = 10
EXIT_INCONCLUSIVE = 20

_OUTCOME_EXIT = {"holds": EXIT_OK, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}

GERM_LIST_CAP = 200


def _address(model, text):
    """A vertex of the model's tree: every color is below its degree."""
    v = VertexAddr.parse(text)
    if any(c >= model.degree for c in v.word):
        raise ValidationError(
            f"vertex {text!r} is not on the {model.degree}-regular tree: "
            f"colors run from 0 to {model.degree - 1}"
        )
    return v


def _vertex(model, scenario):
    return _address(model, scenario["vertex"]) if "vertex" in scenario else ROOT


def _optional_int(scenario, key):
    """scenario[key] as an integer; None when it is absent or null."""
    return None if scenario.get(key) is None else read_int(scenario, key)


def _germ_listing(count, germs, positions):
    """The count, and the first germs listed in order: at most
    GERM_LIST_CAP of them, and no more vertex pairs of `positions` per
    germ than the element limit (at least one germ)."""
    cap = min(GERM_LIST_CAP, max(1, max_elements() // positions))
    out = {"count": count}
    if count > cap:
        out["germs_truncated_to"] = cap
    out["germs"] = [germ_to_json(g) for g in itertools.islice(germs, cap)]
    return out


def _by_verdict(result, verdict):
    """A verb's return value when one Verdict sets its exit code."""
    witnesses = [verdict.witness] if verdict.witness is not None else []
    return result, _OUTCOME_EXIT[verdict.outcome], witnesses, verdict.budget_used


def _verb_stab_germs(model, scenario, budget, seed):
    v = _vertex(model, scenario)
    k = read_int(scenario, "k")
    result = {"vertex": v.render(), "k": k}
    chain = model.stab_germ_chain(v, k)
    # the chain lists the germs in sorted_germs order
    germs = (Germ(v, v, k, p, model.degree) for p in chain.elements())
    result.update(_germ_listing(chain.order(), germs, len(chain.base)))
    return result, EXIT_OK, [], 0


def _verb_local_action(model, scenario, budget, seed):
    v = _vertex(model, scenario)
    fp = local_action(model, v)
    fp["element_orders"] = list(fp["element_orders"])
    fp["vertex"] = v.render()
    return fp, EXIT_OK, [], 0


def _verb_legality(model, scenario, budget, seed):
    if "germ" not in scenario:
        raise ValidationError("scenario is missing 'germ'")
    germ = germ_from_json(scenario["germ"])
    germ.validate(model.degree)
    k = read_int(scenario, "k")
    ok, bad = check_k_legal(model, germ, k, explain=True)
    result = {
        "legal": ok,
        "k": k,
        "offending_vertex": None if bad is None else bad.render(),
    }
    return result, EXIT_OK if ok else EXIT_FAILS, [], 0


def _verb_discreteness(model, scenario, budget, seed):
    k = read_int(scenario, "k")
    nd = nondiscreteness_certificate(model, k, budget)
    dc = discreteness_certificate(model, k)
    result = {
        "k": k,
        "nondiscreteness": nd.to_json(),
        "exact_discreteness": dc.to_json(),
    }
    return _by_verdict(result, nd)


def _verb_kclosure_compare(model, scenario, budget, seed):
    if "other" not in scenario:
        raise ValidationError("scenario is missing 'other' model descriptor")
    other = build_model(scenario["other"])
    k = read_int(scenario, "k")
    probe = _optional_int(scenario, "probe_radius")
    kmax = _optional_int(scenario, "first_difference_kmax")
    verdict = kclosure_equal(model, other, k, probe)
    result = {"k": k, "comparison": verdict.to_json()}
    if kmax is not None:
        found = first_stab_germ_difference(model, other, ROOT, kmax)
        result["first_stab_germ_difference"] = (
            None
            if found is None
            else {"k": found[0], "germ": germ_to_json(found[1])}
        )
    return _by_verdict(result, verdict)


def _edge(model, scenario):
    edge = scenario.get("edge")
    if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
        raise ValidationError("scenario needs 'edge': [v, w]")
    return _address(model, edge[0]), _address(model, edge[1])


def _verb_ipk(model, scenario, budget, seed):
    v, w = _edge(model, scenario)
    k = read_int(scenario, "k")
    radius = read_int(scenario, "R")
    verdict = ipk_check(model, v, w, k, radius)
    return _by_verdict(verdict.to_json(), verdict)


def _verb_pk(model, scenario, budget, seed):
    path = scenario.get("path")
    if not (isinstance(path, list) and len(path) >= 2):
        raise ValidationError("scenario needs 'path': [v0, v1, ...]")
    path = [_address(model, x) for x in path]
    k = read_int(scenario, "k")
    radius = read_int(scenario, "R")
    verdict = pk_check(model, path, k, radius)
    return _by_verdict(verdict.to_json(), verdict)


def _verb_plusk_generators(model, scenario, budget, seed):
    v = _vertex(model, scenario)
    k = read_int(scenario, "k")
    radius = _optional_int(scenario, "radius")
    samples = read_int(scenario, "samples", 0)
    germs = plusk_generator_germs(
        model, v, k, radius, samples=samples, rng_seed=seed
    )
    closure = closure_chain([g.perm for g in germs], len(germs[0].perm))
    # each germ fixes v, so it maps every k-ball of its domain onto another
    # one: the k-legal germs fixing v form a group, and the closure is
    # k-legal exactly when its chain's strong generators are. Transporter
    # and stabilizer germs depend only on the model and k
    cache = {}
    legal = all(
        check_k_legal(model, Germ(v, v, germs[0].radius, p, model.degree), k, cache)
        for p in closure.generators()
    )
    result = {"vertex": v.render(), "k": k, "closure_count": closure.order(),
              "closure_all_k_legal": legal}
    result.update(_germ_listing(len(germs), germs, len(germs[0].perm)))
    return result, EXIT_OK if legal else EXIT_FAILS, [], 0


def _verb_commutator(model, scenario, budget, seed):
    if model.name != "full_aut":
        raise ValidationError("the commutator verb runs on the full_aut model")
    amplitude = read_int(scenario, "amplitude")
    radius = read_int(scenario, "R", 2)
    z_lo = read_int(scenario, "z_lo", -4)
    z_hi = read_int(scenario, "z_hi", 4)
    if "f" in scenario:
        f = scenario["f"]
        if not (isinstance(f, dict) and all(isinstance(m, dict) for m in f.values())):
            raise ValidationError("scenario needs 'f': {fiber: {vertex: vertex}}")
        f_maps = {
            as_int(z, f"'f' key {z!r}"): {
                _address(model, a): _address(model, b) for a, b in mapping.items()
            }
            for z, mapping in f.items()
        }
    else:
        # the translation checks the window before the fibers are built
        commutator_translation(model, amplitude, radius, z_lo, z_hi)
        rng = random.Random(seed)
        core, fibers = axis_fibers(model, amplitude, radius, z_lo, z_hi)
        f_maps = {
            z: random_fiber_auto(model.degree, fibers[z], core[z], rng)
            for z in core
        }
    solved = solve_commutator(model, amplitude, f_maps, radius, z_lo, z_hi)
    result = {
        "amplitude": amplitude,
        "R": radius,
        "verified_fibers": list(solved["verified"]),
        "free_fibers": list(solved["free"]),
        "g": {
            str(z): {
                a.render(): b.render()
                for a, b in sorted(m.items(), key=lambda kv: kv[0].word)
            }
            for z, m in solved["g"].items()
        },
    }
    return result, EXIT_OK, [], 0


def _rational(raw):
    # Fraction would read a bool as 0 or 1 and expand 1e-100000000 in full
    if isinstance(raw, bool) or isinstance(raw, str) and "e" in raw.lower():
        raise ValueError("not a plain number")
    return Fraction(raw)


def _parse_matrix_entry(raw, p, where):
    try:
        if isinstance(raw, (str, int)):
            return _rational(raw)
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            unit, power = raw
            if isinstance(power, str) and power.startswith("p^"):
                e = as_int(power[2:], f"the exponent of {where}")
                limit = max_elements()
                if abs(e) > limit:
                    raise TooLarge(f"the exponent of {where} passes the limit {limit}")
                # entries are multiplied in pairs, and Fraction pays for
                # every bit, so p^e may hold a quarter of the limit in bits
                if abs(e) * math.log2(p) > limit // 4:
                    raise TooLarge(f"{where} has more than {limit // 4} bits")
                return _rational(unit) * Fraction(p) ** e
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"bad matrix entry {raw!r}")


def _verb_lattice(model, scenario, budget, seed):
    if model.name != "psl2":
        raise ValidationError("the lattice verb runs on the psl2 model")
    matrix = scenario.get("matrix")
    if not (
        isinstance(matrix, list)
        and len(matrix) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in matrix)
    ):
        raise ValidationError("scenario needs 'matrix': 2x2 entries")
    r = read_int(scenario, "r")
    a, b, c, d = (
        _parse_matrix_entry(matrix[i][j], model.p, f"entry ({i + 1}, {j + 1})")
        for i in (0, 1)
        for j in (0, 1)
    )
    el = model.element(a, b, c, d)
    fixes = model.fix_ball_test(el, r)
    germ_fixes = model.germ_of(el, ROOT, r).is_identity_map
    if fixes != germ_fixes:
        raise ValidationError("congruence test disagrees with the germ")
    result = {
        "fixes_ball": fixes,
        "r": r,
        "cross_check": "direct germ computation agrees",
    }
    return result, EXIT_OK if fixes else EXIT_FAILS, [], 0


def _verb_normal_form(model, scenario, budget, seed):
    if model.name != "bs":
        raise ValidationError("the normal-form verb runs on the bs model")
    word = scenario.get("word")
    if not isinstance(word, str):
        raise ValidationError("scenario needs 'word': a generator word")
    el = model.from_britton(word)
    from .models.bass_serre import render_britton

    result = {
        "input": word,
        "normal_form": render_britton(el),
        "segs": [[r, e] for r, e in el.segs],
        "tail": el.tail,
    }
    return result, EXIT_OK, [], 0


VERBS = {
    "stab-germs": _verb_stab_germs,
    "local-action": _verb_local_action,
    "legality": _verb_legality,
    "discreteness": _verb_discreteness,
    "kclosure-compare": _verb_kclosure_compare,
    "ipk": _verb_ipk,
    "pk": _verb_pk,
    "plusk-generators": _verb_plusk_generators,
    "commutator": _verb_commutator,
    "lattice": _verb_lattice,
    "normal-form": _verb_normal_form,
}


def parse_scenario(text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's digit limit
        raise ValidationError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    schema = data.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ValidationError(f"unsupported scenario schema {schema!r}")
    for required in ("model", "verb"):
        if required not in data:
            raise ValidationError(f"scenario is missing {required!r}")
    if not isinstance(data["verb"], str) or data["verb"] not in VERBS:
        raise ValidationError(
            f"unknown verb {data['verb']!r}; expected one of "
            + ", ".join(sorted(VERBS))
        )
    return data


def run_scenario(scenario, budget_override=None, seed_override=None):
    model = build_model(scenario["model"])
    budget = read_int(scenario, "budget", 2000)
    if budget_override is not None:
        budget = budget_override
    budget = min(budget, max_elements())
    seed = seed_override if seed_override is not None else read_int(scenario, "seed", 0)
    verb = VERBS[scenario["verb"]]
    result, exit_code, witnesses, budget_used = verb(model, scenario, budget, seed)
    report = {
        "schema": REPORT_SCHEMA,
        "scenario": scenario,
        "model": model.describe(),
        "seed": seed,
        "result": result,
        "witnesses": witnesses,
        "budget_used": budget_used,
        "wall_clock_ms": 0,
        "exit_code": exit_code,
    }
    return report


def render_text(report):
    lines = ["treeclose report"]
    width = max(len(k) for k in report)
    for key in sorted(report):
        value = json.dumps(report[key], sort_keys=True)
        lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines) + "\n"


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="treeclose",
        description="exact k-closure laboratory for groups on regular trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--budget-override", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--timings",
        action="store_true",
        help="report real wall clock (breaks byte-for-byte determinism)",
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        report = run_scenario(
            scenario,
            budget_override=args.budget_override,
            seed_override=args.seed,
        )
    except (TreecloseError, OSError) as exc:
        error = {
            "schema": REPORT_SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": EXIT_ERROR,
        }
        if args.format == "json":
            sys.stdout.write(render_json(error))
        else:
            sys.stdout.write(render_text(error))
        return EXIT_ERROR
    if args.timings:
        report["wall_clock_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
