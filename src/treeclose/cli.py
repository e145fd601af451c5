"""Scenario-driven command line front end.

One scenario file per invocation: a JSON object naming a model, a verb,
and the fields that verb reads. The run emits a report (fixed-layout text
or JSON with identical content) and sets the exit code by verdict class: 0
for a holding verdict or plain result, 10 for an exact failure, 20 for an
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

from .errors import TooLarge, TreecloseError, ValidationError, as_int, echo, max_elements, read_int
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
from .models.bass_serre import render_britton
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

_encode = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_FLOATS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _address(model, text):
    """A vertex of the model's tree: every color is below its degree."""
    v = VertexAddr.parse(text)
    if any(c >= model.degree for c in v.word):
        raise ValidationError(
            f"vertex {echo(text)} is not on the {model.degree}-regular tree: "
            f"colors run from 0 to {model.degree - 1}"
        )
    return v


_ABSENT = object()  # the default of a raw field that may not be null
_RAW = ("germ", "other", "matrix", "word", "f")
_SHAPES = {"edge": "[v, w]", "path": "[v0, v1, ...]"}


def _field(model, scenario, key, default):
    """scenario[key], read by the kind its name gives it: a vertex (default
    when absent), an edge or a path of vertices, an optional radius (None
    when absent or null), a raw value for the verb to check, or else an
    integer (required when its default is None)."""
    if key in _RAW:
        return scenario.get(key, default)
    if key == "vertex":
        return _address(model, scenario[key]) if key in scenario else default
    if key in _SHAPES:
        raw = scenario.get(key)
        if not (isinstance(raw, list) and len(raw) >= 2 and (key == "path" or len(raw) == 2)):
            raise ValidationError(f"scenario needs {key!r}: {_SHAPES[key]}")
        return [_address(model, x) for x in raw]
    if key in ("radius", "probe_radius", "first_difference_kmax"):
        return None if scenario.get(key) is None else read_int(scenario, key)
    return read_int(scenario, key, default)


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


def _verb_stab_germs(model, vertex, k):
    result = {"vertex": vertex.render(), "k": k}
    chain = model.stab_germ_chain(vertex, k)
    # the chain lists the germs in sorted_germs order
    germs = (Germ(vertex, vertex, k, p, model.degree) for p in chain.elements())
    result.update(_germ_listing(chain.order(), germs, len(chain.base)))
    return result, EXIT_OK, [], 0


def _verb_local_action(model, vertex):
    fp = local_action(model, vertex)
    fp["element_orders"] = list(fp["element_orders"])
    fp["vertex"] = vertex.render()
    return fp, EXIT_OK, [], 0


def _verb_legality(model, k, germ):
    if germ is _ABSENT:
        raise ValidationError("scenario is missing 'germ'")
    germ = germ_from_json(germ)
    germ.validate(model.degree)
    ok, bad = check_k_legal(model, germ, k, explain=True)
    result = {
        "legal": ok,
        "k": k,
        "offending_vertex": None if bad is None else bad.render(),
    }
    return result, EXIT_OK if ok else EXIT_FAILS, [], 0


def _verb_discreteness(model, k, budget):
    nd = nondiscreteness_certificate(model, k, budget)
    dc = discreteness_certificate(model, k)
    result = {
        "k": k,
        "nondiscreteness": nd.to_json(),
        "exact_discreteness": dc.to_json(),
    }
    return _by_verdict(result, nd)


def _verb_kclosure_compare(model, k, probe_radius, first_difference_kmax, other):
    if other is _ABSENT:
        raise ValidationError("scenario is missing 'other' model descriptor")
    other = build_model(other)
    verdict = kclosure_equal(model, other, k, probe_radius)
    result = {"k": k, "comparison": verdict.to_json()}
    if first_difference_kmax is not None:
        found = first_stab_germ_difference(model, other, ROOT, first_difference_kmax)
        result["first_stab_germ_difference"] = None if found is None else {
            "k": found[0], "germ": germ_to_json(found[1])}
    return _by_verdict(result, verdict)


def _verb_ipk(model, edge, k, R):
    verdict = ipk_check(model, *edge, k, R)
    return _by_verdict(verdict.to_json(), verdict)


def _verb_pk(model, path, k, R):
    verdict = pk_check(model, path, k, R)
    return _by_verdict(verdict.to_json(), verdict)


def _verb_plusk_generators(model, vertex, k, radius, samples, seed):
    germs = plusk_generator_germs(model, vertex, k, radius, samples=samples, rng_seed=seed)
    closure = closure_chain([g.perm for g in germs], len(germs[0].perm))
    # each germ fixes v, so it maps every k-ball of its domain onto another
    # one: the k-legal germs fixing v form a group, and the closure is
    # k-legal exactly when its chain's strong generators are. Transporter
    # and stabilizer germs depend only on the model and k
    cache = {}
    legal = all(
        check_k_legal(model, Germ(vertex, vertex, germs[0].radius, p, model.degree), k, cache)
        for p in closure.generators()
    )
    result = {"vertex": vertex.render(), "k": k, "closure_count": closure.order(),
              "closure_all_k_legal": legal}
    result.update(_germ_listing(len(germs), germs, len(germs[0].perm)))
    return result, EXIT_OK if legal else EXIT_FAILS, [], 0


def _verb_commutator(model, amplitude, R, z_lo, z_hi, f, seed):
    if f is not _ABSENT:
        if not (isinstance(f, dict) and all(isinstance(m, dict) for m in f.values())):
            raise ValidationError("scenario needs 'f': {fiber: {vertex: vertex}}")
        f_maps = {
            as_int(z, f"'f' key {echo(z)}"): {
                _address(model, a): _address(model, b) for a, b in mapping.items()
            }
            for z, mapping in f.items()
        }
    else:
        # the translation checks the window before the fibers are built
        commutator_translation(model, amplitude, R, z_lo, z_hi)
        rng = random.Random(seed)
        core, fibers = axis_fibers(model, amplitude, R, z_lo, z_hi)
        f_maps = {
            z: random_fiber_auto(model.degree, fibers[z], core[z], rng)
            for z in core
        }
    solved = solve_commutator(model, amplitude, f_maps, R, z_lo, z_hi)
    result = {
        "amplitude": amplitude,
        "R": R,
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
    raise ValidationError(f"bad matrix entry {echo(raw)}")


def _verb_lattice(model, r, matrix):
    if not (
        isinstance(matrix, list)
        and len(matrix) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in matrix)
    ):
        raise ValidationError("scenario needs 'matrix': 2x2 entries")
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


def _verb_normal_form(model, word):
    if not isinstance(word, str):
        raise ValidationError("scenario needs 'word': a generator word")
    el = model.from_britton(word)
    result = {
        "input": word,
        "normal_form": render_britton(el),
        "segs": [[r, e] for r, e in el.segs],
        "tail": el.tail,
    }
    return result, EXIT_OK, [], 0


# the fields every scenario may give, read by parse_scenario and run_scenario
COMMON_FIELDS = ("schema", "model", "verb", "seed", "budget")
# verb -> (its function, the one model family it runs on or None, and the
# scenario fields it reads in this order, with their defaults: see _field).
# The function takes each field as the keyword argument of the same name
VERBS = {
    "stab-germs": (_verb_stab_germs, None, {"vertex": ROOT, "k": None}),
    "local-action": (_verb_local_action, None, {"vertex": ROOT}),
    "legality": (_verb_legality, None, {"k": None, "germ": _ABSENT}),
    "discreteness": (_verb_discreteness, None, {"k": None, "budget": 2000}),
    "kclosure-compare": (_verb_kclosure_compare, None, {
        "k": None, "probe_radius": None, "first_difference_kmax": None, "other": _ABSENT}),
    "ipk": (_verb_ipk, None, {"edge": None, "k": None, "R": None}),
    "pk": (_verb_pk, None, {"path": None, "k": None, "R": None}),
    "plusk-generators": (_verb_plusk_generators, None, {
        "vertex": ROOT, "k": None, "radius": None, "samples": 0, "seed": 0}),
    "commutator": (_verb_commutator, "full_aut", {
        "amplitude": None, "R": 2, "z_lo": -4, "z_hi": 4, "f": _ABSENT, "seed": 0}),
    "lattice": (_verb_lattice, "psl2", {"r": None, "matrix": None}),
    "normal-form": (_verb_normal_form, "bs", {"word": None}),
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
        raise ValidationError(f"unsupported scenario schema {echo(schema)}")
    for required in ("model", "verb"):
        if required not in data:
            raise ValidationError(f"scenario is missing {required!r}")
    if not isinstance(data["verb"], str) or data["verb"] not in VERBS:
        raise ValidationError(
            f"unknown verb {echo(data['verb'])}; expected one of "
            + ", ".join(sorted(VERBS))
        )
    return data


def run_scenario(scenario, budget_override=None, seed_override=None):
    verb = scenario["verb"]
    function, family, fields = VERBS[verb]
    for key in scenario:
        if key not in fields and key not in COMMON_FIELDS:
            raise ValidationError(f"the {verb} verb does not read scenario field {echo(key)}")
    model = build_model(scenario["model"])
    budget = read_int(scenario, "budget", 2000)
    if budget_override is not None:
        budget = budget_override
    budget = min(budget, max_elements())
    seed = seed_override if seed_override is not None else read_int(scenario, "seed", 0)
    if family not in (None, model.name):
        raise ValidationError(f"the {verb} verb runs on the {family} model")
    # a verb that reads budget or seed gets them as read here, overrides applied
    common = {"budget": budget, "seed": seed}
    values = {key: common[key] if key in common else _field(model, scenario, key, default)
              for key, default in fields.items()}
    result, exit_code, witnesses, budget_used = function(model, **values)
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
    """json.dumps(report, sort_keys=True, indent=2) plus a newline, written
    in one pass into one list of pieces with the C string encoder, and
    joined once: the stdlib's indented encoder is pure Python and walks a
    germ's pairs one token at a time."""
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, nl, out):
    """Append o to out as json.dumps(o, sort_keys=True, indent=2) writes it
    at the depth whose line break and indent is nl."""
    if isinstance(o, str):
        out.append(_encode(o))
    elif not isinstance(o, (list, tuple, dict)):
        out.append(_json_scalar(o))
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = nl + "  "
        start = "{" + inner
        for k, v in sorted(o.items()):
            key = _encode(k) if isinstance(k, str) else f'"{_json_scalar(k)}"'
            out += (start, key, ": ")
            start = "," + inner
            _write_json(v, inner, out)
        out.append(nl + "}")
    else:
        inner = nl + "  "
        sep = "," + inner
        types = set(map(type, o))
        if types == {str}:
            out += ("[", inner, sep.join(map(_encode, o)), nl, "]")
        elif types <= {list, tuple} and all(o) and (
            set(map(type, itertools.chain.from_iterable(o))) == {str}
        ):
            # non-empty string lists, such as a germ's pairs: no call per list
            head, tail = "[" + inner + "  ", inner + "]"
            items = [head + (sep + "  ").join(map(_encode, x)) + tail for x in o]
            out += ("[", inner, sep.join(items), nl, "]")
        else:
            start = "[" + inner
            for x in o:
                out.append(start)
                start = sep
                _write_json(x, inner, out)
            out.append(nl + "]")


def _json_scalar(o):
    """None, a bool, an int or a float as json writes it; TypeError for
    anything else, as a value and as a key."""
    if o is None or o is True or o is False:
        return _JSON_CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return "NaN" if o != o else _JSON_FLOATS.get(o) or float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
