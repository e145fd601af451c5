"""Property test: every scenario ends in a documented exit code.

Scenarios cover every verb and every model family. Each starts from
small valid values, then up to two of its fields, or of its model
descriptors' fields, become a perturbation: null, a bool, a float, a
string, a negative or huge integer, a vertex color at or above the
degree, a wrong shape, or no value at all. Each scenario runs through
the real CLI in-process with a small element limit, and must end in
exit 0, 2, 10 or 20 with a JSON report that repeats that exit code.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeclose.cli import main

ABSENT = object()

PERTURBATIONS = st.one_of(
    st.sampled_from([
        None, True, False, 1.5, 2.0, "x", "3", -1, -7, 10**18, 2**61 - 1,
        [], {}, [1, 2], [[0]], {"a": 1}, ABSENT,
    ]),
    # colors 3..9 lie at or above the degree of the smaller trees here
    st.integers(3, 9).flatmap(lambda c: st.sampled_from([str(c), f"0.{c}", f"{c}.0"])),
)

FULL_AUT = st.fixed_dictionaries({"model": st.just("full_aut"), "d": st.sampled_from([3, 4])})
BS = st.fixed_dictionaries({"model": st.just("bs"), "m": st.sampled_from([1, 2]),
                            "n": st.sampled_from([2, 3])})
PSL2 = st.fixed_dictionaries({"model": st.just("psl2"), "p": st.sampled_from([2, 3])})
MODELS = st.one_of(
    st.fixed_dictionaries({
        "model": st.just("constant_local"), "d": st.sampled_from([3, 4]),
        "F": st.sampled_from(["sym", "alt", "cyclic", "trivial", [[1, 0, 2]]])}),
    FULL_AUT,
    BS,
    PSL2,
    st.fixed_dictionaries({"model": st.just("cover"), "graph": st.just("C"),
                           "p": st.just(2), "r": st.sampled_from([3, 4, 5])}),
    st.just({"model": "cover", "graph": "strip", "p": 2}),
)
# the verbs that run on one family only mostly draw that family
VERB_MODELS = {"commutator": FULL_AUT, "lattice": PSL2, "normal-form": BS}

VERTEX = st.sampled_from(["ε", "0", "1.2", "0.1.0"])
SWAP = [["ε", "ε"], ["0", "1"], ["1", "0"], ["2", "2"]]
GERMS = st.sampled_from([
    {"src": "ε", "dst": "ε", "radius": 1, "pairs": SWAP},
    {"src": "ε", "dst": "0", "radius": 1,
     "pairs": [["ε", "0"], ["0", "ε"], ["1", "0.1"], ["2", "0.2"]]},
    {"src": "ε", "dst": "ε", "radius": 2, "pairs": SWAP},
])
MATRICES = st.sampled_from([
    [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, [1, "p^1"]], [0, 1]],
    [[2, 0], [0, "1/2"]], [[1, 2], [3, 4]], [[1, 0]],
])
K = st.integers(1, 2)

VERB_FIELDS = {
    "stab-germs": {"vertex": VERTEX, "k": st.integers(0, 3)},
    "local-action": {"vertex": VERTEX},
    "legality": {"germ": GERMS, "k": K},
    "discreteness": {"k": K, "budget": st.integers(0, 50)},
    "kclosure-compare": {"other": MODELS, "k": K, "probe_radius": st.integers(1, 3),
                         "first_difference_kmax": K},
    "ipk": {"edge": st.sampled_from([["ε", "0"], ["1", "1.0"], ["ε", "0.1"]]),
            "k": K, "R": st.integers(1, 3)},
    "pk": {"path": st.sampled_from([["ε", "0"], ["1", "ε", "0"], ["ε"]]),
           "k": K, "R": st.integers(1, 3)},
    "plusk-generators": {"vertex": VERTEX, "k": K, "radius": st.integers(1, 3),
                         "samples": st.integers(0, 2), "seed": st.integers(0, 3)},
    "commutator": {"amplitude": st.integers(1, 2), "R": st.integers(1, 2),
                   "z_lo": st.integers(-3, 0), "z_hi": st.integers(2, 4),
                   "f": st.sampled_from([{"0": {}}, {"0": {"0.0": "0.0"}}])},
    "lattice": {"matrix": MATRICES, "r": st.integers(0, 2)},
    "normal-form": {"word": st.sampled_from(["a t a^-1", "t^2 a", "1", "a^3 t^-1", "b"])},
}


@st.composite
def scenarios(draw):
    """A valid scenario for a random verb and model, with up to two of its
    fields (or of its model descriptors' fields) perturbed or dropped."""
    verb = draw(st.sampled_from(sorted(VERB_FIELDS)))
    fields = draw(st.fixed_dictionaries(VERB_FIELDS[verb]))
    # drawn values can be shared objects, so perturb a copy
    model = draw(st.one_of(VERB_MODELS.get(verb, MODELS), MODELS))
    scenario = copy.deepcopy({"model": model, "verb": verb, **fields})
    if verb == "commutator" and draw(st.booleans()):
        del scenario["f"]
    for _ in range(draw(st.integers(0, 2))):
        owners = [scenario] + [v for v in scenario.values() if isinstance(v, dict) and v]
        owner = draw(st.sampled_from(owners))
        key = draw(st.sampled_from(sorted(owner)))
        value = draw(PERTURBATIONS)
        if value is ABSENT:
            del owner[key]
        else:
            owner[key] = copy.deepcopy(value)
    return scenario


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_every_scenario_ends_in_a_documented_exit_code(scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "500")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--format", "json"])
    assert code in (0, 2, 10, 20)
    assert json.loads(out.getvalue())["exit_code"] == code
