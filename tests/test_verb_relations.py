"""Relations between verbs that must hold for every family.

On one edge, P_k and IP_k are the same property, so `pk` on the path
[v, w] and `ipk` on (v, w) must agree; each verb must also be blind to the
direction of the edge or path, and invariant under the group. Checked on
the edge ε–0 at k in {1, 2} and window radius R in {k, k + 1} (full Aut at
k = 1 only, where its window groups stay small). A model's k-closure
equals that of a fresh copy of itself. Its local action at the root has
the order of its radius-1 stabiliser germ group, and at either end of
ε–0 the invariants of the perms those germs induce on the neighbours. The witness of every
corpus `discreteness` report with exit 0, and the witness germ of every
corpus `ipk` and `pk` report with exit 10, are re-checked from the report
and the scenario alone.
"""

import json

import pytest

from treeclose.cli import main
from treeclose.kclosure import (
    edge_region,
    germ_from_json,
    ipk_check,
    kclosure_equal,
    local_action,
    pk_check,
)
from treeclose.models import build_model
from treeclose.permgroup import induced_perm_group, structure_fingerprint
from treeclose.tree_core import ROOT, VertexAddr, thicken, tree_distance

from test_cli import EXPECTED_EXIT, SCENARIO_DIR
from test_models_contract import DESCRIPTORS, _descriptor_id

EDGE = (ROOT, VertexAddr.parse("0"))

WINDOWS = [
    pytest.param(descriptor, k, R, id=f"{_descriptor_id(descriptor)}-k{k}-r{R}")
    for descriptor in DESCRIPTORS
    for k in ((1,) if descriptor["model"] == "full_aut" else (1, 2))
    for R in (k, k + 1)
]

# the side counts of ipk on (v, w), under their names on (w, v)
SWAPPED = {
    "fixing_w_side_count": "fixing_v_side_count",
    "fixing_v_side_count": "fixing_w_side_count",
    "w_side_window_count": "v_side_window_count",
    "v_side_window_count": "w_side_window_count",
}


@pytest.mark.parametrize("descriptor, k, R", WINDOWS)
def test_pk_on_an_edge_agrees_with_ipk(descriptor, k, R):
    model = build_model(descriptor)
    edge = ipk_check(model, *EDGE, k, R)
    path = pk_check(model, list(EDGE), k, R)
    assert path.outcome == edge.outcome
    assert path.details["fixator_count"] == edge.details["fixator_count"]
    if edge.outcome == "fails" and "germ" in edge.witness:
        assert path.witness == edge.witness or "unrealized_combinations" in path.witness


@pytest.mark.parametrize("descriptor, k, R", WINDOWS)
def test_ipk_does_not_see_the_edge_direction(descriptor, k, R):
    model = build_model(descriptor)
    v, w = EDGE
    forward = ipk_check(model, v, w, k, R)
    backward = ipk_check(model, w, v, k, R)
    assert backward.outcome == forward.outcome
    assert backward.details == {
        SWAPPED.get(key, key): value for key, value in forward.details.items()
    }


@pytest.mark.parametrize("descriptor, k, R", WINDOWS)
def test_ipk_is_invariant_under_the_group(descriptor, k, R):
    model = build_model(descriptor)
    want = ipk_check(model, *EDGE, k, R)
    # the transporters to the root's neighbours, where the root's orbit
    # holds them, and to a vertex at distance 2, which it always holds
    targets = [ROOT.step(c) for c in range(model.degree)] + [VertexAddr.parse("1.0")]
    moves = [model.transporter(ROOT, x) for x in targets]
    for t in [t for t in moves if t is not None]:
        v, w = (model.act(t, x) for x in EDGE)
        got = ipk_check(model, v, w, k, R)
        assert (got.outcome, got.details) == (want.outcome, want.details)


@pytest.mark.parametrize("descriptor, k, R", WINDOWS)
def test_pk_does_not_see_the_path_direction(descriptor, k, R):
    model = build_model(descriptor)
    path = [VertexAddr.parse(x) for x in ("1", "ε", "0")]
    forward = pk_check(model, path, k, R)
    backward = pk_check(model, path[::-1], k, R)
    assert backward.outcome == forward.outcome
    for key in ("fixator_count", "fiber_counts", "product_count"):
        assert backward.details[key] == forward.details[key]


# full Aut d=3 at k = 2 passes the stabilizer germ group's element limit
COMPARISONS = [
    pytest.param(descriptor, k, id=f"{_descriptor_id(descriptor)}-k{k}")
    for descriptor in DESCRIPTORS
    for k in ((1,) if descriptor["model"] == "full_aut" else (1, 2))
]


@pytest.mark.parametrize("descriptor, k", COMPARISONS)
def test_kclosure_compare_with_a_fresh_copy_holds(descriptor, k):
    verdict = kclosure_equal(build_model(descriptor), build_model(descriptor), k)
    assert verdict.outcome == "holds"


@pytest.mark.parametrize("descriptor", DESCRIPTORS, ids=_descriptor_id)
def test_local_action_order_is_the_radius_1_stabiliser_order(descriptor):
    model = build_model(descriptor)
    assert local_action(model, ROOT)["order"] == model.stab_germ_chain(ROOT, 1).order()


@pytest.mark.parametrize("descriptor", DESCRIPTORS, ids=_descriptor_id)
def test_local_action_matches_the_perms_its_germs_induce(descriptor):
    # the reference lists the radius-1 stabiliser germs and induces their
    # perms on the neighbours
    model = build_model(descriptor)
    for v in EDGE:
        neighbours = [v.step(c) for c in range(model.degree)]
        want = structure_fingerprint(induced_perm_group(model.stab_germ_group(v, 1), neighbours))
        got = local_action(model, v)
        assert {key: got[key] for key in want} == want


@pytest.mark.parametrize(
    "name",
    sorted(n for n, code in EXPECTED_EXIT.items() if "discreteness" in n and code == 0),
)
def test_discreteness_witness_fixes_its_edge_region_and_moves_its_vertex(name, capsys):
    scenario = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
    assert main(["run", str(SCENARIO_DIR / name), "--format", "json"]) == 0
    witness = json.loads(capsys.readouterr().out)["result"]["nondiscreteness"]["witness"]
    model = build_model(scenario["model"])
    k = scenario["k"]
    g = model.element_from_json(witness["element"])
    v, w = (VertexAddr.parse(x) for x in witness["edge"])
    assert all(model.act(g, x) == x for x in edge_region(v, w, k, model.degree))
    # the moved vertex lies in the k-ball on the far side of the edge
    moved = VertexAddr.parse(witness["moved_vertex"])
    assert tree_distance(moved, w) <= k
    assert model.act(g, moved) != moved


# the one certified failure whose witness is a count of unrealized marginal
# combinations, not a germ
COUNT_WITNESSES = {"bs23-pk-edge.json"}


def _corpus_scenario(name):
    return json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name",
    sorted(
        n for n, code in EXPECTED_EXIT.items()
        if code == 10 and n not in COUNT_WITNESSES and _corpus_scenario(n)["verb"] in ("ipk", "pk")
    ),
)
def test_independence_witness_germ_is_a_nontrivial_edge_region_fixator(name, capsys):
    scenario = _corpus_scenario(name)
    assert main(["run", str(SCENARIO_DIR / name), "--format", "json"]) == 10
    germ = germ_from_json(json.loads(capsys.readouterr().out)["result"]["witness"]["germ"])
    model = build_model(scenario["model"])
    v, w = (VertexAddr.parse(x) for x in scenario["edge" if scenario["verb"] == "ipk" else "path"])
    k, R = scenario["k"], scenario["R"]
    center = germ.src_center
    assert center in (v, w) and germ.dst_center == center and germ.radius == R
    assert not germ.is_identity_map
    region = thicken((v, w), k - 1, model.degree)
    assert germ.fixes([x for x in region if tree_distance(x, center) <= R])
    assert germ.perm in model.stab_germ_chain(center, R)
