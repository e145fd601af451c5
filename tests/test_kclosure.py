"""Decision procedures at finite truncation.

Oracle values for the coset-tree model were derived by hand from the
exponent arithmetic (see test_bass_serre) and frozen here: the fixator
of an edge pair at window radius 4 is the 1296 tube maps of a^j with j
a multiple of 3 taken mod 3888, of which 3 are trivial toward one side
of the edge and 2 toward the other.
"""

import itertools
import json
import math
import random

import pytest

from treeclose import cli, permgroup
from treeclose.cli import run_scenario
from treeclose.errors import ValidationError
from treeclose.kclosure import (
    KClosureOracleModel,
    Verdict,
    axis_fibers,
    check_k_legal,
    closure_germs_at_targets,
    edge_region,
    element_germs_at,
    germ_closure,
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
    sorted_germs,
)
from treeclose.models import build_model
from treeclose.permgroup import StabChain, closure_chain
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_vertices,
    compose,
    germ_of_map,
    iterate_ball_germs,
    project_to_path,
    restrict,
    thicken,
    tree_distance,
)

from germ_reference import ref_subtree_isos
from test_cli import COVER_REPORT_SHA256, EXPECTED_EXIT, LIMIT_SITES, SCENARIO_DIR


@pytest.fixture(scope="module")
def cl():
    return build_model({"model": "constant_local", "d": 3, "F": "sym"})


@pytest.fixture(scope="module")
def fa():
    return build_model({"model": "full_aut", "d": 3})


@pytest.fixture(scope="module")
def bs23():
    return build_model({"model": "bs", "m": 2, "n": 3})


@pytest.fixture(scope="module")
def p2():
    return build_model({"model": "psl2", "p": 2})


EDGE = (ROOT, VertexAddr.parse("0"))


# --- legality ---------------------------------------------------------------


def test_element_germs_are_always_legal(cl, bs23, p2):
    for model in (cl, bs23, p2):
        germs = element_germs_at(model, ROOT, 2, ROOT)
        for g in list(germs)[:10]:
            assert check_k_legal(model, g, 1)
            assert check_k_legal(model, g, 2)


def test_legality_monotone_exhaustively(cl):
    # every 2-legal radius-2 germ is 1-legal, over all nearby targets
    targets = [ROOT] + [ROOT.step(c) for c in range(3)]
    for w in targets:
        for g in iterate_ball_germs(3, ROOT, w, 2):
            if check_k_legal(cl, g, 2):
                assert check_k_legal(cl, g, 1)


def test_legality_respects_orbits(p2):
    # no germ moving the root to an odd vertex can be legal: wrong orbit
    odd = VertexAddr.parse("0")
    for g in list(iterate_ball_germs(3, ROOT, odd, 1))[:6]:
        assert not check_k_legal(p2, g, 1)


def test_germ_json_round_trip(cl):
    for g in list(iterate_ball_germs(3, ROOT, ROOT, 2))[:8]:
        assert germ_from_json(germ_to_json(g)) == g


# --- discreteness certificates -----------------------------------------------


def test_bs_nondiscreteness_witnesses(bs23):
    v1 = nondiscreteness_certificate(bs23, 1)
    assert v1.outcome == "holds"
    assert v1.witness["element"] == {"britton": "a^2"}
    assert v1.witness["edge"] == ["ε", "3"]
    v2 = nondiscreteness_certificate(bs23, 2)
    assert v2.outcome == "holds"
    assert v2.witness["element"] == {"britton": "a^12"}


def test_bs_witnesses_reverify(bs23):
    for k in (1, 2):
        verdict = nondiscreteness_certificate(bs23, k)
        g = bs23.element_from_json(verdict.witness["element"])
        v = VertexAddr.parse(verdict.witness["edge"][0])
        w = VertexAddr.parse(verdict.witness["edge"][1])
        region = set(ball_vertices(v, k, 5)) & set(ball_vertices(w, k, 5))
        assert all(bs23.act(g, x) == x for x in region)
        assert any(bs23.act(g, y) != y for y in ball_vertices(w, k, 5))


def test_psl2_nondiscreteness(p2):
    # the witness only promises to fix the edge region, not a full ball
    for k in (1, 2):
        verdict = nondiscreteness_certificate(p2, k)
        assert verdict.outcome == "holds"
        g = p2.element_from_json(verdict.witness["element"])
        v = VertexAddr.parse(verdict.witness["edge"][0])
        w = VertexAddr.parse(verdict.witness["edge"][1])
        region = set(ball_vertices(v, k, 3)) & set(ball_vertices(w, k, 3))
        assert all(p2.act(g, x) == x for x in region)
        moved = VertexAddr.parse(verdict.witness["moved_vertex"])
        assert p2.act(g, moved) != moved


def test_cl_nondiscreteness_inconclusive(cl):
    verdict = nondiscreteness_certificate(cl, 2, budget=10**4)
    assert verdict.outcome == "inconclusive"
    assert verdict.details.get("model_group_discrete") is True


def test_verdict_invariants(bs23, cl):
    holds = nondiscreteness_certificate(bs23, 1)
    assert holds.witness is not None
    # at truncation 2 every edge region pins the whole group, short circuit
    inconclusive = nondiscreteness_certificate(cl, 2, budget=7)
    assert inconclusive.outcome == "inconclusive"
    assert inconclusive.to_json()["budget_used"] is not None


# --- edge independence ---------------------------------------------------------


def test_ipk_full_aut_holds_saturated(fa):
    verdict = ipk_check(fa, *EDGE, 1, 2)
    assert verdict.outcome == "holds"
    assert verdict.details["fixator_count"] == 64
    assert verdict.details["w_side_window_count"] == 8
    assert verdict.details["v_side_window_count"] == 8
    assert verdict.details["one_sided_trivial_certified"] is False
    assert any("saturated" in n for n in verdict.notes)


def test_ipk_full_aut_holds_at_window_three(fa):
    # a map fixing one side swaps children or not at 7 vertices of the
    # other: at v (its two other neighbors), at those two, and at their
    # four children; the window ends one level further out
    verdict = ipk_check(fa, *EDGE, 1, 3)
    assert verdict.outcome == "holds"
    assert verdict.details["fixator_count"] == 16384
    assert verdict.details["fixing_w_side_count"] == 128
    assert verdict.details["fixing_v_side_count"] == 128
    assert verdict.details["missing_count"] == 0


def test_ipk_bs_fails_with_certificate(bs23):
    verdict = ipk_check(bs23, *EDGE, 1, 4)
    assert verdict.outcome == "fails"
    d = verdict.details
    assert d["fixator_count"] == 1296
    assert d["one_sided_trivial_certified"] is True
    assert d["fixing_w_side_count"] == 1
    assert d["fixing_v_side_count"] == 1
    assert d["w_side_window_count"] == 2
    assert d["v_side_window_count"] == 3
    assert d["missing_count"] == 1295
    witness = germ_from_json(verdict.witness["germ"])
    assert not witness.is_identity_map
    witness.validate(5)


def test_ipk_bs_fails_at_radius_three(bs23):
    verdict = ipk_check(bs23, *EDGE, 1, 3)
    assert verdict.outcome == "fails"
    witness = germ_from_json(verdict.witness["germ"])
    moved = [u for u, w in witness.pairs if u != w]
    v_side_moved = [y for y in moved if y.word[:1] != (0,)]
    w_side_moved = [y for y in moved if y.word[:1] == (0,)]
    assert v_side_moved and w_side_moved


def test_ipk_cl_trivial_fixator_holds(cl):
    verdict = ipk_check(cl, *EDGE, 2, 3)
    assert verdict.outcome == "holds"
    assert verdict.details["fixator_count"] == 1


def test_ipk_cl_fails_at_k1(cl):
    verdict = ipk_check(cl, *EDGE, 1, 2)
    assert verdict.outcome == "fails"
    assert verdict.details["fixator_count"] == 2


def test_ipk_uncertified_gap_is_inconclusive(bs23):
    # same fixators, but the one sided triviality proof is withheld, so the
    # missing product combinations cannot be promoted to a counterexample
    class Uncertified:
        def __init__(self, base):
            self.base = base
            self.degree = base.degree

        def fixator_maps_on(self, tube, pinned):
            return self.base.fixator_maps_on(tube, pinned)

        def one_sided_fixators_trivial(self, edge):
            return False

    verdict = ipk_check(Uncertified(bs23), *EDGE, 1, 3)
    assert verdict.outcome == "inconclusive"
    assert verdict.details["one_sided_trivial_certified"] is False
    assert verdict.details["missing_count"] > 0


def test_ipk_holds_implies_next_k(fa, cl):
    # rerunning at k+1 with the same window preserves a saturated Holds
    for model, k, radius in ((fa, 1, 3), (cl, 2, 3)):
        first = ipk_check(model, *EDGE, k, radius)
        if first.outcome == "holds":
            assert ipk_check(model, *EDGE, k + 1, radius).outcome == "holds"


def test_ipk_rejects_bad_windows(fa):
    with pytest.raises(ValidationError):
        ipk_check(fa, ROOT, VertexAddr.parse("0.1"), 1, 2)
    with pytest.raises(ValidationError):
        ipk_check(fa, *EDGE, 2, 1)


def tube_order(tube, maps):
    """Maps on the tube sorted by their image words taken in the word order
    of the tube: the order the fixator maps were listed in before they
    became a chain."""
    by_word = sorted(range(len(tube)), key=lambda p: tube[p].word)
    rank = [0] * len(tube)
    for r, p in enumerate(by_word):
        rank[p] = r
    return tuple(sorted(maps, key=lambda m: [rank[m[p]] for p in by_word]))


def _old_fixator_maps(model, tube, pinned):
    """The fixator maps as a set, listed as before they became a chain:
    full Aut enumerated the tube's isomorphisms fixing the pins, every other
    family filtered its stabilizer germs at the pinned vertex of least
    reach."""
    tube, pinned = tuple(tube), tuple(pinned)
    pos = {x: p for p, x in enumerate(tube)}
    if model.name == "full_aut":
        root = pinned[0]
        pins = {x: x for x in pinned}
        maps = ref_subtree_isos(model.degree, tube, root, tube, root, pins=pins)
        return frozenset(tuple(pos[m[x]] for x in tube) for m in maps)
    reach = {c: max(tree_distance(c, x) for x in tube) for c in pinned}
    center = min(pinned, key=lambda c: (reach[c], c.word))
    return frozenset(
        tuple(pos[g.apply(x)] for x in tube)
        for g in model.stab_germ_group(center, reach[center])
        if g.fixes(pinned)
    )


# windows on which ipk_check's and pk_check's counts are checked against
# the listing they replace: (descriptor, k, R) on the edge ε–0
COUNTING_WINDOWS = {
    "full-aut-k1-r2": ({"model": "full_aut", "d": 3}, 1, 2),
    "full-aut-k1-r3": ({"model": "full_aut", "d": 3}, 1, 3),
    "constant-local-k2-r3": ({"model": "constant_local", "d": 3, "F": "sym"}, 2, 3),
    "bs23-k1-r3": ({"model": "bs", "m": 2, "n": 3}, 1, 3),
    "psl2-k1-r2": ({"model": "psl2", "p": 2}, 1, 2),
    "cover-c25-k1-r3": ({"model": "cover", "graph": "C", "p": 2, "r": 5}, 1, 3),
    "strip-k1-r3": ({"model": "cover", "graph": "strip", "p": 2}, 1, 3),
    # not certified, with a gap: inconclusive
    "bs24-k1-r3": ({"model": "bs", "m": 2, "n": 4}, 1, 3),
}


@pytest.mark.parametrize("name", sorted(COUNTING_WINDOWS))
def test_independence_counts_match_the_sets_they_replace(name):
    descriptor, k, radius = COUNTING_WINDOWS[name]
    model = build_model(descriptor)
    v, w = EDGE
    deg = model.degree
    tube = thicken([v, w], radius, deg)
    region = edge_region(v, w, k, deg)
    maps = _old_fixator_maps(model, tube, region)
    assert set(model.fixator_maps_on(tube, region).elements()) == maps
    near_w = [p for p, x in enumerate(tube) if tree_distance(x, w) < tree_distance(x, v)]
    near_v = [p for p, x in enumerate(tube) if tree_distance(x, v) < tree_distance(x, w)]
    left = [m for m in maps if all(m[p] == p for p in near_w)]
    right = [m for m in maps if all(m[p] == p for p in near_v)]
    ident = tuple(range(len(tube)))
    products = {}
    for choice, (ls, rs) in {"window": (left, right), "certified": ([ident], [ident])}.items():
        product = {tuple(a[i] for i in b) for a in ls for b in rs}
        assert product <= set(maps)
        assert len(product) == len(ls) * len(rs)
        products[choice] = product
    certified = bool(model.one_sided_fixators_trivial((v, w)))
    product = products["certified" if certified else "window"]
    missing = [m for m in maps if m not in product]
    verdict = ipk_check(model, v, w, k, radius)
    assert verdict.details["fixator_count"] == len(maps)
    assert verdict.details["w_side_window_count"] == len(left)
    assert verdict.details["v_side_window_count"] == len(right)
    assert verdict.details["missing_count"] == len(missing)
    if not missing:
        assert verdict.outcome == "holds"
    else:
        assert verdict.outcome == ("fails" if certified else "inconclusive")
    if verdict.outcome == "fails":
        # the witness was the first missing map in tube order that moves
        # both sides inside B(v, R)
        in_ball = [p for p, x in enumerate(tube) if tree_distance(x, v) <= radius]
        sides = [set(near_w) & set(in_ball), set(near_v) & set(in_ball)]
        listed = tube_order(tube, maps - {ident})
        pick = next(
            (m for m in listed if all(any(m[p] != p for p in side) for side in sides)),
            listed[0],
        )
        pos = {x: p for p, x in enumerate(tube)}
        want = germ_of_map(lambda x: tube[pick[pos[x]]], v, radius, deg)
        assert verdict.witness == {"germ": germ_to_json(want)}
    # the fibers over the edge partition the tube, so marginals tell maps apart
    fibers = {v: [], w: []}
    for p, y in enumerate(tube):
        fibers[project_to_path(y, [v, w])].append(p)
    marginals = {tuple(tuple(m[p] for p in fibers[x]) for x in (v, w)) for m in maps}
    assert len(marginals) == len(maps)
    got = pk_check(model, [v, w], k, radius).details
    assert got["fixator_count"] == len(maps)
    fiber_counts = {x.render(): len({tuple(m[p] for p in fibers[x]) for m in maps}) for x in (v, w)}
    assert got["fiber_counts"] == fiber_counts
    assert got["product_count"] == math.prod(fiber_counts.values())


# --- path independence -----------------------------------------------------------


def test_pk_full_aut_short_paths(fa):
    paths = [
        [ROOT, VertexAddr.parse("0")],
        [VertexAddr.parse("1"), ROOT, VertexAddr.parse("0")],
        [
            VertexAddr.parse("1.0"),
            VertexAddr.parse("1"),
            ROOT,
            VertexAddr.parse("0"),
        ],
    ]
    expected = (64, 128, 256)
    for path, count in zip(paths, expected):
        verdict = pk_check(fa, path, 1, 2)
        assert verdict.outcome == "holds"
        assert verdict.details["fixator_count"] == count
        assert verdict.details["reconstruction"] == "exhaustive"


def test_pk_full_aut_holds_at_k2_window_three(fa):
    path = [VertexAddr.parse("1"), ROOT, VertexAddr.parse("0")]
    verdict = pk_check(fa, path, 2, 3)
    assert verdict.outcome == "holds"
    assert verdict.details["fixator_count"] == 32768
    assert verdict.details["fiber_counts"] == {"1": 64, "ε": 8, "0": 64}
    assert verdict.details["product_count"] == 32768


def test_pk_bs_single_edge_fails(bs23):
    verdict = pk_check(bs23, list(EDGE), 1, 4)
    assert verdict.outcome == "fails"
    assert verdict.details["one_sided_trivial_certified"] is True
    assert verdict.details["product_count"] == 279936


def test_pk_matches_ipk_on_random_edges(cl, fa, bs23, p2):
    rng = random.Random(17)
    models = [cl, fa, bs23, p2]
    agreements = 0
    while agreements < 20:
        model = rng.choice(models)
        verts = ball_vertices(ROOT, 2, model.degree)
        v = rng.choice(verts)
        w = rng.choice(v.neighbors(model.degree))
        a = ipk_check(model, v, w, 1, 2)
        b = pk_check(model, [v, w], 1, 2)
        assert a.outcome == b.outcome
        agreements += 1


def test_pk_rejects_non_paths(fa):
    with pytest.raises(ValidationError):
        pk_check(fa, [ROOT], 1, 2)
    with pytest.raises(ValidationError):
        pk_check(fa, [ROOT, VertexAddr.parse("0.1")], 1, 2)
    with pytest.raises(ValidationError):
        pk_check(fa, [ROOT, VertexAddr.parse("0"), ROOT], 1, 1)


# --- the one fixator primitive ---------------------------------------------------


def _old_default_maps(model, tube, pinned):
    """The default fixator_maps_on as it was before the center rule: the
    stabilizer germs at the middle of the sorted pinned region, with a
    radius covering the tube, filtered, restricted and sorted by image
    words taken in the word order of the tube."""
    center = pinned[len(pinned) // 2]
    radius = max(tree_distance(center, x) for x in tube)
    pos = {x: p for p, x in enumerate(tube)}
    maps = {
        tuple(pos[g.apply(x)] for x in tube)
        for g in model.stab_germ_group(center, radius)
        if g.fixes(pinned)
    }
    by_word = sorted(range(len(tube)), key=lambda p: tube[p].word)
    return tuple(sorted(maps, key=lambda m: [tube[m[p]].word for p in by_word]))


# windows whose middle pinned vertex needs a larger radius than the path's
# center: (descriptor, path, k, R)
CENTER_WINDOWS = {
    f"{family}-{window}": (descriptor, path, k, radius)
    for family, descriptor in (
        ("constant-local", {"model": "constant_local", "d": 3, "F": "sym"}),
        ("bs23", {"model": "bs", "m": 2, "n": 3}),
        ("cover-c25", {"model": "cover", "graph": "C", "p": 2, "r": 5}),
    )
    for window, path, k, radius in (
        ("edge-k2-r2", ["ε", "0"], 2, 2),
        ("path-k1-r2", ["1", "ε", "0"], 1, 2),
    )
}


@pytest.mark.parametrize("name", sorted(CENTER_WINDOWS))
def test_fixator_maps_on_matches_the_old_center(name):
    descriptor, path, k, radius = CENTER_WINDOWS[name]
    model = build_model(descriptor)
    path = [VertexAddr.parse(x) for x in path]
    tube = thicken(path, radius, model.degree)
    # the edge k-region and the pinned path region are both thicken(path, k-1)
    pinned = thicken(path, k - 1, model.degree)
    reach = {c: max(tree_distance(c, x) for x in tube) for c in pinned}
    least = min(reach.values())
    assert reach[pinned[len(pinned) // 2]] > least
    maps = model.fixator_maps_on(tube, pinned)
    # one stabilizer germ group is read, at a pinned vertex of least reach
    ((center, used),) = model._stab_perm_cache
    assert used == least == reach[center]
    assert tuple(maps.elements()) == _old_default_maps(model, tube, pinned)


def test_pk_reads_psl2_stabilizer_germs_at_the_path_center():
    # the middle pinned vertex, 2, would need 768 germs of radius 4
    model = build_model({"model": "psl2", "p": 2})
    pk_check(model, EDGE, 2, 2)
    assert set(model._stab_perm_cache) == {(ROOT, 3)}


PLUSK_FAMILIES = {
    "constant-local": {"model": "constant_local", "d": 3, "F": "sym"},
    "full-aut": {"model": "full_aut", "d": 3},
    "psl2": {"model": "psl2", "p": 2},
    "cover-c25": {"model": "cover", "graph": "C", "p": 2, "r": 5},
    "strip": {"model": "cover", "graph": "strip", "p": 2},
}


@pytest.mark.parametrize("name", sorted(PLUSK_FAMILIES))
def test_plusk_fixator_branch_matches_the_old_fixator_germs(name):
    model = build_model(PLUSK_FAMILIES[name])
    deg = model.degree
    for v, k in itertools.product((ROOT, VertexAddr.parse("1")), (1, 2)):
        regions = [edge_region(v, v.step(c), k, deg) for c in range(deg)]
        # full Aut enumerated pinned ball germs; the default filtered the
        # stabilizer germs at v
        if name == "full-aut":
            ball = ball_vertices(v, 2, deg)
            old = (
                Germ.from_mapping(v, v, 2, m)
                for region in regions
                for m in ref_subtree_isos(deg, ball, v, ball, v, pins={x: x for x in region})
            )
        else:
            old = (
                g for region in regions for g in model.stab_germ_group(v, 2)
                if g.fixes(region)
            )
        assert plusk_generator_germs(model, v, k, 2) == sorted_germs(old)


# --- closure comparison and idempotence -----------------------------------------


def test_kclosure_equal_reflexive(cl, bs23):
    assert kclosure_equal(cl, cl, 1).outcome == "holds"
    assert kclosure_equal(bs23, bs23, 1).outcome == "holds"


def test_kclosure_equal_rejects_degree_mismatch(cl, bs23):
    from treeclose.errors import DegreeMismatch

    with pytest.raises(DegreeMismatch):
        kclosure_equal(cl, bs23, 1)


_C25 = {"model": "cover", "graph": "C", "p": 2, "r": 5}
_C27 = {"model": "cover", "graph": "C", "p": 2, "r": 7}
_STRIP2 = {"model": "cover", "graph": "strip", "p": 2}

# (model, other, k, probe radius); at the root, the stabiliser germ groups
# of C(2,5), C(2,7) and the strip have 32, 128 and 128 elements at radius 3,
# and 32, 128 and 512 at radius 4
COMMON_COUNT_CASES = [
    pytest.param(a, b, k, None, id=f"{name}-k{k}")
    for name, a, b in (("c25-c27", _C25, _C27), ("c25-strip", _C25, _STRIP2), ("c27-strip", _C27, _STRIP2))
    for k in (1, 2)
] + [
    pytest.param({"model": "full_aut", "d": 3}, {"model": "constant_local", "d": 3, "F": "sym"},
                 1, None, id="full_aut-sym3-k1"),
    pytest.param(_C27, _STRIP2, 1, 4, id="c27-strip-k1-probe4"),
]


@pytest.mark.parametrize("descriptor_a, descriptor_b, k, probe", COMMON_COUNT_CASES)
def test_common_counts_are_the_intersections_of_element_germ_sets(descriptor_a, descriptor_b, k, probe):
    # the reference lists both sides' element germs toward each neighbour
    for a, b in ((descriptor_a, descriptor_b), (descriptor_b, descriptor_a)):
        model_a, model_b = build_model(a), build_model(b)
        verdict = kclosure_equal(model_a, model_b, k, probe)
        radius = verdict.details["probe_radius"]
        want = {}
        for x in ROOT.neighbors(model_a.degree):
            ga = element_germs_at(model_a, ROOT, radius, x)
            gb = element_germs_at(model_b, ROOT, radius, x)
            if ga or gb:
                want[x.render()] = len(ga & gb)
        assert all(want.values())
        assert verdict.outcome == "holds"
        assert verdict.details["common_counts"] == want


def test_compare_lists_only_the_smaller_stabiliser_chain(monkeypatch):
    # at probe radius 3 the strip's chain at the root has 128 elements and
    # C(2,5)'s 32: the common germs sift the smaller coset through the larger
    listed = []
    elements = StabChain.elements

    def recording(chain):
        listed.append(chain)
        return elements(chain)

    monkeypatch.setattr(StabChain, "elements", recording)
    for a, b in ((_C25, _STRIP2), (_STRIP2, _C25)):
        model_a, model_b = build_model(a), build_model(b)
        verdict = kclosure_equal(model_a, model_b, 1)
        assert verdict.outcome == "holds"
        assert verdict.details["probe_radius"] == 3
        small, large = sorted(
            (model_a.stab_germ_chain(ROOT, 3), model_b.stab_germ_chain(ROOT, 3)), key=StabChain.order
        )
        assert (small.order(), large.order()) == (32, 128)
        assert any(chain is small for chain in listed)
        assert not any(chain is large for chain in listed)
        listed.clear()


def test_oracle_model_idempotence(cl):
    # l-legality against the k-legal germ oracle equals l-legality directly
    oracle = KClosureOracleModel(cl, 2)
    targets = [ROOT] + [ROOT.step(c) for c in range(3)]
    checked = 0
    for w in targets:
        for g in iterate_ball_germs(3, ROOT, w, 2):
            direct = check_k_legal(cl, g, 1)
            via_oracle = check_k_legal(oracle, g, 1)
            assert direct == via_oracle
            checked += 1
    assert checked == 192


def test_oracle_model_is_its_own_closure(cl):
    oracle = KClosureOracleModel(cl, 2)
    want = closure_germs_at_targets(cl, ROOT, 2, 2)
    got = [Germ(ROOT, ROOT, 2, p, 3) for p in oracle.stab_germ_chain(ROOT, 2).elements()]
    assert {g.sort_key() for g in got} <= {g.sort_key() for g in want}
    assert len(got) == len([g for g in want if g.dst_center == ROOT])


# --- generator germs --------------------------------------------------------------


def test_plusk_bs_base_exponents(bs23):
    germs = plusk_generator_germs(bs23, ROOT, 1, 2)
    assert len(germs) == 24
    stab_by_exponent = {
        i: bs23.germ_of(bs23.a_power(i), ROOT, 1) for i in range(6)
    }
    seen = set()
    for g in germs:
        small = restrict(g, ROOT, 1, 5)
        matches = [i for i, s in stab_by_exponent.items() if s == small]
        assert len(matches) == 1
        seen.add(matches[0])
    assert seen == {0, 2, 3, 4}


def test_plusk_bs_germs_fix_an_edge(bs23):
    for g in plusk_generator_germs(bs23, ROOT, 1, 2):
        assert g.apply(ROOT) == ROOT
        assert any(g.apply(ROOT.step(c)) == ROOT.step(c) for c in range(5))


def test_plusk_bs_closure_is_closed(bs23):
    germs = plusk_generator_germs(bs23, ROOT, 1, 2)
    closed = germ_closure(germs)
    assert len(closed) == 36
    pool = set(closed)
    for a in closed:
        for b in closed:
            assert compose(a, b) in pool
    assert all(check_k_legal(bs23, g, 1) for g in closed)


@pytest.mark.parametrize("vertex", ["ε", "1.2"])
def test_plusk_bs_twisted_generators_are_legal_at_k2(bs23, vertex):
    # the closure of these generators exceeds the germ guard, so the
    # generators themselves are checked
    germs = plusk_generator_germs(
        bs23, VertexAddr.parse(vertex), 2, 3, samples=2, rng_seed=0
    )
    untwisted = plusk_generator_germs(bs23, VertexAddr.parse(vertex), 2, 3)
    assert len(germs) > len(untwisted)
    cache = {}
    assert all(check_k_legal(bs23, g, 2, cache) for g in germs)


def test_plusk_cl_is_trivial(cl):
    germs = plusk_generator_germs(cl, ROOT, 2, 3)
    assert len(germs) == 1
    assert germs[0].is_identity_map


def test_plusk_full_aut_nonempty_and_stable(fa):
    germs = plusk_generator_germs(fa, ROOT, 1, 2)
    assert any(not g.is_identity_map for g in germs)
    closed = germ_closure(germs)
    assert germ_closure(closed) == closed
    assert all(check_k_legal(fa, g, 1) for g in closed)


# every plusk-generators input of the corpus, of the cover digests and of
# the element-limit sites, and a twisted one at k = 2
PLUSK_INPUTS = {
    **{name: json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
       for name in EXPECTED_EXIT if "plusk" in name},
    **{name: scenario for table in (COVER_REPORT_SHA256, LIMIT_SITES)
       for name, (scenario, _, _) in table.items() if scenario["verb"] == "plusk-generators"},
    "bs-twisted-k2": {"model": {"model": "bs", "m": 2, "n": 3}, "verb": "plusk-generators",
                      "vertex": "1.2", "k": 2, "radius": 2, "samples": 1, "seed": 7},
}


@pytest.mark.parametrize("name", sorted(PLUSK_INPUTS))
def test_plusk_report_matches_the_listed_closure(name):
    # the verb counts the closure on a chain and checks the generators'
    # legality; the reference lists the closure and checks every germ
    scenario = PLUSK_INPUTS[name]
    result = run_scenario(scenario)["result"]
    model = build_model(scenario["model"])
    k = scenario["k"]
    germs = plusk_generator_germs(
        model, VertexAddr.parse(scenario.get("vertex", "ε")), k, scenario.get("radius"),
        samples=scenario.get("samples", 0), rng_seed=scenario.get("seed", 0),
    )
    closed = germ_closure(germs)
    cache = {}
    assert result["closure_count"] == len(closed)
    assert result["closure_all_k_legal"] == all(check_k_legal(model, g, k, cache) for g in closed)


def test_plusk_report_fails_with_a_generator_that_is_not_k_legal(bs23, monkeypatch):
    # BS(2,3)'s generators at ε for k = 1 on the 2-ball, and the swap of the
    # leaves 3.0 and 3.1, which check_k_legal rejects: the strong generators
    # of the closure must then fail, as the listed closure does
    swap = {v: v for v in ball_vertices(ROOT, 2, 5)}
    a, b = VertexAddr.parse("3.0"), VertexAddr.parse("3.1")
    swap[a], swap[b] = b, a
    bad = Germ.from_mapping(ROOT, ROOT, 2, swap)
    assert not check_k_legal(bs23, bad, 1)
    germs = plusk_generator_germs(bs23, ROOT, 1) + (bad,)
    monkeypatch.setattr(cli, "plusk_generator_germs", lambda *args, **kwargs: germs)
    report = run_scenario({"model": {"model": "bs", "m": 2, "n": 3},
                           "verb": "plusk-generators", "k": 1})
    closed = germ_closure(germs)
    cache = {}
    assert report["result"]["closure_count"] == len(closed) == 144
    assert report["result"]["closure_all_k_legal"] is False
    assert report["exit_code"] == 10
    assert not all(check_k_legal(bs23, g, 1, cache) for g in closed)


def test_closure_chain_takes_orders_of_strong_generators_only(bs23, monkeypatch):
    # 138 of the 144 generators at ε, k = 1, radius 3 sift to the identity;
    # only those that leave a residue have their order taken for the refusal
    germs = plusk_generator_germs(bs23, ROOT, 1, 3)
    calls = []
    order = permgroup.perm_order
    monkeypatch.setattr(permgroup, "perm_order", lambda p: calls.append(p) or order(p))
    chain = closure_chain([g.perm for g in germs], len(germs[0].perm))
    assert (len(germs), chain.order()) == (144, 216)
    assert 0 < len(calls) <= len(chain.generators()) < len(germs)


# --- commutator recursion ----------------------------------------------------------


def test_commutator_trivial_case(fa):
    core, fibers = axis_fibers(fa, 1, 2, -3, 3)
    ident = {z: {y: y for y in fibers[z]} for z in core}
    out = solve_commutator(fa, 1, ident, 2, -3, 3)
    for z, m in out["g"].items():
        assert all(a == b for a, b in m.items())
    assert out["free"] == (0,)


def test_commutator_single_nontrivial_factor(fa):
    rng = random.Random(23)
    core, fibers = axis_fibers(fa, 1, 2, -3, 3)
    f = {z: {y: y for y in fibers[z]} for z in core}
    f[2] = random_fiber_auto(3, fibers[2], core[2], rng)
    while all(a == b for a, b in f[2].items()):
        f[2] = random_fiber_auto(3, fibers[2], core[2], rng)
    out = solve_commutator(fa, 1, f, 2, -3, 3)
    assert 2 in out["verified"]
    assert any(a != b for a, b in out["g"][2].items())


def test_commutator_free_orbit(fa):
    rng = random.Random(29)
    core, fibers = axis_fibers(fa, 1, 2, -3, 3)
    ident = {z: {y: y for y in fibers[z]} for z in core}
    g0 = random_fiber_auto(3, fibers[0], core[0], rng)
    out = solve_commutator(fa, 1, ident, 2, -3, 3, free_choices={0: g0})
    assert out["g"][0] == g0
    # identity right-hand side carries the choice along the whole axis
    for z in core:
        assert any(a != b for a, b in out["g"][z].items())


def test_commutator_random_assignments(fa):
    rng = random.Random(31)
    for amplitude in (1, 2):
        core, fibers = axis_fibers(fa, amplitude, 2, -4, 4)
        for _ in range(3):
            f = {
                z: random_fiber_auto(3, fibers[z], core[z], rng) for z in core
            }
            out = solve_commutator(fa, amplitude, f, 2, -4, 4)
            assert out["verified"] == tuple(range(-4 + amplitude, 5))
            assert out["free"] == tuple(range(amplitude))


# --- misc -----------------------------------------------------------------------


def test_local_action_cyclic_orders():
    for (m, n), order in (((2, 3), 6), ((1, 2), 2), ((2, 4), 4), ((3, 4), 12)):
        bs = build_model({"model": "bs", "m": m, "n": n})
        fp = local_action(bs, ROOT)
        assert fp["order"] == order
        assert fp["cyclic"] is True


def test_sorted_germs_deduplicates(cl):
    gs = list(iterate_ball_germs(3, ROOT, ROOT, 1))
    assert len(sorted_germs(gs + gs)) == len(gs)


def test_verdict_json_shape():
    v = Verdict("holds", notes=("fine",), details={"x": 1})
    data = v.to_json()
    assert data["outcome"] == "holds"
    assert data["notes"] == ["fine"]
    assert data["details"] == {"x": 1}
