"""Axioms every group-model backend must satisfy."""

import hashlib
import itertools
import json
import math
import random

import pytest

from treeclose import permgroup
from treeclose.errors import TooLarge, ValidationError
from treeclose.kclosure import check_k_legal, random_ball_germ
from treeclose.models import FullAutModel, build_model
from treeclose.models.base import GroupModel, TreeChart
from treeclose.models.cover import CycleGraph
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_size,
    ball_vertices,
    germ_of_map,
    identity_germ,
    iterate_ball_germs,
    sorted_germs,
    tree_distance,
)

from germ_reference import stab_germs
from sampling import element_pool

DESCRIPTORS = [
    {"model": "constant_local", "d": 3, "F": "sym"},
    {"model": "full_aut", "d": 3},
    {"model": "bs", "m": 2, "n": 3},
    {"model": "psl2", "p": 2},
    {"model": "cover", "graph": "C", "p": 2, "r": 5},
    {"model": "cover", "graph": "strip", "p": 2},
    # K_{4,4}: most of its automorphisms are not level maps
    {"model": "cover", "graph": "C", "p": 2, "r": 4},
]
# distinct radius-1 stabilizer germs at the root, in DESCRIPTORS order
RADIUS1_COUNTS = [6, 6, 6, 6, 8, 8, 24]


def _descriptor_id(descriptor):
    if descriptor.get("graph") == "strip":
        return "strip"
    return "cover-c24" if descriptor.get("r") == 4 else descriptor["model"]


@pytest.fixture(params=DESCRIPTORS, ids=_descriptor_id)
def model(request):
    return build_model(request.param)


def _sample_elements(model, count, rng):
    pool = element_pool(model)
    return [rng.choice(pool) for _ in range(count)]


# SHA-256 of the first 50 discreteness candidates at k = 1 and k = 2, in
# DESCRIPTORS order; C(2, 5) has 31. Each stream is the same at both k.
STREAM_SHA256 = [
    ("42691665c7ea773edc49216dd6b71b199cdc022ef0d0a9017f7983e303187cef",) * 2,
    ("0ae990268d7e69dc628c12afa92295e1aad4b9be6c7d027604c859e36fcc0f57",
     "750eabf1ce6c7f3bc21ae346a108461ed69998ca7145c44662d4b20e2255eaf5"),
    ("9b2c1ad2d65f8d1b939ca3d29160e7c9ac35bf9620510758322e70f07ff864b4",) * 2,
    ("56fe1017f9b300afbf07f3f7e0a7275541ff9b80aeaeb5759cce3d8e83e1ad9e",) * 2,
    ("bc2d566973cc9422fc9eec3258e872afabdbcb884c8e17654e64d6abe57d7410",) * 2,
    ("b501132d9914022048ddc893fd555d859b3359b71481b2dcb79edce16542436b",) * 2,
    ("012b28797a6830a77697f90c9239dbc92072d052d613fced241c8c6f5a41b68b",) * 2,
]


@pytest.mark.parametrize(
    "descriptor, digests",
    zip(DESCRIPTORS, STREAM_SHA256),
    ids=[_descriptor_id(d) for d in DESCRIPTORS],
)
def test_nondiscreteness_candidates_are_pinned(descriptor, digests):
    model = build_model(descriptor)
    for k, digest in zip((1, 2), digests):
        stream = itertools.islice(model.nondiscreteness_candidates(k), 50)
        data = json.dumps([model.element_to_json(g) for g in stream], sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == digest, k


def test_build_model_rejects_unknown():
    with pytest.raises(ValidationError):
        build_model({"model": "nope"})
    with pytest.raises(ValidationError):
        build_model("bs")


def test_describe_names_model(model):
    desc = model.describe()
    assert desc["model"] == model.name
    assert desc["degree"] == model.degree


def test_identity_acts_trivially(model):
    e = model.identity()
    for v in ball_vertices(ROOT, 2, model.degree):
        assert model.act(e, v) == v
    assert model.germ_of(e, ROOT, 2).is_identity_map


def test_action_axioms_on_random_triples(model):
    # 1000 random (g, h, v): composition and inverse compatibility
    rng = random.Random(hash(model.name) & 0xFFFF)
    gs = _sample_elements(model, 1000, rng)
    hs = _sample_elements(model, 1000, rng)
    verts = ball_vertices(ROOT, 2, model.degree)
    for g, h in zip(gs, hs):
        v = rng.choice(verts)
        assert model.act(model.mul(g, h), v) == model.act(g, model.act(h, v))
        assert model.act(model.inv(g), model.act(g, v)) == v


def test_action_preserves_distances(model):
    rng = random.Random(5)
    verts = ball_vertices(ROOT, 2, model.degree)
    for g in _sample_elements(model, 30, rng):
        u, w = rng.choice(verts), rng.choice(verts)
        assert tree_distance(model.act(g, u), model.act(g, w)) == tree_distance(u, w)


def test_germ_of_agrees_with_action(model):
    rng = random.Random(7)
    for g in _sample_elements(model, 15, rng):
        germ = model.germ_of(g, ROOT, 2)
        for v in ball_vertices(ROOT, 2, model.degree):
            assert germ.apply(v) == model.act(g, v)
        germ.validate(model.degree)


CUSTOM_F = {"model": "constant_local", "d": 4, "F": [[1, 0, 3, 2], [2, 3, 0, 1]]}


@pytest.mark.parametrize(
    "descriptor",
    DESCRIPTORS + [CUSTOM_F],
    ids=[_descriptor_id(d) for d in DESCRIPTORS] + ["custom_F"],
)
def test_germ_of_matches_the_vertex_map_reference(descriptor):
    # the shell-by-shell builder against the germ of the vertex map act
    model = build_model(descriptor)
    degree = model.degree
    elements = random.Random(11).sample(element_pool(model), 6)
    centers = (ROOT, VertexAddr((1,)), VertexAddr((0, 2)))
    for g in elements:
        for center in centers:
            for radius in range(5):
                got = model.germ_of(g, center, radius)
                want = germ_of_map(lambda u: model.act(g, u), center, radius, degree)
                # at radius 0 the reference knows no degree; equality,
                # hashing, pairs and validation must not see that
                assert got == want and hash(got) == hash(want)
                assert got.pairs == want.pairs
                assert got.validate(degree) is got
                want.validate(degree)


def _families(cls=GroupModel):
    for sub in cls.__subclasses__():
        yield sub
        yield from _families(sub)


def test_germ_of_is_defined_once():
    found = list(_families())
    assert len(found) >= 5
    for cls in found:
        assert "germ_of" not in vars(cls), f"{cls.__name__} overrides germ_of"


def test_stab_germs_are_defined_once():
    # every family names stab_generators and shares the one chain path,
    # which the chain's own order cut bounds: no family overrides it
    found = list(_families())
    assert len(found) >= 5
    for cls in found:
        own = {"stab_germ_group", "stab_chain", "_stab_perms", "_stab_germs"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"
        assert not [name for name in vars(cls) if "closure" in name or "mulclose" in name]
    assert [cls for cls in found if "stab_germ_chain" in vars(cls)] == []
    assert not hasattr(GroupModel, "_stab_germs")
    assert not hasattr(permgroup, "mulclose")


def test_transporter_identity_case(model):
    t = model.transporter(ROOT, ROOT)
    assert model.act(t, ROOT) == ROOT


def test_transporter_reaches_orbit(model):
    reps = model.orbit_reps()
    assert reps[0] == ROOT
    for v in ball_vertices(ROOT, 2, model.degree):
        t = model.transporter(ROOT, v)
        if t is None:
            # only the two-orbit backend may refuse, and only off-orbit
            assert len(reps) == 2
            assert tree_distance(ROOT, v) % 2 == 1
        else:
            assert model.act(t, ROOT) == v


def test_orbit_rep_counts(model):
    expected = 2 if model.name == "psl2" else 1
    assert len(model.orbit_reps()) == expected


@pytest.mark.parametrize("descriptor", DESCRIPTORS, ids=_descriptor_id)
def test_stab_generators_are_named_at_orbit_representatives_only(descriptor, monkeypatch):
    # stabilisers along an orbit are conjugate: a chain anywhere else
    # conjugates the representative's germs, and legality sifts there
    chains, legality = build_model(descriptor), build_model(descriptor)
    germ = legality.germ_of(_sample_elements(legality, 1, random.Random(5))[0], ROOT, 4)
    seen = []
    named = type(chains).stab_generators

    def recorded(self, v, k):
        seen.append(v)
        return named(self, v, k)

    monkeypatch.setattr(type(chains), "stab_generators", recorded)
    for v in ("ε", "0", "1.2"):
        for k in (1, 2):
            chains.stab_germ_chain(VertexAddr.parse(v), k)
    assert check_k_legal(legality, germ, 2)
    assert seen and set(seen) <= set(chains.orbit_reps())


@pytest.mark.parametrize("descriptor, reps", [
    ({"model": "cover", "graph": "C", "p": 2, "r": 5}, ["ε"]),
    ({"model": "psl2", "p": 2}, ["ε", "0"]),
])
def test_legality_builds_chains_at_orbit_representatives_only(descriptor, reps):
    # each of the germ's k-balls (53 on C(2,5), 22 on PSL(2,Q_2)) is moved
    # onto a representative's ball, where one chain per orbit answers
    model = build_model(descriptor)
    germ = model.germ_of(_sample_elements(model, 1, random.Random(7))[0], ROOT, 5)
    assert check_k_legal(model, germ, 2)
    assert set(model._stab_chain_cache) == {(VertexAddr.parse(r), 2) for r in reps}


def test_legality_fails_at_the_centre_between_psl2_orbits():
    # ε and 0 lie in the two orbits of PSL(2, Q_2), so no element sends
    # one to the other, whatever the germ does around them
    model = build_model({"model": "psl2", "p": 2})
    germ = next(iterate_ball_germs(3, ROOT, VertexAddr.parse("0"), 2))
    assert check_k_legal(model, germ, 1, explain=True) == (False, ROOT)


def test_stab_germ_group_is_closed(model):
    from treeclose.tree_core import compose, invert

    germs = model.stab_germ_group(ROOT, 1)
    pool = set(germs)
    ident = identity_germ(ROOT, 1, model.degree)
    assert ident in pool
    for a in germs:
        assert invert(a) in pool
        for b in germs:
            assert compose(a, b) in pool


def test_element_json_round_trip(model):
    rng = random.Random(13)
    for g in _sample_elements(model, 10, rng):
        data = model.element_to_json(g)
        back = model.element_from_json(data)
        for v in ball_vertices(ROOT, 2, model.degree):
            assert model.act(back, v) == model.act(g, v)


def test_stab_germ_group_is_cached_and_sorted(model):
    # each call lists the cached chain, in sorted_germs order, into a set;
    # only the stab-germs listing keeps that order (see
    # test_stab_germs_listing_is_sorted in test_cli.py)
    chain = model.stab_germ_chain(ROOT, 1)
    listed = tuple(Germ(ROOT, ROOT, 1, p, model.degree) for p in chain.elements())
    germs = model.stab_germ_group(ROOT, 1)
    assert isinstance(germs, frozenset)
    assert sorted_germs(germs) == listed
    assert len(listed) == chain.order()
    assert model.stab_germ_group(ROOT, 1) == germs
    assert model.stab_germ_chain(ROOT, 1) is chain


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("v", ["ε", "0", "1.2"])
def test_stab_chain_lists_the_stabilizer_germ_group(model, v, k):
    # the chain against the reference closure (full Aut: the ball
    # enumeration)
    v = VertexAddr.parse(v)
    group = stab_germs(model, v, k)
    chain = model.stab_germ_chain(v, k)
    assert chain.order() == len(group)
    listed = tuple(Germ(v, v, k, p, model.degree) for p in chain.elements())
    assert listed == sorted_germs(group)
    assert model.stab_germ_group(v, k) == group


@pytest.mark.parametrize("v", ["ε", "0", "1.2"])
def test_sifting_agrees_with_membership_in_the_reference(model, v):
    # every ball germ fixing v at radius 1; at radius 2 the group's own
    # germs and seeded random germs fixing v, most of them outside it
    v = VertexAddr.parse(v)
    rng = random.Random(11)
    degree = model.degree
    at_1 = list(iterate_ball_germs(degree, v, v, 1))
    at_2 = sorted_germs(stab_germs(model, v, 2)) + tuple(
        random_ball_germ(degree, v, v, 2, rng) for _ in range(100)
    )
    for k, germs in ((1, at_1), (2, at_2)):
        group = stab_germs(model, v, k)
        chain = model.stab_germ_chain(v, k)
        answers = [g.perm in chain for g in germs]
        assert answers == [g in group for g in germs]
        assert any(answers)
    if model.name != "full_aut":
        assert not all(answers)


@pytest.mark.parametrize("degree, k", [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_full_aut_chain_order_is_the_wreath_product_order(degree, k):
    # d! * ((d-1)!)^(|B(k-1)| - 1): 12,582,912 for d = 3, k = 4, past the
    # element limit, so it is counted and never listed
    chain = FullAutModel(degree).stab_chain(VertexAddr.parse("1.2"), k)
    want = math.factorial(degree) * math.factorial(degree - 1) ** (ball_size(degree, k - 1) - 1)
    assert chain.order() == want
    if (degree, k) == (3, 4):
        assert want == 12582912


def test_strip_chain_keeps_every_strong_generator_on_its_levels():
    # a level that drops the strong generators added below it gives 1,024
    chain = build_model({"model": "cover", "graph": "strip", "p": 3}).stab_chain(ROOT, 2)
    assert chain.order() == 5184


@pytest.mark.parametrize(
    "descriptor, count",
    zip(DESCRIPTORS, RADIUS1_COUNTS),
    ids=[_descriptor_id(d) for d in DESCRIPTORS],
)
def test_stab_germ_group_guard(descriptor, count, monkeypatch):
    # the element limit also bounds model set-up (closure_group, aut_chain)
    # and balls, so those are built before it is lowered
    model = build_model(descriptor)
    ball_vertices(ROOT, 1, model.degree)
    if isinstance(getattr(model, "base", None), CycleGraph):
        assert model.base.aut_chain
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", str(count - 1))
    with pytest.raises(TooLarge, match=f"^stabilizer germ group exceeded {count - 1}$"):
        model.stab_germ_group(ROOT, 1)
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", str(count))
    assert len(model.stab_germ_group(ROOT, 1)) == count


@pytest.mark.parametrize(
    "descriptor, neighbors",
    [
        ({"model": "bs", "m": 2, "n": 3}, lambda model: model._coset_neighbors),
        ({"model": "psl2", "p": 2}, lambda model: model.ordered_neighbors),
        ({"model": "psl2", "p": 3}, lambda model: model.ordered_neighbors),
        ({"model": "cover", "graph": "C", "p": 2, "r": 5},
         lambda model: model.base.ordered_neighbors),
        ({"model": "cover", "graph": "strip", "p": 2},
         lambda model: model.base.ordered_neighbors),
    ],
    ids=["bs", "psl2", "psl2-p3", "cover", "strip"],
)
def test_charts_follow_one_colouring_rule(descriptor, neighbors):
    model = build_model(descriptor)
    neighbors = neighbors(model)
    tree, degree = model.tree, model.degree
    assert isinstance(tree, TreeChart)
    # the walk down charts the proper prefixes only
    deep = VertexAddr((1, 0, 1))
    tree.obj_of(deep)
    assert (1, 0) in tree._charts and deep.word not in tree._charts
    to_obj, _ = tree.chart(ROOT)
    assert [to_obj[c] for c in range(degree)] == list(neighbors(tree.obj_of(ROOT)))
    for x in ball_vertices(ROOT, 2, degree):
        to_obj, to_color = tree.chart(x)
        for c in range(degree):
            assert tree.obj_of(x.step(c)) == to_obj[c]
            assert to_color[to_obj[c]] == c
        if x != ROOT:
            # the inward color is kept; the rest go out in ascending order
            inward, parent = x.word[-1], tree.obj_of(VertexAddr(x.word[:-1]))
            assert to_obj[inward] == parent
            nbrs = [y for y in neighbors(tree.obj_of(x)) if y != parent]
            assert [to_obj[c] for c in range(degree) if c != inward] == nbrs
