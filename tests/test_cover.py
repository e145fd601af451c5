"""Universal-cover backend over the doubled-cycle graphs and the strip."""

import itertools
import math
import random

import pytest

from treeclose.errors import TooLarge, ValidationError
from treeclose.kclosure import (
    discreteness_certificate,
    first_stab_germ_difference,
    germ_group_difference,
    kclosure_equal,
    local_action,
    nondiscreteness_certificate,
)
from treeclose.models import base, build_model
from treeclose.models.cover import (
    CycleGraph,
    FiniteAuto,
    StripAuto,
    StripGraph,
    is_graph_automorphism,
)
from treeclose.permgroup import StabChain
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_vertices,
    sorted_germs,
    sphere_vertices,
)

from germ_reference import iterate_graph_autos, mulclose, stab_germs
from sampling import element_pool


@pytest.fixture(scope="module")
def c25():
    return build_model({"model": "cover", "graph": "C", "p": 2, "r": 5})


@pytest.fixture(scope="module")
def strip():
    return build_model({"model": "cover", "graph": "strip", "p": 2})


def test_cycle_graph_shape():
    g = CycleGraph(2, 5)
    assert len(g.vertices()) == 10
    for v in g.vertices():
        assert len(g.ordered_neighbors(v)) == 4


def test_cycle_graph_automorphism_count():
    # rotations x reflection x independent fiber swaps: 5 * 2 * 2^5
    assert CycleGraph(2, 5).aut_chain.order() == 320


# (p, r): C(3, 4) = K_{6,6} has 2 (6!)^2 = 1,036,800 automorphisms, past
# the default element limit; C(p, 4) = K_{2p,2p} in general, so most of its
# automorphisms are no level maps
CYCLE_GRAPHS = [(2, r) for r in range(3, 10)] + [(3, 3), (3, 4), (3, 5), (4, 3)] + [
    (1, r) for r in range(3, 7)
]


def _index_perm(graph, auto):
    verts = graph.vertices()
    return tuple(verts.index(auto.apply(v)) for v in verts)


@pytest.mark.parametrize("p, r", CYCLE_GRAPHS)
def test_cycle_graph_chain_matches_the_reference_enumerator(p, r, monkeypatch):
    graph = CycleGraph(p, r)
    if (p, r) == (3, 4):
        with pytest.raises(TooLarge, match="^automorphism group exceeds 1000000$"):
            graph.aut_chain
        monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", str(2 * 10**6))
    chain = graph.aut_chain
    verts = graph.vertices()
    root, ident = graph.root, graph.identity()
    if (p, r) == (3, 4):
        # the backtracking takes seconds past the first few thousand: compare
        # the order and the start of the listing and of the candidate stream
        assert chain.order() == 2 * math.factorial(6) ** 2
        first = list(itertools.islice(iterate_graph_autos(graph), 3000))
        assert list(itertools.islice(chain.elements(), 3000)) == [
            _index_perm(graph, a) for a in first
        ]
        assert list(itertools.islice(graph.candidate_autos(), 2999)) == first[1:]
        assert {chain.fixing_order([i]) for i in range(len(verts))} == {chain.order() // 12}
        return
    autos = list(iterate_graph_autos(graph))
    # element for element, in the enumerator's order
    assert [graph._auto(g) for g in chain.elements()] == autos
    assert list(graph.candidate_autos()) == [
        a for a in autos if a.apply(root) == root and a != ident
    ]
    for i, bv in enumerate(verts):
        assert chain.fixing_order([i]) == sum(a.apply(bv) == bv for a in autos)


def test_larger_cycle_has_a_rotation():
    g = CycleGraph(3, 7)
    # the transporter between two vertices of one fiber index rotates
    rot = g.transporter(g.root, (1, 1))
    assert is_graph_automorphism(g, rot)
    seen = g.root
    for _ in range(7):
        seen = rot.mapping[seen]
    assert seen == g.root


def test_degree_and_chart(c25):
    assert c25.degree == 4
    assert c25.base_of(ROOT) == CycleGraph(2, 5).root
    for w in ball_vertices(ROOT, 2, 4):
        for x in w.neighbors(4):
            # covering maps send tree edges to graph edges
            assert c25.base_of(x) in CycleGraph(2, 5).ordered_neighbors(
                c25.base_of(w)
            )


def test_local_action_order_eight(c25):
    fp = local_action(c25, ROOT)
    assert fp["order"] == 8
    assert fp["transitive"] is True
    assert fp["abelian"] is False
    for w in sphere_vertices(ROOT, 1, 4):
        assert local_action(c25, w)["order"] == 8


def test_stab_germ_counts_against_strip(c25, strip):
    assert [len(c25.stab_germ_group(ROOT, k)) for k in (1, 2, 3)] == [8, 32, 32]
    assert [len(strip.stab_germ_group(ROOT, k)) for k in (1, 2, 3)] == [8, 32, 128]


def test_finite_cover_stab_closures_count_their_products(monkeypatch):
    # the generators are the 5 strong generators of the base root's
    # stabiliser, not all 32 automorphisms fixing it (1,696 germs); every
    # other vertex conjugates their germs by one transporter germ, 5 + 52
    # germs in all, and the chains build 5,410 perms in all
    germs = []
    germ_of = base.GroupModel.germ_of

    def counted_germ_of(self, g, center, radius):
        germs.append(None)
        return germ_of(self, g, center, radius)

    monkeypatch.setattr(base.GroupModel, "germ_of", counted_germ_of)
    model = build_model({"model": "cover", "graph": "C", "p": 2, "r": 5})
    built = 0
    for v in ball_vertices(ROOT, 3, model.degree):
        model.stab_germ_group(v, 2)
        built += model.stab_germ_chain(v, 2)._built
    assert built == 5410
    assert len(germs) == 57


@pytest.mark.parametrize("p, r", [(2, 3), (2, 4), (2, 5), (2, 7)])
def test_cycle_graph_stab_autos_are_stabiliser_chain_transversals(p, r):
    # C(2, 4) is K_{4,4}: its 1,152 automorphisms outnumber the 2r (p!)^r
    # that permute levels. Stabilisers elsewhere are the root's conjugates,
    # which the contract tests check at 0 and 1.2 against the reference
    graph = CycleGraph(p, r)
    verts = graph.vertices()
    fixing = {a for a in iterate_graph_autos(graph) if a.apply(graph.root) == graph.root}
    gens = graph.stab_autos(1)
    assert set(mulclose(gens, mul=FiniteAuto.compose)) == fixing
    # every generator fixes the root, and the transversals of their chain
    # with the root first in its base multiply to the stabiliser's order
    assert all(a.apply(graph.root) == graph.root for a in gens)
    assert verts[0] == graph.root
    chain = StabChain([_index_perm(graph, a) for a in gens], range(len(verts)))
    assert chain.order() == len(fixing)


def test_deck_transformation_fixes_fibers(c25):
    base = c25.base_of(ROOT)
    translate = next(
        w for w in sphere_vertices(ROOT, 5, 4) if c25.base_of(w) == base
    )
    deck = c25.lift_at(c25.base.identity(), ROOT, translate)
    for v in ball_vertices(ROOT, 2, 4):
        assert c25.base_of(c25.act(deck, v)) == c25.base_of(v)
    assert c25.act(deck, ROOT) == translate


def test_closure_comparison_boundary(c25, strip):
    assert kclosure_equal(c25, strip, 1).outcome == "holds"
    assert kclosure_equal(c25, strip, 2).outcome == "holds"
    verdict = kclosure_equal(c25, strip, 3)
    assert verdict.outcome == "fails"
    assert verdict.witness is not None


def test_first_stab_germ_difference(c25, strip):
    found = first_stab_germ_difference(c25, strip, ROOT, 4)
    assert found is not None
    k, germ = found
    assert k == 3
    assert germ.radius == 3


@pytest.mark.parametrize("r, first", [(5, 3), (7, 4)])
def test_chain_difference_is_the_least_germ_of_the_set_difference(r, first, strip):
    # the cover-compare scenarios' pair C(2,5) and the strip, then C(2,7);
    # the groups first differ at radius `first`
    cover = build_model({"model": "cover", "graph": "C", "p": 2, "r": r})
    for k in range(1, first + 1):
        for a, b in ((cover, strip), (strip, cover)):
            ga, gb = stab_germs(a, ROOT, k), stab_germs(b, ROOT, k)
            want = None if ga == gb else sorted_germs((ga - gb) or (gb - ga))[0]
            got = germ_group_difference(a.stab_germ_chain(ROOT, k), b.stab_germ_chain(ROOT, k))
            assert (got if got is None else Germ(ROOT, ROOT, k, got, 4)) == want
        assert (want is None) == (k < first)


def test_models_compare_equal_to_themselves(c25):
    assert kclosure_equal(c25, c25, 2).outcome == "holds"


def test_discreteness_certificate(c25):
    assert discreteness_certificate(c25, 1).outcome == "inconclusive"
    assert discreteness_certificate(c25, 2).outcome == "holds"


def test_two_closure_is_not_discrete(c25):
    verdict = nondiscreteness_certificate(c25, 2, budget=4000)
    assert verdict.outcome == "holds"
    assert verdict.witness is not None


def test_strip_one_sided_fixators_trivial(strip, c25):
    edge = (ROOT, ROOT.step(0))
    assert strip.one_sided_fixators_trivial(edge)
    assert c25.one_sided_fixators_trivial(edge)


def test_strip_products_act_as_composed_maps():
    # Sym(3) is not abelian, so this also checks the order in which each
    # level's fiber permutations compose; Sym(2) could not
    model = build_model({"model": "cover", "graph": "strip", "p": 3})
    rng = random.Random(3)
    pool = element_pool(model)
    for _ in range(100):
        g, h = rng.choice(pool), rng.choice(pool)
        for v in ball_vertices(ROOT, 2, model.degree):
            assert model.act(model.mul(g, h), v) == model.act(g, model.act(h, v))
            assert model.act(model.inv(g), model.act(g, v)) == v


def test_strip_shape():
    g = StripGraph(2)
    root = g.root
    assert len(g.ordered_neighbors(root)) == 4


def _strip_window_stab_germs(model, v, k):
    """Reference: the germ of the lift of every window automorphism that
    fixes v's base vertex, (p!)^(2k+1) level permutations times two
    reflections, with the base vertex's fiber fixed on its own level."""
    i0, j0 = model.base_of(v)
    levels = range(i0 - k, i0 + k + 1)
    choices = [
        [s for s in itertools.permutations(range(model.p)) if lv != i0 or s[j0 - 1] == j0 - 1]
        for lv in levels
    ]
    autos = (
        StripAuto.of(eps, i0 - eps * i0, dict(zip(levels, combo)))
        for eps in (1, -1)
        for combo in itertools.product(*choices)
    )
    return frozenset(model.germ_of(model.lift_at(a, v, v), v, k) for a in autos)


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_strip_stab_germs_from_generators_match_the_window_product(p, k):
    model = build_model({"model": "cover", "graph": "strip", "p": p})
    # the root, a vertex on the level below and one two levels up
    for v in ("ε", "0", f"{p}.{p + 1}"):
        v = VertexAddr.parse(v)
        assert model.stab_germ_group(v, k) == _strip_window_stab_germs(model, v, k)


def test_finite_cover_stab_germs_lift_every_fixing_automorphism():
    # C(2, 4) is K_{4,4}: most of its 1,152 automorphisms are no level maps
    for r in (3, 4, 5):
        model = build_model({"model": "cover", "graph": "C", "p": 2, "r": r})
        for v in ("ε", "1", "2.0"):
            v = VertexAddr.parse(v)
            bv = model.base_of(v)
            for k in (1, 2, 3):
                want = frozenset(
                    model.germ_of(model.lift_at(a, v, v), v, k)
                    for a in iterate_graph_autos(model.base)
                    if a.apply(bv) == bv
                )
                assert model.stab_germ_group(v, k) == want


@pytest.mark.parametrize(
    "raw",
    [
        # neighbours 2 and 3 of the root would both go to 2
        {"eps": 1, "shift": 0, "sigmas": {"1": [0, 0]}},
        {"eps": True, "shift": 0.7},
        {"eps": 2, "shift": 0},
        {"eps": 1, "shift": 0, "sigmas": {"1": [True, False]}},
    ],
    ids=["not-a-permutation", "bool-and-float", "eps-two", "bool-sigma"],
)
def test_strip_automorphisms_from_json_are_validated(strip, raw):
    with pytest.raises(ValidationError):
        strip.element_from_json({"auto": raw, "anchor_image": "ε"})


C25_IDENTITY_PAIRS = [[[i, j], [i, j]] for i in range(5) for j in (1, 2)]


@pytest.mark.parametrize(
    "raw",
    [
        {"pairs": 5},
        {"pairs": [[0, 1]]},
        {},
        # the identity, but for a bool and a float that equal 1
        {"pairs": [[[0, True], [0, True]]] + C25_IDENTITY_PAIRS[1:]},
        {"pairs": [[[0, 1.0], [0, 1]]] + C25_IDENTITY_PAIRS[1:]},
    ],
    ids=["pairs-int", "pair-of-ints", "no-pairs", "bool-coordinate", "float-coordinate"],
)
def test_cycle_graph_automorphisms_from_json_are_validated(c25, raw):
    with pytest.raises(ValidationError):
        c25.element_from_json({"auto": raw, "anchor_image": "ε"})
