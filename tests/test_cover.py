"""Universal-cover backend over the doubled-cycle graphs and the strip."""

import itertools

import pytest

from treeclose.kclosure import (
    discreteness_certificate,
    first_stab_germ_difference,
    kclosure_equal,
    local_action,
    nondiscreteness_certificate,
)
from treeclose.models import base, build_model
from treeclose.models.cover import (
    CycleGraph,
    StripAuto,
    StripGraph,
    aut_graph,
    is_graph_automorphism,
    rotation_auto,
)
from treeclose.tree_core import (
    ROOT,
    VertexAddr,
    ball_vertices,
    compose,
    sphere_vertices,
)


@pytest.fixture(scope="module")
def c25():
    return build_model({"model": "cover", "graph": "C", "p": 2, "r": 5})


@pytest.fixture(scope="module")
def strip():
    return build_model({"model": "cover", "graph": "strip", "p": 2})


def test_cycle_graph_shape():
    g = CycleGraph(2, 5)
    assert len(g.vertices()) == 10
    assert g.diameter() == 2
    for v in g.vertices():
        assert len(g.ordered_neighbors(v)) == 4


def test_cycle_graph_automorphism_count():
    # rotations x reflection x independent fiber swaps: 5 * 2 * 2^5
    autos = aut_graph(CycleGraph(2, 5))
    assert len(autos) == 320


def test_larger_cycle_has_a_rotation():
    g = CycleGraph(3, 7)
    rot = rotation_auto(g, 1)
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
    # each closure multiplies the elements there before a kept generator
    # by it alone; by every kept generator, it took 13,674 products
    calls = []

    def counted(outer, inner):
        calls.append(None)
        return compose(outer, inner)

    monkeypatch.setattr(base, "compose", counted)
    model = build_model({"model": "cover", "graph": "C", "p": 2, "r": 5})
    for v in ball_vertices(ROOT, 3, model.degree):
        model.stab_germ_group(v, 2)
    assert len(calls) == 8480


def test_deck_transformation_fixes_fibers(c25):
    base = c25.base_of(ROOT)
    translate = next(
        w for w in sphere_vertices(ROOT, 5, 4) if c25.base_of(w) == base
    )
    deck = c25.lift_at(c25.identity_auto(), ROOT, translate)
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


def test_finite_cover_stab_germs_lift_every_fixing_automorphism(c25):
    for v in ("ε", "1", "2.0"):
        v = VertexAddr.parse(v)
        bv = c25.base_of(v)
        for k in (1, 2, 3):
            want = frozenset(
                c25.germ_of(c25.lift_at(a, v, v), v, k)
                for a in c25.all_autos()
                if c25.apply_auto(a, bv) == bv
            )
            assert c25.stab_germ_group(v, k) == want
