"""Full automorphism group backend: rigid germ extensions and translations."""

import itertools

import pytest

from treeclose import permgroup
from treeclose.errors import TooLarge
from treeclose.kclosure import check_k_legal, element_germs_at, local_action
from treeclose.models import FullAutModel, build_model
from treeclose.models.full_aut import RigidElement
from treeclose.tree_core import (
    ROOT,
    Germ,
    ball_vertices,
    germ_of_map,
    iterate_ball_germs,
    restrict,
    tree_distance,
)

from germ_reference import ref_subtree_isos


@pytest.fixture(scope="module")
def fa():
    return build_model({"model": "full_aut", "d": 3})


def test_stab_germ_counts(fa):
    assert len(fa.stab_germ_group(ROOT, 1)) == 6
    assert len(fa.stab_germ_group(ROOT, 2)) == 48


def test_local_action_s3(fa):
    fp = local_action(fa, ROOT)
    assert fp["order"] == 6
    assert fp["transitive"] is True


def test_local_action_of_sym7_composes_few_perms(monkeypatch):
    # Sym(7) has 5,040 elements; checking closure and commutation pair by
    # pair would compose about 25 million times
    calls = 0
    compose = permgroup.compose_perm

    def counted(p, q):
        nonlocal calls
        calls += 1
        assert calls <= 10 * 5040, "local_action composes pairs of elements"
        return compose(p, q)

    monkeypatch.setattr(permgroup, "compose_perm", counted)
    fp = local_action(build_model({"model": "full_aut", "d": 7}), ROOT)
    assert (fp["order"], fp["abelian"], fp["transitive"]) == (5040, False, True)


def test_generator_germs_are_not_rebuilt_through_act(fa, monkeypatch):
    # a swap generator is already its germ at the centre: the d=3, k=12
    # chain refuses without one act per ball vertex (147,432 when rebuilt)
    gens = list(fa.stab_generators(ROOT, 2))
    assert [fa.germ_of(g, ROOT, 2) for g in gens] == [
        germ_of_map(lambda v: fa.act(g, v), ROOT, 2, 3) for g in gens]
    calls = []
    act = FullAutModel.act

    def counted(self, g, v):
        calls.append(v)
        return act(self, g, v)

    monkeypatch.setattr(FullAutModel, "act", counted)
    monkeypatch.delenv("TREECLOSE_MAX_ELEMENTS", raising=False)
    with pytest.raises(TooLarge, match="^stabilizer germ group exceeded 1000000$"):
        FullAutModel(3).stab_germ_chain(ROOT, 12)
    assert calls == []


def test_every_ball_germ_is_an_element_germ(fa):
    want = {g.sort_key() for g in iterate_ball_germs(3, ROOT, ROOT, 2)}
    got = {g.sort_key() for g in element_germs_at(fa, ROOT, 2, ROOT)}
    assert want == got
    assert len(want) == 48


def test_everything_is_legal(fa):
    for g in iterate_ball_germs(3, ROOT, ROOT, 2):
        assert check_k_legal(fa, g, 1)
        assert check_k_legal(fa, g, 2)


def test_rigid_extension_is_consistent(fa):
    # the canonical extension of a germ restricts back to that germ
    for germ in list(iterate_ball_germs(3, ROOT, ROOT, 2))[:12]:
        germ.validate(3)
        el = RigidElement(germ)
        wide = fa.germ_of(el, ROOT, 4)
        assert restrict(wide, ROOT, 2, 3) == germ
        wide.validate(3)


def test_translation_shifts_the_axis(fa):
    h = fa.translation(1, 6)
    for z in range(-3, 3):
        assert fa.act(h, fa.axis_vertex(z)) == fa.axis_vertex(z + 1)
    h2 = fa.translation(2, 6)
    assert fa.act(h2, fa.axis_vertex(0)) == fa.axis_vertex(2)


def test_axis_vertices_lie_on_a_line(fa):
    for z in range(-4, 4):
        assert tree_distance(fa.axis_vertex(z), fa.axis_vertex(z + 1)) == 1
    assert tree_distance(fa.axis_vertex(-3), fa.axis_vertex(3)) == 6


def test_translation_cache_reuses_elements(fa):
    assert fa.translation(1, 5) is fa.translation(1, 5)


def test_word_element_acts_by_its_permutations(fa):
    el = fa.from_word_element((), (1, 0, 2), 1)
    assert fa.act(el, ROOT.step(0)) == ROOT.step(1)
    assert fa.act(el, ROOT.step(2)) == ROOT.step(2)


def test_ball_fixators_are_nontrivial(fa):
    tube = ball_vertices(ROOT, 2, 3)
    maps = fa.fixator_maps_on(tube, ball_vertices(ROOT, 1, 3))
    assert any(m != tuple(range(len(tube))) for m in maps.elements())


def _pinned_reference(degree, k):
    """The ball germs fixing B(s) pointwise in B(s + 1), for s = k - 1,
    k, ..., in the dict reference's order, the identity left out."""
    for s in itertools.count(k - 1):
        ball = ball_vertices(ROOT, s + 1, degree)
        pins = {x: x for x in ball_vertices(ROOT, s, degree)}
        for m in ref_subtree_isos(degree, ball, ROOT, ball, ROOT, pins=pins):
            germ = Germ.from_mapping(ROOT, ROOT, s + 1, m)
            if not germ.is_identity_map:
                yield germ


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("degree", [3, 4, 5])
def test_candidates_match_the_pinned_dict_reference(degree, k):
    stream = FullAutModel(degree).nondiscreteness_candidates(k)
    got = [g.germ for g in itertools.islice(stream, 200)]
    assert got == list(itertools.islice(_pinned_reference(degree, k), 200))


def test_candidates_start_without_listing_every_root_permutation():
    # d = 20 has 20! permutations of the root's children; the first
    # candidate swaps the last two
    first = next(FullAutModel(20).nondiscreteness_candidates(1))
    assert first.germ.perm == tuple(range(19)) + (20, 19)
