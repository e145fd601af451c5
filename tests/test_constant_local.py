"""The degree-3 model whose local action is the same S3 everywhere."""

import itertools

import pytest

from treeclose.errors import BadElement
from treeclose.kclosure import (
    check_k_legal,
    discreteness_certificate,
    element_germs_at,
    local_action,
)
from treeclose.models import build_model
from treeclose.models.constant_local import CLElement
from treeclose.permgroup import identity_perm, structure_fingerprint
from treeclose.tree_core import (
    ROOT,
    VertexAddr,
    iterate_ball_germs,
    sphere_vertices,
    word_inv,
    word_mul,
)

from germ_reference import mulclose


@pytest.fixture(scope="module")
def cl():
    return build_model({"model": "constant_local", "d": 3, "F": "sym"})


def test_stabilizer_germs_form_s3(cl):
    germs = cl.stab_germ_group(ROOT, 1)
    assert len(germs) == 6
    fp = structure_fingerprint(
        [tuple(g.apply(ROOT.step(c)).word[0] for c in range(3)) for g in germs]
    )
    assert fp["abelian"] is False
    assert fp["transitive"] is True


def test_local_action_is_full_s3(cl):
    fp = local_action(cl, ROOT)
    assert fp["order"] == 6
    assert fp["transitive"] is True
    assert fp["abelian"] is False


def test_exactly_one_element_per_target_and_turn(cl):
    # six elements land the root on each target, one per local turn
    for w in (ROOT, VertexAddr.parse("0"), VertexAddr.parse("2.1")):
        germs = element_germs_at(cl, ROOT, 1, w)
        assert len(germs) == 6
        assert len({g.sort_key() for g in germs}) == 6


def test_every_radius2_germ_is_1_legal(cl):
    germs = list(iterate_ball_germs(3, ROOT, ROOT, 2))
    assert len(germs) == 48
    assert all(check_k_legal(cl, g, 1) for g in germs)


def test_2_legal_radius3_germs_are_element_germs(cl):
    targets = [ROOT] + list(sphere_vertices(ROOT, 1, 3))
    legal = []
    for w in targets:
        for g in iterate_ball_germs(3, ROOT, w, 3):
            if check_k_legal(cl, g, 2):
                legal.append(g)
    element = [g for w in targets for g in element_germs_at(cl, ROOT, 3, w)]
    assert len(legal) == 24
    assert {g.sort_key() for g in legal} == {g.sort_key() for g in element}


def test_center_and_neighbor_turn_mismatch_is_2_illegal(cl):
    # germs whose center turn differs from a neighbor turn exist and fail at k=2
    illegal = [
        g
        for g in iterate_ball_germs(3, ROOT, ROOT, 3)
        if check_k_legal(cl, g, 1) and not check_k_legal(cl, g, 2)
    ]
    assert illegal
    ok, offender = check_k_legal(cl, illegal[0], 2, explain=True)
    assert not ok
    assert offender is not None


def test_ball_fixators_are_trivial(cl):
    for k in (1, 2):
        assert discreteness_certificate(cl, k).outcome == "holds"


def _stab_germs_over_all_of_f(model, v, k):
    """Reference: for each p in F, the germ of the element with local
    action p that fixes v."""
    def fixing(p):
        return CLElement(word_mul(v.word, word_inv(tuple(p[c] for c in v.word))), p)

    return frozenset(model.germ_of(fixing(p), v, k) for p in model.F.elements())


LOCAL_ACTIONS = pytest.mark.parametrize("d, F", [
    (3, "sym"), (4, "sym"), (4, "alt"), (5, "alt"), (4, "cyclic"), (3, "trivial"),
    (4, [[1, 0, 3, 2], [2, 3, 0, 1]]),
], ids=["sym3", "sym4", "alt4", "alt5", "cyclic4", "trivial3", "custom4"])


@LOCAL_ACTIONS
def test_stab_germs_from_generators_match_all_of_f(d, F):
    model = build_model({"model": "constant_local", "d": d, "F": F})
    for v in ("ε", "1", "0.2", "2.1.0"):
        v = VertexAddr.parse(v)
        for k in (0, 1, 2):
            assert model.stab_germ_group(v, k) == _stab_germs_over_all_of_f(model, v, k)


@LOCAL_ACTIONS
def test_f_as_a_chain_matches_its_listed_closure(d, F):
    # F's order, membership and candidate order, against the sorted
    # closure that the model once listed in full
    model = build_model({"model": "constant_local", "d": d, "F": F})
    listed = sorted(mulclose(model.generators + [identity_perm(d)]))
    assert model.F.order() == len(listed) == model.describe()["local_action_order"]
    for p in itertools.permutations(range(d)):
        g = CLElement((), p)
        if p in listed:
            assert model.element_from_json(model.element_to_json(g)) == g
        else:
            with pytest.raises(BadElement):
                model.element_from_json(model.element_to_json(g))
    with pytest.raises(BadElement):
        model._check(CLElement((), identity_perm(d - 1)))
    spheres = [sphere_vertices(ROOT, r, d) for r in (0, 1)]
    want = [CLElement(v.word, p) for sphere in spheres for v in sphere for p in listed]
    got = model.nondiscreteness_candidates(1)
    assert list(itertools.islice(got, len(want))) == want
