"""Lattice-class tree backend for the determinant-one matrix group."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeclose.errors import NotIntegral
from treeclose.models import build_model
from treeclose.models.padic import Mat2, PSL2Element, PSL2Model, vp
from treeclose.permgroup import structure_fingerprint, induced_perm_group
from treeclose.tree_core import (
    ROOT,
    VertexAddr,
    ball_size,
    ball_vertices,
    germ_of_map,
    sphere_vertices,
    tree_distance,
)


@pytest.fixture(scope="module")
def p2():
    return build_model({"model": "psl2", "p": 2})


@pytest.fixture(scope="module")
def p3():
    return build_model({"model": "psl2", "p": 3})


PSL2_MODELS = {p: build_model({"model": "psl2", "p": p}) for p in (2, 3, 5)}


def test_valency_is_p_plus_one(p2, p3):
    assert p2.degree == 3
    assert p3.degree == 4
    for model in (p2, p3):
        nbrs = model.ordered_neighbors(model.class_of_vertex(ROOT))
        assert len(nbrs) == model.degree
        assert len({model.tree.addr_of(c) for c in nbrs}) == model.degree


def test_unipotent_fix_ball_boundary(p2, p3):
    for model in (p2, p3):
        p = model.describe()["p"]
        for k in (1, 2, 3):
            el = model.element(1, p**k, 0, 1)
            assert model.fix_ball_test(el, k)
            assert not model.fix_ball_test(el, k + 1)


def test_congruence_agrees_with_germ(p2):
    for k in (1, 2, 3):
        el = p2.element(1, 2**k, 0, 1)
        assert p2.germ_of(el, ROOT, k).is_identity_map
        assert not p2.germ_of(el, ROOT, k + 1).is_identity_map


def test_fix_ball_requires_integral_entries(p2):
    el = p2.element(Fraction(1, 2), 0, 0, 2)
    with pytest.raises(NotIntegral):
        p2.fix_ball_test(el, 1)


def test_stab_germ_counts(p2):
    # matrices over Z/2 with det 1: 6 of them; 24 classes mod 4
    assert len(p2.stab_germ_group(ROOT, 1)) == 6
    assert len(p2.stab_germ_group(ROOT, 2)) == 24


def test_stab_germs_transitive_on_neighbors(p2):
    germs = p2.stab_germ_group(ROOT, 1)
    group = induced_perm_group(germs, [ROOT.step(c) for c in range(3)])
    fp = structure_fingerprint(group)
    assert fp["order"] == 6
    assert fp["transitive"] is True


def test_identity_lattice_class(p2):
    cls = p2.lattice_canonical((1, 0), (0, 1))
    assert cls == p2.class_of_vertex(ROOT)
    scaled = p2.lattice_canonical((2, 0), (0, 2))
    assert scaled == cls


def test_sublattice_is_adjacent(p2):
    lp = p2.lattice_canonical((2, 0), (0, 1))
    assert tree_distance(ROOT, p2.tree.addr_of(lp)) == 1


def test_index_four_classes_at_distance_two(p2):
    classes = [p2.lattice_canonical((4, 0), (beta, 1)) for beta in range(4)]
    assert len(set(classes)) == 4
    for cls in classes:
        assert tree_distance(ROOT, p2.tree.addr_of(cls)) == 2


def test_root_class_is_at_distance_zero(p2):
    v = p2.class_of_vertex(ROOT)
    assert tree_distance(ROOT, p2.tree.addr_of(v)) == 0


def _z_inv_p(p):
    """Strategy for elements of Z[1/p], zero included."""
    nonzero = st.builds(
        lambda sign, unit, i, j: Fraction(sign * unit * p**i, p**j),
        st.sampled_from((-1, 1)), st.integers(1, 50), st.integers(0, 4), st.integers(0, 4),
    )
    return st.one_of(st.just(Fraction(0)), nonzero)


@st.composite
def _column_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    a, b, c, d = (draw(_z_inv_p(p)) for _ in range(4))
    assume(a * d - b * c != 0)
    return p, (a, c), (b, d)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_column_pairs())
def test_canonical_class_is_homothetic_to_the_input(pair):
    # with m the least entry valuation of N = B^-1 M, N / p^m is integral,
    # and v(det N) = 2m makes its determinant a unit: N / p^m lies in
    # GL2(Z_p), so B and M span homothetic lattices
    p, (a, c), (b, d) = pair
    basis = PSL2_MODELS[p].lattice_canonical((a, c), (b, d)).basis()
    change = basis.inv().mul(Mat2.of(a, b, c, d))
    least = min(vp(e, p) for e in change.entries())
    assert vp(change.det(), p) == 2 * least


# SHA-256 of each vertex's address, class, parent, neighbour list and address
# round trip over a ball, as computed by the integer Hermite reduction that
# the valuation reduction replaced
CHART_DIGESTS = {
    (2, 5): "d4bd0ba40bb18523416cee68d2f83b63c1cd295e519e46df7bcbda6b3779ac59",
    (3, 3): "0de6bb6ef2cd37387e844a84ca489ed663a3e8ee60baac9ab8ccd028815f381d",
    (5, 2): "62ba04aff1da64343d30e2d056974469c72b8f927515021148c43be7162ae888",
}


@pytest.mark.parametrize("p, radius", sorted(CHART_DIGESTS))
def test_chart_matches_its_digest(p, radius):
    model = build_model({"model": "psl2", "p": p})
    lines = []
    for v in ball_vertices(ROOT, radius, model.degree):
        cls = model.tree.obj_of(v)
        lines.append(repr((
            v.word, cls, model.parent_of(cls), model.ordered_neighbors(cls),
            model.tree.addr_of(cls) == v,
        )))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CHART_DIGESTS[(p, radius)]


def test_two_orbits_by_parity(p2):
    reps = p2.orbit_reps()
    assert len(reps) == 2
    assert p2.transporter(reps[0], reps[1]) is None
    for w in ball_vertices(ROOT, 2, 3):
        t = p2.transporter(ROOT, w)
        assert (t is None) == (tree_distance(ROOT, w) % 2 == 1)


def test_action_moves_down_the_tree(p2):
    el = p2.element(2, 0, 0, Fraction(1, 2))
    moved = p2.act(el, ROOT)
    assert tree_distance(ROOT, moved) == 2


def test_sphere_sizes_match_valency(p2):
    assert len(sphere_vertices(ROOT, 2, 3)) == 6
    seen = {
        p2.class_of_vertex(w) for w in sphere_vertices(ROOT, 2, 3)
    }
    assert len(seen) == 6


# --- stabiliser germs against the lift enumeration they replaced --------------


def _sl2_mod(p, k):
    """All of SL2 over Z/p^k as (a, b, c, d) tuples."""
    q = p**k
    for a in range(q):
        for b in range(q):
            for c in range(q):
                rhs = (1 + b * c) % q
                if a == 0:
                    if rhs == 0:
                        for d in range(q):
                            yield (a, b, c, d)
                    continue
                g = math.gcd(a, q)
                if rhs % g:
                    continue
                qg = q // g
                d0 = (rhs // g) * pow(a // g, -1, qg) % qg if qg > 1 else 0
                for t in range(g):
                    yield (a, b, c, d0 + t * qg)


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def _lift_det1(a, b, c, d, q):
    """Integer matrix of determinant exactly 1 congruent to (a,b,c,d) mod q."""
    b1 = b if b != 0 else b + q
    a1 = a
    while math.gcd(a1, b1) != 1:
        a1 += q
    m = (a1 * d - b1 * c - 1) // q
    _, u, v = _ext_gcd(a1, b1)
    y, x = -m * u, m * v
    return Mat2.of(a1, b1, c + q * x, d + q * y)


def _lifted_stab_germs(model, v, k):
    """The germ of B g B^-1 for a determinant-1 lift g of every matrix
    of SL2(Z/p^k), B the basis of v's lattice class."""
    p = model.p
    basis = model.class_of_vertex(v).basis()
    basis_inv = basis.inv()
    return frozenset(
        model.germ_of(
            PSL2Element.make(p, basis.mul(_lift_det1(*m, p**k)).mul(basis_inv)), v, k
        )
        for m in _sl2_mod(p, k)
    )


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_stab_germs_from_two_generators_match_every_lift(p, k):
    model = PSL2Model(p)
    # both orbits, down to depth 3
    for v in ("ε", "0", f"{p}", "1.0", f"{p}.1.0"):
        v = VertexAddr.parse(v)
        assert model.stab_germ_group(v, k) == _lifted_stab_germs(model, v, k)


@pytest.mark.parametrize("p,k,v", [(2, 3, "0"), (3, 2, "3.1.0")])
def test_stab_germs_act_twice_per_ball_vertex(p, k, v, monkeypatch):
    # a germ costs one act, at its centre, and only the two generator
    # germs are built through act
    calls = []
    act = PSL2Model.act

    def counted(self, g, x):
        calls.append(x)
        return act(self, g, x)

    monkeypatch.setattr(PSL2Model, "act", counted)
    PSL2Model(p).stab_germ_group(VertexAddr.parse(v), k)
    assert len(calls) <= 2 * ball_size(p + 1, k)


@pytest.mark.parametrize("p", [2, 3])
def test_germ_of_acts_once_at_the_centre(p, monkeypatch):
    # image_step steps each child through the charts, so a germ maps only
    # its centre through act; the germs match the vertex map of act
    model = PSL2Model(p)
    elements = [model.element(1, p, 0, 1), model.element(1, 0, p, 1)]
    elements += [model.transporter(ROOT, VertexAddr.parse(w)) for w in ("1.0", f"{p}.1")]
    centers = [ROOT, VertexAddr.parse("1"), VertexAddr.parse(f"0.{p}")]
    cases = [(g, c) for g in elements for c in centers]
    want = [germ_of_map(lambda u: model.act(g, u), c, 3, p + 1) for g, c in cases]
    calls = []
    act = PSL2Model.act

    def counted(self, g, x):
        calls.append(x)
        return act(self, g, x)

    monkeypatch.setattr(PSL2Model, "act", counted)
    assert [model.germ_of(g, c, 3) for g, c in cases] == want
    assert calls == centers * len(elements)
