"""Coset-tree backend for the two-generator one-relator family.

The oracle values below were derived by hand from the rewriting rule
a^(cn) t = t a^(cm): pushing a power of a through a t-type edge divides
the exponent by n and multiplies it by m, so fixing every vertex to
depth d needs the exponent divisible by (mn)^d.
"""

import itertools
import math
import random

import pytest

from treeclose.kclosure import check_k_legal, edge_region, plusk_generator_germs
from treeclose.models import build_model
from treeclose.models.bass_serre import render_britton
from treeclose.permgroup import (
    compose_perm,
    cycle_table,
    induced_perm_group,
    perm_order,
    structure_fingerprint,
)
from treeclose.tree_core import (
    ROOT,
    VertexAddr,
    ball_positions,
    ball_vertices,
    compose,
    geodesic,
    identity_germ,
    sorted_germs,
)


@pytest.fixture(scope="module")
def bs23():
    return build_model({"model": "bs", "m": 2, "n": 3})


def test_degree_is_m_plus_n(bs23):
    assert bs23.degree == 5


def test_pinch_rewrites():
    bs = build_model({"model": "bs", "m": 2, "n": 3})
    assert render_britton(bs.from_britton("t a^2 t^-1")) == "a^3"
    assert render_britton(bs.from_britton("a^3 t")) == "t a^2"
    assert bs.from_britton("a^0") == bs.identity()
    assert render_britton(bs.identity()) == "1"


def t_exponent_sum(el):
    return sum(e for _, e in el.segs)


def test_unpinchable_letters_stay(bs23):
    el = bs23.from_britton("t a t^-1")
    assert el.segs  # exponent 1 is not a multiple of m, no pinch
    assert t_exponent_sum(el) == 0


def test_normal_form_is_multiplicative(bs23):
    rng = random.Random(4)
    letters = ["a", "a^-1", "t", "t^-1", "a^2", "a^3"]
    for _ in range(60):
        u = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        v = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        eu, ev = bs23.from_britton(u), bs23.from_britton(v)
        assert bs23.from_britton(u + " " + v) == bs23.mul(eu, ev)


def test_rho_is_a_homomorphism(bs23):
    # the relation keeps the t-exponent sum, so the normal form of a
    # product must carry the t letters of both factors
    assert t_exponent_sum(bs23.from_britton("t")) == 1
    assert t_exponent_sum(bs23.from_britton("a t a t a t")) == 3
    rng = random.Random(8)
    letters = ["a", "t", "t^-1", "a^-1"]
    for _ in range(40):
        u = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        v = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        eu, ev = bs23.from_britton(u), bs23.from_britton(v)
        assert t_exponent_sum(bs23.mul(eu, ev)) == t_exponent_sum(eu) + t_exponent_sum(ev)


def test_vertex_transitive(bs23):
    for w in ball_vertices(ROOT, 2, 5):
        t = bs23.transporter(ROOT, w)
        assert bs23.act(t, ROOT) == w


def test_edge_labels_split_three_two(bs23):
    labels = [bs23.edge_label(ROOT, ROOT.step(c)) for c in range(5)]
    assert sorted(labels) == [-1, -1, 1, 1, 1]
    w = ROOT.step(0)
    assert bs23.edge_label(w, ROOT) == -bs23.edge_label(ROOT, w)


def test_stab_germs_cyclic_of_order_six(bs23):
    germs = bs23.stab_germ_group(ROOT, 1)
    assert len(germs) == 6
    group = induced_perm_group(germs, [ROOT.step(c) for c in range(5)])
    fp = structure_fingerprint(group)
    assert fp["order"] == 6
    assert fp["abelian"] is True
    assert sorted(fp["element_orders"]) == [1, 2, 3, 3, 6, 6]
    assert fp["transitive"] is False  # 3-cycle and 2-cycle halves


def test_powers_of_a_fixing_balls(bs23):
    # depth d needs 6^d: the two edge types consume one factor 3 and one 2
    assert bs23.germ_of(bs23.a_power(6), ROOT, 1).is_identity_map
    assert not bs23.germ_of(bs23.a_power(6), ROOT, 2).is_identity_map
    assert bs23.germ_of(bs23.a_power(36), ROOT, 2).is_identity_map
    assert not bs23.germ_of(bs23.a_power(36), ROOT, 3).is_identity_map
    assert bs23.germ_of(bs23.a_power(216), ROOT, 3).is_identity_map


def ball_fixing_exponent(bs, v, radius):
    """lcm of the cycle lengths of the stabilizer generator at v on B(v, r)."""
    germ = bs.germ_of(bs.stab_generator(v), v, max(radius, 1))
    table = cycle_table(germ.perm)
    spots = ball_positions(v, ball_vertices(v, radius, bs.degree), germ.radius, bs.degree)
    return math.lcm(*(len(table[i][0]) for i in spots))


def test_fixator_exponent_on_balls():
    for (m, n) in ((2, 3), (1, 2), (2, 4)):
        bs = build_model({"model": "bs", "m": m, "n": n})
        for radius in range(4):
            A = ball_vertices(ROOT, radius, bs.degree)
            N = ball_fixing_exponent(bs, ROOT, radius)
            if m == 2 and n == 4:
                # gcd(m, n) > 1, so the cycle lengths share factors:
                # 4, 8, 16 against (mn)**r = 8, 64, 512
                assert (m * n) ** radius % N == 0
            else:
                assert N == (m * n) ** radius
            germ = bs.germ_of(bs.a_power(N), ROOT, max(radius, 1))
            assert all(germ.apply(v) == v for v in A)


def test_minimal_fixing_exponent_matches_edge_type(bs23):
    lengths = sorted(
        bs23.minimal_fixing_exponent(ROOT.step(c)) for c in range(5)
    )
    assert lengths == [2, 2, 3, 3, 3]


def test_valid_base_exponents(bs23):
    # a**c fixes a neighbor of ε, so the edge 1-region there, exactly for
    # the residues c mod 6 that the cycle lengths 2 and 3 divide
    got = set(plusk_generator_germs(bs23, ROOT, 1, 1))
    assert got == {bs23.germ_of(bs23.a_power(c), ROOT, 1) for c in (0, 2, 3, 4)}


PLUSK_GRID = [
    (m, n, v, k, radius)
    for m, n in ((2, 3), (1, 2), (2, 4), (3, 2))
    for v in ("ε", "1", "0.1", "1.2")
    for k in (1, 2, 3)
    for radius in range(k, min(k + 2, 4) + 1)
]


@pytest.mark.parametrize("m, n, v, k, radius", PLUSK_GRID)
def test_plusk_fixator_maps_are_the_untwisted_generator_powers(m, n, v, k, radius):
    # the untwisted candidates of the twisted construction: every power of
    # the stabilizer generator, kept when it fixes some edge k-region at v
    model = build_model({"model": "bs", "m": m, "n": n})
    v = VertexAddr.parse(v)
    regions = [edge_region(v, v.step(c), k, model.degree) for c in range(model.degree)]
    base = model.sigma_base(v, radius)
    powers = (
        model.sigma_construction(v, c, {}, radius, base)
        for c in range(perm_order(base[0].perm))
    )
    want = sorted_germs(g for g in powers if any(g.fixes(r) for r in regions))
    assert plusk_generator_germs(model, v, k, radius) == want


def test_one_sided_fixator_triviality_tracks_coprimality():
    edge = (ROOT, ROOT.step(0))
    assert build_model({"model": "bs", "m": 2, "n": 3}).one_sided_fixators_trivial(edge)
    assert not build_model({"model": "bs", "m": 2, "n": 4}).one_sided_fixators_trivial(edge)


def test_legal_germs_preserve_edge_labels(bs23):
    rng = random.Random(21)
    elements = [bs23.from_britton(w) for w in ("a", "t", "a t^-1", "a^2 t a")]
    checked = 0
    for el in elements:
        for center in rng.sample(ball_vertices(ROOT, 1, 5), 3):
            germ = bs23.germ_of(el, center, 2)
            assert check_k_legal(bs23, germ, 1)
            domain = [u for u, _ in germ.pairs]
            for u, w in itertools.permutations(domain, 2):
                if geodesic(u, w) and len(geodesic(u, w)) == 2:
                    assert bs23.edge_label(u, w) == bs23.edge_label(
                        germ.apply(u), germ.apply(w)
                    )
                    checked += 1
    assert checked > 100


def test_sigma_construction_zero_twists(bs23):
    ident = bs23.sigma_construction(ROOT, 0, {}, 2)
    assert ident.is_identity_map
    built = bs23.sigma_construction(ROOT, 6, {}, 2)
    assert built == bs23.germ_of(bs23.a_power(6), ROOT, 2)


def test_sigma_construction_fixes_an_edge_for_split_exponents(bs23):
    for c in (2, 3, 4):
        germ = bs23.sigma_construction(ROOT, c, {}, 2)
        assert germ.apply(ROOT) == ROOT
        fixed_neighbor = [
            w for w in (ROOT.step(i) for i in range(5)) if germ.apply(w) == w
        ]
        assert fixed_neighbor


def _power_loop_stab_germs(model, v, k):
    """Reference: the identity germ, then each power of the generator
    germ up to the identity."""
    gen = model.germ_of(model.stab_generator(v), v, k)
    ident = identity_germ(v, k, model.degree)
    out = [ident]
    cur = gen
    while cur != ident:
        out.append(cur)
        cur = compose(gen, cur)
    return frozenset(out)


@pytest.mark.parametrize("m, n", [(2, 3), (1, 2), (2, 4)])
def test_ball_fixators_are_the_powers_of_one_generator_power(m, n):
    # the stabilizer of v is <s>, so the maps on B(v, r+1) that fix B(v, r)
    # are the powers of s**l, l the lcm of the cycle lengths of s there
    bs = build_model({"model": "bs", "m": m, "n": n})
    for v in map(VertexAddr.parse, ("ε", "1", "0.1")):
        for r in range(3):
            tube = ball_vertices(v, r + 1, bs.degree)
            pinned = ball_vertices(v, r, bs.degree)
            gen = bs.germ_of(bs.stab_generator(v), v, r + 1)
            step = identity_germ(v, r + 1, bs.degree)
            for _ in range(ball_fixing_exponent(bs, v, r)):
                step = compose(gen, step)
            pos = {x: p for p, x in enumerate(tube)}
            want, power = {tuple(range(len(tube)))}, step
            while not power.is_identity_map:
                want.add(tuple(pos[power.apply(x)] for x in tube))
                power = compose(step, power)
            assert len(want) > 1
            assert set(bs.fixator_maps_on(tube, pinned).elements()) == want


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_stab_germs_match_the_generator_powers(k):
    model = build_model({"model": "bs", "m": 2, "n": 3})
    for v in ("ε", "0", "1.2", "4.1"):
        v = VertexAddr.parse(v)
        assert model.stab_germ_group(v, k) == _power_loop_stab_germs(model, v, k)


@pytest.mark.parametrize("v, k, order", [("ε", 3, 216), ("1.2", 4, 1296)])
def test_stab_germ_closure_composes_once_per_germ(v, k, order):
    # one generator germ spans the group; its chain keeps one strong
    # generator per level, each a power of it, and builds fewer perms than
    # a third of the group, where a closure makes one product per germ
    model = build_model({"model": "bs", "m": 2, "n": 3})
    v = VertexAddr.parse(v)
    (gen,) = model._stab_perms(v, k)
    powers, power = set(), gen
    while power not in powers:
        powers.add(power)
        power = compose_perm(gen, power)
    chain = model.stab_germ_chain(v, k)
    assert chain.order() == len(powers) == order
    for prefix in range(len(chain.base)):
        assert len(chain.generators(prefix)) <= 1
        assert set(chain.generators(prefix)) <= powers
    assert set(chain.elements()) == powers
    assert chain._built <= order // 3
