"""Vertex addresses, balls, geodesics, and germ arithmetic."""

import random

import pytest

from treeclose.errors import CenterMismatch, RadiusMismatch, ValidationError
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    are_adjacent,
    ball_size,
    ball_vertices,
    common_prefix_len,
    compose,
    edge_color,
    geodesic,
    germ_of_map,
    identity_germ,
    invert,
    iterate_ball_germs,
    project_to_path,
    restrict,
    sphere_vertices,
    thicken,
    tree_distance,
)


def test_parse_render_round_trip():
    for text in ("ε", "0", "2.1", "0.1.2.1"):
        assert VertexAddr.parse(text).render() == text
    # the empty spellings all mean the root
    assert VertexAddr.parse("") == ROOT
    assert VertexAddr.parse("e") == ROOT
    assert ROOT.render() == "ε"


def test_parse_takes_only_text_and_integers():
    assert VertexAddr.parse(1) == VertexAddr((1,))
    assert VertexAddr.parse(10) == VertexAddr((10,))
    # str() would read the JSON number 10.20 as the vertex 10.2
    for value in (10.2, 1.0, True, None, [1, 2], {"1": 2}):
        with pytest.raises(ValidationError, match="^cannot parse vertex address "):
            VertexAddr.parse(value)


def test_step_backtracks():
    v = ROOT.step(0).step(1)
    assert v.render() == "0.1"
    assert v.step(1) == ROOT.step(0)
    assert ROOT.step(2).step(2) == ROOT


def test_neighbors_and_adjacency():
    v = VertexAddr.parse("0.1")
    nbrs = v.neighbors(3)
    assert len(nbrs) == 3
    for w in nbrs:
        assert are_adjacent(v, w)
        assert tree_distance(v, w) == 1
    assert not are_adjacent(v, v)


def test_edge_color_matches_step():
    v = VertexAddr.parse("1.2")
    for c in range(3):
        assert edge_color(v, v.step(c)) == c


def test_ball_sizes():
    # 1, 1+3, 1+3+6 on the 3-regular tree
    assert ball_size(3, 0) == 1
    assert ball_size(3, 1) == 4
    assert ball_size(3, 2) == 10
    # degree five: 1 + 5 neighbors
    assert ball_size(5, 1) == 6
    for d, r in ((3, 2), (4, 2), (5, 1)):
        assert len(ball_vertices(ROOT, r, d)) == ball_size(d, r)


def test_sphere_sizes():
    assert len(sphere_vertices(ROOT, 0, 3)) == 1
    assert len(sphere_vertices(ROOT, 1, 3)) == 3
    assert len(sphere_vertices(ROOT, 3, 3)) == 3 * 2 * 2
    center = VertexAddr.parse("0.1")
    for v in sphere_vertices(center, 2, 3):
        assert tree_distance(center, v) == 2


def test_geodesic_endpoints_and_steps():
    u = VertexAddr.parse("0.1.2")
    w = VertexAddr.parse("0.2")
    path = geodesic(u, w)
    assert path[0] == u and path[-1] == w
    assert len(path) == tree_distance(u, w) + 1
    for a, b in zip(path, path[1:]):
        assert are_adjacent(a, b)


def test_common_prefix_and_distance():
    u = VertexAddr.parse("0.1.2")
    w = VertexAddr.parse("0.1.0")
    assert common_prefix_len(u.word, w.word) == 2
    assert tree_distance(u, w) == 2
    assert tree_distance(u, u) == 0
    assert tree_distance(ROOT, u) == 3


def test_project_to_path():
    path = [ROOT, VertexAddr.parse("0"), VertexAddr.parse("0.1")]
    assert project_to_path(VertexAddr.parse("2.1"), path) == ROOT
    assert project_to_path(VertexAddr.parse("0.2"), path) == VertexAddr.parse("0")
    assert project_to_path(VertexAddr.parse("0.1"), path) == VertexAddr.parse("0.1")


def test_thicken_is_union_of_balls():
    path = [ROOT, VertexAddr.parse("0")]
    tube = set(thicken(path, 2, 3))
    union = set(ball_vertices(ROOT, 2, 3)) | set(
        ball_vertices(VertexAddr.parse("0"), 2, 3)
    )
    assert tube == union


def test_identity_germ_fixes_everything():
    g = identity_germ(ROOT, 2, 3)
    assert g.is_identity_map
    assert g.fixes(ball_vertices(ROOT, 2, 3))
    assert all(u == w for u, w in g.pairs)


def test_validate_rejects_non_isometries():
    vs = ball_vertices(ROOT, 1, 3)
    swapped = {v: v for v in vs}
    a, b = VertexAddr.parse("0"), VertexAddr.parse("1")
    swapped[a] = b  # b now appears twice
    g = Germ.from_mapping(ROOT, ROOT, 1, swapped)
    with pytest.raises(ValidationError):
        g.validate(3)


def test_compose_requires_chained_centers():
    g = identity_germ(ROOT, 1, 3)
    h = identity_germ(VertexAddr.parse("0"), 1, 3)
    with pytest.raises(CenterMismatch):
        compose(h, g)
    with pytest.raises(RadiusMismatch):
        compose(identity_germ(ROOT, 2, 3), g)


def test_germ_algebra_identities():
    rng = random.Random(11)
    germs = list(iterate_ball_germs(3, ROOT, ROOT, 2))
    for _ in range(200):
        g = rng.choice(germs)
        ident = identity_germ(ROOT, 2, 3)
        assert compose(invert(g), g) == ident
        assert compose(g, invert(g)).is_identity_map
        assert invert(invert(g)) == g
        assert compose(ident, g) == g
        assert compose(g, ident) == g


def test_restrict_truncates():
    germs = list(iterate_ball_germs(3, ROOT, ROOT, 2))
    for g in germs[:20]:
        small = restrict(g, ROOT, 1, 3)
        assert small.radius == 1
        for v in ball_vertices(ROOT, 1, 3):
            assert small.apply(v) == g.apply(v)


def test_germ_of_map_round_trip():
    g = sorted(iterate_ball_germs(3, ROOT, ROOT, 2), key=lambda x: x.sort_key())[7]
    rebuilt = germ_of_map(g.apply, ROOT, 2, 3)
    assert rebuilt == g


def test_ball_germ_counts():
    # center-fixing ball automorphisms: d! * ((d-1)!)^(|B(r-1)| - 1)
    assert len(list(iterate_ball_germs(3, ROOT, ROOT, 1))) == 6
    assert len(list(iterate_ball_germs(3, ROOT, ROOT, 2))) == 48
    assert len(list(iterate_ball_germs(4, ROOT, ROOT, 1))) == 24
    # |B(2)| = 10 on the 3-regular tree: 3! * 2^9
    assert len(list(iterate_ball_germs(3, ROOT, ROOT, 3))) == 3072


def test_ball_germs_between_centers():
    target = VertexAddr.parse("0.1")
    germs = list(iterate_ball_germs(3, ROOT, target, 1))
    assert len(germs) == 6
    for g in germs:
        assert g.apply(ROOT) == target


def test_ball_germ_pins():
    # pinning 0 -> 1 leaves the two maps of the other children onto 0 and 2
    a, b = VertexAddr.parse("0"), VertexAddr.parse("1")
    germs = [g for g in iterate_ball_germs(3, ROOT, ROOT, 1) if g.apply(a) == b]
    images = {tuple(g.apply(ROOT.step(c)).render() for c in (1, 2)) for g in germs}
    assert len(germs) == 2
    assert images == {("0", "2"), ("2", "0")}


def test_sort_key_orders_deterministically():
    germs = list(iterate_ball_germs(3, ROOT, ROOT, 2))
    keys = [g.sort_key() for g in germs]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == [g.sort_key() for g in sorted(germs, key=lambda x: x.sort_key())]
