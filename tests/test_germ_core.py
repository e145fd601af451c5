"""The index-based germ core against a dict reference of germ semantics.

RefGerm keeps a germ as its (source, image) pairs sorted by source word,
which is how germs, their sort order and their JSON were defined before
germs became permutations of canonical ball indices. Every germ operation
must agree with it exactly, on random germs between non-root centers.
Ball germs, listed off a stabiliser chain, must be the maps that the
recursive dict enumerator of germ_reference finds, and in its order at
the centre.
"""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeclose.cli import main
from treeclose.errors import (
    CenterMismatch,
    NotContained,
    RadiusMismatch,
    TooLarge,
    ValidationError,
)
from treeclose.kclosure import edge_region, germ_to_json
from treeclose.models import BassSerreModel, FullAutModel
from treeclose.models.full_aut import RigidElement
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_size,
    ball_vertices,
    compose,
    geodesic,
    invert,
    iterate_ball_germs,
    restrict,
    sorted_germs,
    thicken,
    tree_distance,
)

from germ_reference import ref_subtree_isos


class RefGerm:
    def __init__(self, src, dst, radius, mapping):
        self.src, self.dst, self.radius = src, dst, radius
        self.pairs = tuple(sorted(mapping.items(), key=lambda kv: kv[0].word))
        self.mapping = dict(self.pairs)

    def sort_key(self):
        pairs = tuple((u.word, w.word) for u, w in self.pairs)
        return (self.src.word, self.dst.word, self.radius, pairs)

    def to_json(self):
        return {
            "src": self.src.render(),
            "dst": self.dst.render(),
            "radius": self.radius,
            "pairs": [[a.render(), b.render()] for a, b in self.pairs],
        }


def ref_compose(outer, inner):
    om = outer.mapping
    mapping = {u: om[w] for u, w in inner.pairs}
    return RefGerm(inner.src, om[inner.dst], inner.radius, mapping)


def ref_invert(g):
    return RefGerm(g.dst, g.src, g.radius, {w: u for u, w in g.pairs})


def ref_restrict(g, center, radius, degree):
    m = g.mapping
    sub = {v: m[v] for v in ball_vertices(center, radius, degree)}
    return RefGerm(center, m[center], radius, sub)


def random_mapping(degree, src, dst, radius, rng):
    """Uniform adjacency-preserving bijection B(src, r) -> B(dst, r)."""
    mapping = {src: dst}
    frontier = [(src, dst, None, None)]
    for _ in range(radius):
        nxt = []
        for s, d, sp, dp in frontier:
            s_kids = [x for x in s.neighbors(degree) if x != sp]
            d_kids = [x for x in d.neighbors(degree) if x != dp]
            rng.shuffle(d_kids)
            for sk, dk in zip(s_kids, d_kids):
                mapping[sk] = dk
                nxt.append((sk, dk, s, d))
        frontier = nxt
    return mapping


def random_vertex(degree, rng, lo=1, hi=3):
    word = []
    for _ in range(rng.randint(lo, hi)):
        word.append(rng.choice([c for c in range(degree) if not word or c != word[-1]]))
    return VertexAddr(tuple(word))


def assert_agrees(germ, ref, degree):
    assert germ.src_center == ref.src and germ.dst_center == ref.dst
    assert germ.radius == ref.radius
    assert germ.pairs == ref.pairs
    assert germ.sort_key() == ref.sort_key()
    assert germ_to_json(germ) == ref.to_json()
    element = FullAutModel(degree).element_to_json(RigidElement(germ))
    assert element["pairs"] == ref.to_json()["pairs"]
    for v in ball_vertices(ref.src, ref.radius, degree):
        assert germ.apply(v) == ref.mapping[v]


cases = st.tuples(
    st.integers(3, 5), st.integers(0, 3), st.integers(0, 2**32 - 1)
)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_compose_invert_apply_agree(case):
    degree, radius, seed = case
    rng = random.Random(seed)
    a, b, c = (random_vertex(degree, rng) for _ in range(3))
    m1 = random_mapping(degree, a, b, radius, rng)
    m2 = random_mapping(degree, b, c, radius, rng)
    inner, outer = Germ.from_mapping(a, b, radius, m1), Germ.from_mapping(b, c, radius, m2)
    ref_inner, ref_outer = RefGerm(a, b, radius, m1), RefGerm(b, c, radius, m2)
    assert_agrees(inner, ref_inner, degree)
    assert_agrees(compose(outer, inner), ref_compose(ref_outer, ref_inner), degree)
    assert_agrees(invert(inner), ref_invert(ref_inner), degree)
    assert inner.validate(degree) is inner
    assert hash(compose(invert(inner), inner)) == hash(
        Germ.from_mapping(a, a, radius, {v: v for v in m1})
    )


@settings(max_examples=60, deadline=None)
@given(cases, st.integers(0, 3))
def test_restrict_agrees(case, sub_radius):
    degree, radius, seed = case
    sub_radius = min(sub_radius, radius)
    rng = random.Random(seed)
    a, b = random_vertex(degree, rng), random_vertex(degree, rng)
    m = random_mapping(degree, a, b, radius, rng)
    inner = [x for x in m if tree_distance(a, x) + sub_radius <= radius]
    center = rng.choice(sorted(inner, key=lambda x: x.word))
    got = restrict(Germ.from_mapping(a, b, radius, m), center, sub_radius, degree)
    want = ref_restrict(RefGerm(a, b, radius, m), center, sub_radius, degree)
    assert_agrees(got, want, degree)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_sorted_germs_order_agrees(degree, radius, seed):
    rng = random.Random(seed)
    centers = [random_vertex(degree, rng, 0, 2) for _ in range(3)]
    mappings = []
    for _ in range(12):
        src, dst = rng.choice(centers), rng.choice(centers)
        mapping = random_mapping(degree, src, dst, radius, rng)
        mappings.append((src, dst, radius, mapping))
    mappings += mappings[:4]
    got = sorted_germs(Germ.from_mapping(*m) for m in mappings)
    want = sorted({RefGerm(*m).sort_key() for m in mappings})
    assert [g.sort_key() for g in got] == want


@pytest.mark.parametrize(
    "model, edge",
    [
        (BassSerreModel(2, 3), ("ε", "0")),
        (BassSerreModel(2, 3), ("3", "3.2")),
        (FullAutModel(3), ("1", "1.0")),
    ],
    ids=["edge0", "edge1", "full_aut"],
)
def test_fixator_maps_on_matches_the_dict_reference(model, edge):
    degree = model.degree
    v, w = (VertexAddr.parse(x) for x in edge)
    tube, pinned = thicken([v, w], 2, degree), edge_region(v, w, 1, degree)
    center = pinned[len(pinned) // 2]
    radius = max(tree_distance(center, x) for x in tube)
    seen = {}
    for g in model.stab_germ_group(center, radius):
        if all(g.apply(x) == x for x in pinned):
            m = {x: g.apply(x) for x in tube}
            seen.setdefault(tuple(sorted((a.word, b.word) for a, b in m.items())), m)
    # a map is an int tuple: entry p is the tube position of the image of
    # tube[p]; the chain lists them by image words in the tube's word order
    maps = list(model.fixator_maps_on(tube, pinned).elements())
    got = [{x: tube[m[p]] for p, x in enumerate(tube)} for m in maps]
    assert got == [seen[k] for k in sorted(seen)]


# --- ball germ listings ------------------------------------------------------


def _ref_germs(degree, src, dst, radius, pins=None):
    """The dict reference's maps between B(src, r) and B(dst, r) as germs,
    in its order."""
    a, b = ball_vertices(src, radius, degree), ball_vertices(dst, radius, degree)
    for m in ref_subtree_isos(degree, a, src, b, dst, pins=pins):
        yield Germ.from_mapping(src, dst, radius, m)


def _ball_pins(rng, degree, a, b, radius):
    """Pins that a real map satisfies, and sometimes one more that no map
    does. The dict reference checks a pin only once its parent is matched,
    so each pin comes with the pins of its ancestors: a dead branch is then
    cut at the step that chose it, not after a search of everything before."""
    real = random_mapping(degree, a, b, radius, rng)
    src, pins = ball_vertices(a, radius, degree), {}
    for x in rng.sample(src, min(len(src), rng.randint(0, 2))):
        pins.update((y, real[y]) for y in geodesic(a, x))
    if radius and rng.random() < 0.25:
        pins[a.step(rng.randrange(degree))] = b
    return pins


# every shape whose ball germs number at most 3! * 2**9 = 3,072
SMALL_BALLS = [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (5, 0), (5, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_BALLS), st.integers(0, 2**32 - 1))
def test_subtree_isos_match_the_dict_reference_on_balls(shape, seed):
    # the listing filtered by pins is the reference's pinned enumeration
    degree, radius = shape
    rng = random.Random(seed)
    a, b = random_vertex(degree, rng), random_vertex(degree, rng)
    pins = _ball_pins(rng, degree, a, b, radius)
    got = {
        g for g in iterate_ball_germs(degree, a, b, radius)
        if all(g.apply(x) == y for x, y in pins.items())
    }
    assert got == set(_ref_germs(degree, a, b, radius, pins))


@pytest.mark.parametrize(
    "degree, radius", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]
)
def test_ball_germs_match_the_dict_reference(degree, radius):
    # targets at distance 0, 1 and 2; at the centre in the same order
    # d! at the centre, (d-1)! at every other vertex of B(r - 1)
    inner = ball_size(degree, radius - 1) - 1
    count = math.factorial(degree) * math.factorial(degree - 1) ** inner
    for target in (ROOT, VertexAddr.parse("0"), VertexAddr.parse("1.2")):
        got = list(iterate_ball_germs(degree, ROOT, target, radius))
        want = list(_ref_germs(degree, ROOT, target, radius))
        assert len(got) == len(set(got)) == count
        assert set(got) == set(want)
        if target == ROOT:
            assert got == want


def test_ball_germs_past_the_limit_match_the_dict_reference_as_far_as_listed():
    # d = 5 at r = 2 has 120 * 24**5 germs, past the element limit: the
    # listing at the centre starts as the reference does
    got = itertools.islice(iterate_ball_germs(5, ROOT, ROOT, 2), 2000)
    want = itertools.islice(_ref_germs(5, ROOT, ROOT, 2), 2000)
    assert list(got) == list(want)


# (degree, k) at which full Aut's fixator chain on a tube builds quickly
SMALL_TUBES = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_TUBES), st.integers(0, 2**32 - 1))
def test_subtree_isos_match_the_dict_reference_on_pinned_tubes(shape, seed):
    # full Aut's fixator on a tube is every tube isomorphism fixing the
    # region; past 300 maps, the reference's first 300 must lie in it
    degree, k = shape
    rng = random.Random(seed)
    path = [random_vertex(degree, rng, 0, 2)]
    for _ in range(rng.randint(1, 2)):
        path.append(rng.choice([x for x in path[-1].neighbors(degree) if x not in path]))
    tube = thicken(path, k + rng.randint(0, 1), degree)
    region = thicken(path, k - 1, degree)
    pos = {x: p for p, x in enumerate(tube)}
    maps = ref_subtree_isos(degree, tube, path[0], tube, path[0], pins={x: x for x in region})
    want = [tuple(pos[m[x]] for x in tube) for m in itertools.islice(maps, 300)]
    chain = FullAutModel(degree).fixator_maps_on(tube, region)
    if chain.order() <= 300:
        assert set(chain.elements()) == set(want)
    else:
        assert all(m in chain for m in want)


def test_ball_germ_listings_raise_too_large_past_the_limit(monkeypatch):
    monkeypatch.setenv("TREECLOSE_MAX_ELEMENTS", "10")
    # 48 germs on a 10-vertex ball
    germs = iterate_ball_germs(3, ROOT, ROOT, 2)
    assert len(list(itertools.islice(germs, 10))) == 10
    with pytest.raises(TooLarge, match="^listing exceeded 10 elements$"):
        next(germs)
    # 4! fixing the root of a 5-vertex ball; the identity counts too
    candidates = FullAutModel(4).nondiscreteness_candidates(1)
    assert len(list(itertools.islice(candidates, 9))) == 9
    with pytest.raises(TooLarge, match="^more than 10 discreteness candidates$"):
        next(candidates)


def _ball_map(center, radius, degree):
    return {v: v for v in ball_vertices(center, radius, degree)}


def _build_and_validate(src, dst, radius, mapping, degree=3):
    return Germ.from_mapping(src, dst, radius, mapping).validate(degree)


def test_malformed_mappings_keep_their_messages():
    c = VertexAddr.parse("0.1")
    a, b = c.step(0), c.step(2)

    duplicate = _ball_map(c, 1, 3)
    duplicate[a] = b
    with pytest.raises(ValidationError, match="^image is not a bijection onto the target ball$"):
        _build_and_validate(c, c, 1, duplicate)

    outside = _ball_map(c, 1, 3)
    outside[a] = VertexAddr.parse("2.1.0")
    with pytest.raises(ValidationError, match="^image is not a bijection onto the target ball$"):
        _build_and_validate(c, c, 1, outside)

    missing = _ball_map(c, 1, 3)
    del missing[a]
    extra = _ball_map(c, 1, 3)
    extra[VertexAddr.parse("2")] = VertexAddr.parse("2")
    wrong_ball = _ball_map(ROOT, 1, 3)
    for bad in (missing, extra, wrong_ball, {}):
        with pytest.raises(ValidationError, match="^domain is not the source ball$"):
            _build_and_validate(c, c, 1, bad)
    # a ball of the wrong degree
    with pytest.raises(ValidationError, match="^domain is not the source ball$"):
        _build_and_validate(c, c, 1, _ball_map(c, 1, 4))

    off_center = _ball_map(c, 1, 3)
    off_center[c], off_center[a] = a, c
    with pytest.raises(ValidationError, match="^center does not map to center$"):
        _build_and_validate(c, c, 1, off_center)

    torn = _ball_map(c, 2, 3)
    leaf, other = a.step(1), b.step(1)
    torn[leaf], torn[other] = other, leaf
    with pytest.raises(ValidationError, match="^adjacency broken at"):
        _build_and_validate(c, c, 2, torn)

    with pytest.raises(ValidationError, match=r"^bad radius -1$"):
        _build_and_validate(c, c, -1, _ball_map(c, 1, 3))


def test_legality_verb_exits_2_on_malformed_germs(tmp_path, capsys):
    pairs = [[v.render(), v.render()] for v in ball_vertices(ROOT, 2, 3)]
    pairs[3][1] = pairs[4][1]
    for germ_pairs, message in (
        (pairs, "image is not a bijection onto the target ball"),
        (pairs[:-1], "domain is not the source ball"),
        ([["ε", "ε"], ["0", "1"], ["1", "0"], ["2", "2.0"]],
         "image is not a bijection onto the target ball"),
    ):
        radius = 2 if len(germ_pairs) > 4 else 1
        scenario = {
            "schema": "treeclose.scenario/v1",
            "model": {"model": "constant_local", "d": 3, "F": "sym"},
            "verb": "legality",
            "k": 1,
            "germ": {"src": "ε", "dst": "ε", "radius": radius, "pairs": germ_pairs},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["run", str(path), "--format", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == {"type": "ValidationError", "message": message}


def test_mismatch_errors_are_raised_where_they_were():
    c = VertexAddr.parse("1")
    g = Germ.from_mapping(c, c, 2, _ball_map(c, 2, 3))
    h = Germ.from_mapping(ROOT, ROOT, 2, _ball_map(ROOT, 2, 3))
    with pytest.raises(CenterMismatch):
        compose(h, g)
    with pytest.raises(RadiusMismatch):
        compose(restrict(g, c, 1, 3), g)
    with pytest.raises(NotContained):
        restrict(g, c.step(0), 2, 3)
    with pytest.raises(NotContained):
        restrict(g, VertexAddr.parse("1.0.1.0"), 0, 3)
    with pytest.raises(NotContained):
        g.apply(VertexAddr.parse("1.0.1.0"))
    with pytest.raises(NotContained):
        g.fixes([c, VertexAddr.parse("2.1")])
