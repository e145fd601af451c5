"""The index-based germ core against a dict reference of germ semantics.

RefGerm keeps a germ as its (source, image) pairs sorted by source word,
which is how germs, their sort order and their JSON were defined before
germs became permutations of canonical ball indices. Every germ operation
must agree with it exactly, on random germs between non-root centers.
ref_subtree_isos is the recursive dict enumerator that iterate_subtree_isos
replaced; the int-tuple maps must be the same maps in the same order.
"""

import itertools
import json
import math
import os
import random
import signal
from unittest import mock

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
from treeclose.tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_addresses,
    ball_size,
    ball_vertices,
    compose,
    geodesic,
    invert,
    iterate_subtree_isos,
    restrict,
    sorted_germs,
    sphere_vertices,
    thicken,
    tree_distance,
)


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


# --- subtree isomorphism enumeration ------------------------------------------


def ref_subtree_isos(degree, src_vertices, src_root, dst_vertices, dst_root, pins=None, guard=None):
    """The recursive dict enumerator that iterate_subtree_isos replaced."""
    src_set, dst_set = frozenset(src_vertices), frozenset(dst_vertices)
    pins = dict(pins or {})
    if len(src_set) != len(dst_set) or pins.get(src_root, dst_root) != dst_root:
        return

    def layout(vertices, root):
        depth = {v: tree_distance(v, root) for v in vertices}
        order = sorted(vertices, key=lambda v: (depth[v], v.word))
        children = {}
        for v in order:
            kids = [x for x in v.neighbors(degree) if x in vertices and depth[x] == depth[v] + 1]
            children[v] = sorted(kids, key=lambda x: x.word)
        return order, children

    src_order, src_children = layout(src_set, src_root)
    _, dst_children = layout(dst_set, dst_root)
    mapping = {src_root: dst_root}
    count = 0

    def rec(i):
        nonlocal count
        if i == len(src_order):
            count += 1
            if guard is not None and count > guard:
                raise TooLarge(f"more than {guard} isomorphisms")
            yield dict(mapping)
            return
        cs = src_children[src_order[i]]
        ct = dst_children[mapping[src_order[i]]]
        if len(cs) != len(ct):
            return
        for perm in itertools.permutations(ct):
            if any(pins.get(a, b) != b for a, b in zip(cs, perm)):
                continue
            mapping.update(zip(cs, perm))
            yield from rec(i + 1)
            for a in cs:
                del mapping[a]

    yield from rec(0)


def _first_isos(enumerate_isos, degree, src, dst, pins, limit=300):
    """The first maps, as dicts, from roots src[0] to dst[0]."""
    out = []
    for m in enumerate_isos(degree, src, src[0], dst, dst[0], pins=pins):
        if not isinstance(m, dict):
            m = {x: dst[j] for x, j in zip(src, m)}
        out.append(m)
        if len(out) == limit:
            break
    return out


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
    return pins or None


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_subtree_isos_match_the_dict_reference_on_balls(degree, radius, seed):
    rng = random.Random(seed)
    a, b = random_vertex(degree, rng), random_vertex(degree, rng)
    src, dst = ball_addresses(a, radius, degree), ball_addresses(b, radius, degree)
    pins = _ball_pins(rng, degree, a, b, radius)
    want = _first_isos(ref_subtree_isos, degree, src, dst, pins)
    assert _first_isos(iterate_subtree_isos, degree, src, dst, pins) == want


def _deep_pins(rng, degree, a, b, radius):
    """Pins at depth two or more, without their ancestors: some a real map
    meets, and sometimes one that sends a vertex to a vertex of another
    depth, outside the ball, or to a sibling clash no map meets."""
    real = random_mapping(degree, a, b, radius, rng)
    deep = [x for x in real if tree_distance(a, x) >= 2]
    pins = {x: real[x] for x in rng.sample(deep, min(len(deep), rng.randint(1, 3)))}
    x = rng.choice(deep)
    wrong = rng.random()
    if wrong < 0.15:
        pins[x] = b
    elif wrong < 0.3:
        pins[x] = rng.choice(sphere_vertices(b, radius + 1, degree))
    elif wrong < 0.5:
        # the image of a vertex in another branch from the root
        other = rng.choice([y for y in deep if geodesic(a, y)[1] != geodesic(a, x)[1]])
        pins[x] = real[other]
    return pins


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3), (4, 2)]), st.integers(0, 2**32 - 1))
def test_subtree_isos_close_deep_pins_under_ancestors(shape, seed):
    # the dict reference checks a pin only once its parent is matched, so
    # these shapes are the ones it can search through in full
    degree, radius = shape
    rng = random.Random(seed)
    a, b = random_vertex(degree, rng), random_vertex(degree, rng)
    src, dst = ball_addresses(a, radius, degree), ball_addresses(b, radius, degree)
    pins = _deep_pins(rng, degree, a, b, radius)
    want = _first_isos(ref_subtree_isos, degree, src, dst, pins)
    assert _first_isos(iterate_subtree_isos, degree, src, dst, pins) == want


def test_unmet_deep_pin_ends_the_search_before_it_starts():
    # d = 5, R = 3 has 120 * 24^20 maps; a leaf pinned to its own parent is
    # met by none, and unclosed it would be checked only at the last step
    src = ball_addresses(ROOT, 3, 5)
    leaf = src[-1]
    pins = {leaf: geodesic(ROOT, leaf)[-2]}

    def stop(signum, frame):
        raise TimeoutError("the unmet pin did not end the search")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        assert next(iterate_subtree_isos(5, src, ROOT, src, ROOT, pins=pins), None) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_subtree_isos_match_the_dict_reference_on_pinned_tubes(degree, k, seed):
    rng = random.Random(seed)
    path = [random_vertex(degree, rng, 0, 2)]
    for _ in range(rng.randint(1, 2)):
        path.append(rng.choice([x for x in path[-1].neighbors(degree) if x not in path]))
    tube = thicken(path, k + rng.randint(0, 1), degree)
    region = thicken(path, k - 1, degree)
    pins = {x: x for x in region}
    # swapping two children of a region vertex off the region is realized
    # by some map; moving the root is realized by none
    parent = rng.choice(region)
    kids = [x for x in parent.neighbors(degree) if x in tube and x not in region]
    if len(kids) >= 2:
        x, y = rng.sample(kids, 2)
        pins[x] = y
    if rng.random() < 0.2:
        pins[path[0]] = path[1]
    # rooted at a path end, as fixator_maps_on roots them
    src = (path[0],) + tuple(x for x in tube if x != path[0])
    want = _first_isos(ref_subtree_isos, degree, src, src, pins)
    assert _first_isos(iterate_subtree_isos, degree, src, src, pins) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(1, 3), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_subtree_isos_raise_too_large_at_guard_plus_one(degree, radius, guard, seed):
    rng = random.Random(seed)
    a, b = random_vertex(degree, rng), random_vertex(degree, rng)
    src, dst = ball_addresses(a, radius, degree), ball_addresses(b, radius, degree)
    total = math.factorial(degree) * math.factorial(degree - 1) ** (ball_size(degree, radius - 1) - 1)
    # iterate_subtree_isos reads the element limit; the balls are built first
    # (@given rejects the function-scoped monkeypatch fixture)
    with mock.patch.dict(os.environ, {"TREECLOSE_MAX_ELEMENTS": str(guard)}):
        for isos in (
            ref_subtree_isos(degree, src, a, dst, b, guard=guard),
            iterate_subtree_isos(degree, src, a, dst, b),
        ):
            assert len(list(itertools.islice(isos, guard))) == min(guard, total)
            if guard < total:
                with pytest.raises(TooLarge):
                    next(isos)
            else:
                assert next(isos, None) is None


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
