"""Addresses, balls, geodesics, and germs on the d-regular tree.

A vertex is a reduced word over the edge colors 0..d-1 (consecutive
letters differ); the empty word is the base vertex. Stepping along
color c from v appends c, or cancels a trailing c, so every vertex has
exactly one neighbor per color and the coloring is legal. Words form
the free product of d copies of the order-2 group, which is why every
letter is its own inverse.

A germ is a finite chunk of automorphism: a bijection between two balls
of equal radius that preserves adjacency. On a tree that is enough to
preserve all distances inside the balls, and it forces center to map to
center (the center is the unique vertex of eccentricity <= radius).

Left multiplication by a word is a color-preserving tree automorphism,
so c^-1 carries the ball B(c, r) onto B(ROOT, r). Listing B(ROOT, r) as
ball_vertices(ROOT, r, d) therefore numbers every ball of radius r the
same way, and a germ is stored as (source center, image center, radius,
perm): perm[i] is the number of the image of vertex i. Composition and
inversion are int-tuple indexing; restriction reads index tables keyed by
(degree, radius, smaller radius, offset word), shared by all centers.

Maps between finite subtrees use the same idea with the caller's own
vertex lists: iterate_subtree_isos yields int tuples whose entry i is the
position in the target list of the image of the i-th source vertex. On
canonical ball lists such a tuple is a germ's perm, and the fixator maps
on a tube (GroupModel.fixator_maps_on) are tuples over tube positions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (
    CenterMismatch,
    NotContained,
    NotRegular,
    RadiusMismatch,
    Record,
    TooLarge,
    ValidationError,
    max_elements,
)


def require_regular(degree):
    if not isinstance(degree, int) or degree < 3:
        raise NotRegular(f"tree degree must be an integer >= 3, got {degree!r}")


def require_star(degree):
    """TooLarge when the neighbors of one vertex, which the caller is about
    to list, pass the element limit."""
    limit = max_elements()
    if degree > limit:
        raise TooLarge(f"a vertex has more than {limit} neighbors")


def word_mul(a, b):
    """Reduced concatenation of two reduced words (letters are involutions)."""
    out = list(a)
    i = 0
    while out and i < len(b) and out[-1] == b[i]:
        out.pop()
        i += 1
    return tuple(out) + tuple(b[i:])


def word_inv(a):
    return tuple(reversed(a))


class VertexAddr(Record):
    """Reduced color word addressing a vertex; the empty word is the root."""

    _fields = ("word",)

    def __init__(self, word=()):
        w = tuple(word)
        object.__setattr__(self, "word", w)
        for x, y in zip(w, w[1:]):
            if x == y:
                raise ValidationError(f"address not reduced: {w!r}")
        for x in w:
            if not isinstance(x, int) or x < 0:
                raise ValidationError(f"bad edge color {x!r}")

    # hot: equal and hashed as Record would make them, without a field tuple
    def __eq__(self, other):
        return self.word == other.word if other.__class__ is VertexAddr else NotImplemented

    def __hash__(self):
        return hash((self.word,))

    def step(self, color):
        # a reduced word stays reduced, so only the new color is checked
        word = self.word
        if word and word[-1] == color:
            return _addr(word[:-1])
        if not isinstance(color, int) or color < 0:
            raise ValidationError(f"bad edge color {color!r}")
        return _addr(word + (color,))

    def neighbors(self, degree):
        return [self.step(c) for c in range(degree)]

    @property
    def depth(self):
        return len(self.word)

    def render(self):
        if not self.word:
            return "ε"
        return ".".join(str(c) for c in self.word)

    @staticmethod
    def parse(text):
        # a JSON number such as 10.20 must not be read as the vertex 10.2
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise ValidationError(f"cannot parse vertex address {text!r}")
        t = str(text).strip()
        # "e" is an ASCII alias for the root, handy on the command line
        if t in ("ε", "e", ""):
            return VertexAddr()
        try:
            word = tuple(int(part) for part in t.split("."))
        except ValueError:
            raise ValidationError(f"cannot parse vertex address {text!r}") from None
        return VertexAddr(word)

    def __repr__(self):
        return f"VertexAddr({self.render()})"


ROOT = VertexAddr()


def common_prefix_len(a, b):
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def tree_distance(u, v):
    k = common_prefix_len(u.word, v.word)
    return len(u.word) + len(v.word) - 2 * k


def are_adjacent(u, v):
    return tree_distance(u, v) == 1


def edge_color(u, v):
    """Color of the edge between two adjacent vertices."""
    if not are_adjacent(u, v):
        raise ValidationError(f"{u!r} and {v!r} are not adjacent")
    longer = u if len(u.word) > len(v.word) else v
    return longer.word[-1]


def geodesic(u, v):
    """The unique path from u to v, inclusive."""
    k = common_prefix_len(u.word, v.word)
    # prefixes of a reduced word are reduced
    out = [_addr(u.word[:i]) for i in range(len(u.word), k - 1, -1)]
    out += [_addr(v.word[:i]) for i in range(k + 1, len(v.word) + 1)]
    return out


def ball_size(degree, radius):
    if radius == 0:
        return 1
    return 1 + degree * ((degree - 1) ** radius - 1) // (degree - 2)


def require_ball(degree, radius):
    """TooLarge when a ball of this radius passes the element limit."""
    limit = max_elements()
    if ball_size(degree, min(radius, limit.bit_length())) > limit:  # |B(r)| >= 2**r
        raise TooLarge(f"ball of radius {radius} has more than {limit} vertices")


@lru_cache(maxsize=None)
def ball_vertices(center, radius, degree):
    """All vertices within the given distance, sorted by (distance, word)."""
    require_regular(degree)
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    require_ball(degree, radius)
    out = [center]
    seen = {center}
    layer = [center]
    for _ in range(radius):
        nxt = []
        for v in layer:
            for c in range(degree):
                w = v.step(c)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        nxt.sort(key=lambda x: x.word)
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def sphere_vertices(center, radius, degree):
    return tuple(
        v for v in ball_vertices(center, radius, degree) if tree_distance(center, v) == radius
    )


def project_to_path(x, path):
    """Nearest vertex of the path; unique when the path is a geodesic."""
    return min(path, key=lambda p: (tree_distance(x, p), p.word))


def thicken(path, radius, degree):
    """All vertices within the given distance of the path, sorted."""
    seen = set()
    for p in path:
        seen.update(ball_vertices(p, radius, degree))
    return tuple(sorted(seen, key=lambda v: (v.depth, v.word)))


# ---------------------------------------------------------------------------
# germs
#
# The tables below depend on degree, radii and offset words only, so germs
# at every center share them (see the module docstring for the numbering).


def _addr(word):
    """VertexAddr of a word already known to be reduced, unchecked."""
    v = object.__new__(VertexAddr)
    object.__setattr__(v, "word", word)
    return v


def _offset(center_word, word):
    """The word that left multiplication by center_word sends to word."""
    return word_mul(word_inv(center_word), word) if center_word else word


@lru_cache(maxsize=None)
def _ball_table(degree, radius):
    """Canonical words of B(ROOT, r), their addresses, and word -> index.

    Degree None stands for a radius-0 ball of unknown degree.
    """
    addrs = (ROOT,) if degree is None else ball_vertices(ROOT, radius, degree)
    words = tuple(v.word for v in addrs)
    return words, addrs, {w: i for i, w in enumerate(words)}


@lru_cache(maxsize=None)
def _ball_degree(radius, size):
    """The degree whose radius-r ball has `size` vertices, or None."""
    degree = 3
    while ball_size(degree, radius) < size:
        degree += 1
    return degree if ball_size(degree, radius) == size else None


@lru_cache(maxsize=None)
def _sub_ball(degree, radius, sub_radius, offset):
    """Canonical indices in B(ROOT, radius) of B(offset, sub_radius), in
    that ball's canonical order, and the map back from the former."""
    index = _ball_table(degree, radius)[2]
    small = _ball_table(degree, sub_radius)[0]
    inside = tuple(index[word_mul(offset, w)] for w in small)
    return inside, {i: j for j, i in enumerate(inside)}


@lru_cache(maxsize=None)
def ball_parents(degree, radius):
    """Canonical index of the parent (toward the center) of each vertex."""
    words, _, index = _ball_table(degree, radius)
    return (0,) + tuple(index[w[:-1]] for w in words[1:])


def ball_addresses(center, radius, degree):
    """B(center, radius) in canonical order."""
    words, addrs, _ = _ball_table(degree, radius)
    c = center.word
    return tuple(_addr(word_mul(c, w)) for w in words) if c else addrs


def ball_positions(center, vertices, radius, degree):
    """Canonical indices of the given vertices in B(center, radius)."""
    index = _ball_table(degree, radius)[2]
    c = center.word
    out = []
    for v in vertices:
        i = index.get(_offset(c, v.word))
        if i is None:
            raise NotContained(f"{v!r} is outside the domain ball")
        out.append(i)
    return out


class Germ:
    """Adjacency-preserving bijection between two balls of equal radius.

    perm[i] is the canonical index of the image of the i-th canonical
    vertex of the source ball. Equality and hashing go through (source
    word, image word, radius, perm). pairs, the (source, image) list
    sorted by source word, is built only when it is read.
    """

    __slots__ = ("src_center", "dst_center", "radius", "perm", "degree", "_hash")

    def __init__(self, src_center, dst_center, radius, perm, degree):
        self.src_center = src_center
        self.dst_center = dst_center
        self.radius = radius
        self.perm = perm
        self.degree = degree
        self._hash = None

    @staticmethod
    def from_mapping(src_center, dst_center, radius, mapping):
        """Germ of a vertex dict; raises ValidationError unless its keys
        are a ball around src_center and its values lie in the ball of
        the same radius around dst_center."""
        if not isinstance(radius, int) or radius < 0:
            raise ValidationError(f"bad radius {radius!r}")
        # |B(r)| > 2**r, so n vertices make no ball of radius >= n.bit_length()
        n = len(mapping)
        degree = _ball_degree(radius, n) if 0 < radius < n.bit_length() else None
        if degree is None and (radius or n != 1):
            raise ValidationError("domain is not the source ball")
        index = _ball_table(degree, radius)[2]
        s, t = src_center.word, dst_center.word
        src = [index.get(_offset(s, u.word)) for u in mapping]
        if None in src:
            raise ValidationError("domain is not the source ball")
        dst = [index.get(_offset(t, w.word)) for w in mapping.values()]
        if None in dst:
            raise ValidationError("image is not a bijection onto the target ball")
        perm = [0] * len(src)
        for i, j in zip(src, dst):
            perm[i] = j
        return Germ(src_center, dst_center, radius, tuple(perm), degree)

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return (
            self.radius == other.radius
            and self.src_center.word == other.src_center.word
            and self.dst_center.word == other.dst_center.word
            and self.perm == other.perm
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.src_center.word, self.dst_center.word, self.radius, self.perm)
            )
        return self._hash

    def __repr__(self):
        return (
            f"Germ(src_center={self.src_center!r}, dst_center={self.dst_center!r}, "
            f"radius={self.radius!r}, pairs={self.pairs!r})"
        )

    @property
    def pairs(self):
        dom = ball_addresses(self.src_center, self.radius, self.degree)
        img = ball_addresses(self.dst_center, self.radius, self.degree)
        perm = self.perm
        order = sorted(range(len(dom)), key=lambda i: dom[i].word)
        return tuple((dom[i], img[perm[i]]) for i in order)

    def apply(self, v):
        words, addrs, index = _ball_table(self.degree, self.radius)
        i = index.get(_offset(self.src_center.word, v.word))
        if i is None:
            raise NotContained(f"{v!r} is outside the domain ball")
        j = self.perm[i]
        t = self.dst_center.word
        return _addr(word_mul(t, words[j])) if t else addrs[j]

    def fixes(self, vertices):
        return all(self.apply(v) == v for v in vertices)

    @property
    def is_identity_map(self):
        return (
            self.src_center.word == self.dst_center.word
            and self.perm == tuple(range(len(self.perm)))
        )

    def sort_key(self):
        return (
            self.src_center.word,
            self.dst_center.word,
            self.radius,
            tuple((u.word, w.word) for u, w in self.pairs),
        )

    def validate(self, degree):
        if not isinstance(self.radius, int) or self.radius < 0:
            raise ValidationError(f"bad radius {self.radius!r}")
        require_regular(degree)
        for center in (self.src_center, self.dst_center):
            if any(c >= degree for c in center.word):
                raise ValidationError(f"center {center.render()} is not on the {degree}-regular tree")
        if self.radius and self.degree != degree:
            raise ValidationError("domain is not the source ball")
        if len(set(self.perm)) != len(self.perm):
            raise ValidationError("image is not a bijection onto the target ball")
        if self.perm[0] != 0:
            raise ValidationError("center does not map to center")
        for u in ball_vertices(self.src_center, self.radius, degree):
            if tree_distance(self.src_center, u) >= self.radius:
                continue
            for c in range(degree):
                v = u.step(c)
                if not are_adjacent(self.apply(u), self.apply(v)):
                    raise ValidationError(f"adjacency broken at ({u!r}, {v!r})")
        return self


def ball_word_ranks(center_word, radius, degree):
    """Rank in word order of each vertex of B(center, radius), listed in
    canonical order."""
    moved = [word_mul(center_word, w) for w in _ball_table(degree, radius)[0]]
    ranks = [0] * len(moved)
    for r, i in enumerate(sorted(range(len(moved)), key=moved.__getitem__)):
        ranks[i] = r
    return ranks


def sorted_germs(germs):
    """Distinct germs in sort_key order, without building the keys.

    Germs sharing source, image and radius share their source words, so
    sort_key compares their image words in source-word order; ranks of
    those words, computed once per group, compare the same way.
    """
    groups = {}
    for g in set(germs):
        key = (g.src_center.word, g.dst_center.word, g.radius)
        groups.setdefault(key, []).append(g)
    out = []
    for (s, t, r), members in sorted(groups.items(), key=lambda kv: kv[0]):
        degree = members[0].degree
        src_rank = ball_word_ranks(s, r, degree)
        order = sorted(range(len(src_rank)), key=src_rank.__getitem__)
        img_rank = src_rank if s == t else ball_word_ranks(t, r, degree)
        members.sort(
            key=lambda g: tuple(
                map(img_rank.__getitem__, map(g.perm.__getitem__, order))
            )
        )
        out.extend(members)
    return tuple(out)


def identity_germ(center, radius, degree):
    size = len(ball_vertices(ROOT, radius, degree))
    return Germ(center, center, radius, tuple(range(size)), degree)


def compose(outer, inner):
    """outer after inner; centers must chain and radii must match."""
    if outer.radius != inner.radius:
        raise RadiusMismatch(f"radii {outer.radius} != {inner.radius}")
    if outer.src_center != inner.dst_center:
        raise CenterMismatch(
            f"outer source center {outer.src_center!r} != inner image center {inner.dst_center!r}"
        )
    return Germ(
        inner.src_center,
        outer.dst_center,
        inner.radius,
        tuple(map(outer.perm.__getitem__, inner.perm)),
        inner.degree,
    )


def invert(germ):
    perm = germ.perm
    return Germ(
        germ.dst_center,
        germ.src_center,
        germ.radius,
        tuple(sorted(range(len(perm)), key=perm.__getitem__)),
        germ.degree,
    )


def restrict(germ, center, radius, degree):
    """Restriction to a smaller ball inside the domain."""
    if tree_distance(germ.src_center, center) + radius > germ.radius:
        raise NotContained(
            f"ball of radius {radius} at {center!r} is not inside the domain"
        )
    perm = germ.perm
    offset = _offset(germ.src_center.word, center.word)
    inside = _sub_ball(degree, germ.radius, radius, offset)[0]
    target = _ball_table(degree, germ.radius)[0][perm[inside[0]]]
    back = _sub_ball(degree, germ.radius, radius, target)[1]
    return Germ(
        center,
        _addr(word_mul(germ.dst_center.word, target)),
        radius,
        tuple([back[perm[i]] for i in inside]),
        degree,
    )


def germ_from_images(center, radius, degree, images):
    """Germ sending the i-th vertex of B(center, radius), in canonical
    order, to images[i]; caller vouches it is an automorphism."""
    index = _ball_table(degree, radius)[2]
    t = images[0].word
    perm = tuple([index.get(_offset(t, w.word)) for w in images])
    if None in perm:
        raise ValidationError("image is not a bijection onto the target ball")
    return Germ(center, images[0], radius, perm, degree)


def germ_of_map(func, center, radius, degree):
    """Germ of an arbitrary vertex map; caller vouches it is an automorphism."""
    mapping = {v: func(v) for v in ball_vertices(center, radius, degree)}
    return Germ.from_mapping(center, mapping[center], radius, mapping)


# ---------------------------------------------------------------------------
# enumeration of tree isomorphisms on finite pieces


def _subtree_layout(degree, pos, root):
    """Positions of a rooted subtree's vertices (the keys of pos) by
    (distance, word), and each position's children positions by word."""
    depth = {v: tree_distance(v, root) for v in pos}
    order = sorted(pos, key=lambda v: (depth[v], v.word))
    children = {}
    for v in order:
        if v != root and geodesic(v, root)[1] not in pos:
            raise ValidationError(f"{v!r} is disconnected from the root")
        kids = [w for w in v.neighbors(degree) if depth.get(w) == depth[v] + 1]
        kids.sort(key=lambda x: x.word)
        children[pos[v]] = tuple(pos[w] for w in kids)
    return [pos[v] for v in order], children


def iterate_subtree_isos(degree, src_vertices, src_root, dst_vertices, dst_root, pins=None):
    """All graph isomorphisms between two finite subtrees, root to root.

    Each map is an int tuple: entry i is the position in dst_vertices of
    the image of src_vertices[i]. pins maps source vertices to forced
    images; each pin also pins the ancestors of its source to those of its
    image, so inconsistent branches are pruned where they start. Maps come
    in a fixed order: source vertices taken by (distance, word), the
    children of each matched to the image's children (both sorted by word)
    in itertools.permutations order. Every yielded map extends to a full
    tree automorphism: matching subtree degrees leave matching ambient
    degrees free on both sides. TooLarge past the element limit.
    """
    require_regular(degree)
    limit = max_elements()
    src_pos = {v: i for i, v in enumerate(src_vertices)}
    dst_pos = {v: i for i, v in enumerate(dst_vertices)}
    if src_root not in src_pos or dst_root not in dst_pos:
        raise ValidationError("root not contained in its vertex set")
    wanted = {}
    for a, b in dict(pins or {}).items():
        if a not in src_pos:
            raise ValidationError(f"pin source {a!r} outside the domain")
        wanted[src_pos[a]] = dst_pos.get(b, -1)
    root, image_root = src_pos[src_root], dst_pos[dst_root]
    if len(src_pos) != len(dst_pos) or wanted.get(root, image_root) != image_root:
        return
    src_order, src_children = _subtree_layout(degree, src_pos, src_root)
    dst_children = _subtree_layout(degree, dst_pos, dst_root)[1]
    # a pin x -> y sends the geodesic from the root to x onto the one to
    # y, so each ancestor of x is pinned to the ancestor of y at the same
    # depth (-1 when there is none); pins no map meets clash on the way or
    # pin the root away from image_root
    src_up = {a: v for v, kids in src_children.items() for a in kids}
    dst_up = {b: w for w, kids in dst_children.items() for b in kids}
    for a, b in list(wanted.items()):
        while a != root:
            a, b = src_up[a], dst_up.get(b, -1)
            if a in wanted:
                if wanted[a] != b:
                    return
                break  # its own walk covers the rest
            wanted[a] = b
    if wanted.get(root, image_root) != image_root:
        return

    # A complete map is a bijection, so it sends leaves to leaves: only
    # the root and the internal vertices need a choice. Each step is
    # (vertex, children, pinned (child index, forced image) pairs).
    steps = []
    for v in src_order:
        kids = src_children[v]
        if kids or v == root:
            pinned = tuple((j, wanted[a]) for j, a in enumerate(kids) if a in wanted)
            steps.append((v, kids, pinned))
    image = [-1] * len(src_pos)
    image[root] = image_root
    last = len(steps) - 1
    count = 0

    def choices(step):
        v, kids, _ = step
        targets = dst_children[image[v]]
        return itertools.permutations(targets) if len(targets) == len(kids) else iter(())

    # one permutations iterator per step on the current branch
    stack = [choices(steps[0])]
    while stack:
        i = len(stack) - 1
        _, kids, pinned = steps[i]
        for choice in stack[i]:
            if not pinned or all(choice[j] == b for j, b in pinned):
                break
        else:
            stack.pop()
            continue
        for a, b in zip(kids, choice):
            image[a] = b
        if i < last:
            stack.append(choices(steps[i + 1]))
            continue
        count += 1
        if count > limit:
            raise TooLarge(f"more than {limit} isomorphisms")
        yield tuple(image)


def iterate_ball_germs(degree, src_center, dst_center, radius, pins=None):
    """All germs between the two balls.

    Unpinned there are d! * ((d-1)!)^(|B(r-1)| - 1) of them: d! choices at
    the center, (d-1)! at every other vertex of the radius r-1 ball.
    """
    src = ball_addresses(src_center, radius, degree)
    dst = ball_addresses(dst_center, radius, degree)
    for perm in iterate_subtree_isos(degree, src, src_center, dst, dst_center, pins=pins):
        yield Germ(src_center, dst_center, radius, perm, degree)
