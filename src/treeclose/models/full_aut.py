"""The full automorphism group of the d-regular tree, truncated exactly.

Infinite automorphisms are represented by rigid elements: a germ plus
the canonical extension that continues beyond the germ's ball by
matching leftover colors through the order-preserving bijection at each
step (for a radius-0 germ the initial bijection is the identity on all
colors). The composite of order-preserving bijections is again order
preserving, so products and inverses of rigid elements are rigid with a
computable window, and the family is closed under the group operations
with no approximation.

Equality of RigidElement values is representational: two different
(center, radius) presentations of the same tree map compare unequal.
Compare germs on a window when map equality is what you mean.
"""

from __future__ import annotations

import itertools

from ..errors import BadElement, Record, TooLarge, ValidationError, max_elements, product_exceeds
from ..permgroup import identity_perm, perm_from_cycles
from ..tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_size,
    ball_vertices,
    edge_color,
    geodesic,
    germ_of_map,
    identity_germ,
    iterate_ball_germs,
    iterate_subtree_isos,
    tree_distance,
    word_mul,
    require_ball,
    require_regular,
)
from .base import GroupModel


def _stab_germ_count_exceeds(degree, k, limit):
    """Whether the radius-k germs fixing a vertex, d! * ((d-1)!)^(|B(k-1)| - 1)
    of them, pass the limit; no number much larger than the limit is built."""
    # each factor (d-1)! is at least 2, so a radius past the limit's bit
    # length gives more factors than it takes to pass the limit
    inner = ball_size(degree, min(k - 1, limit.bit_length())) - 1
    factors = itertools.chain(
        range(2, degree + 1), (f for _ in range(inner) for f in range(2, degree))
    )
    return product_exceeds(factors, limit)


class RigidElement(Record):
    _fields = ("germ",)


class FullAutModel(GroupModel):
    name = "full_aut"

    def __init__(self, degree):
        require_regular(degree)
        self.degree = degree
        self._translation_cache = {}

    # --- rigid extension ----------------------------------------------------

    def act(self, g, v):
        germ = g.germ
        c, r = germ.src_center, germ.radius
        if tree_distance(c, v) <= r:
            return germ.apply(v)
        path = geodesic(c, v)
        cur_dst = germ.apply(path[r])
        if r == 0:
            in_src = in_dst = None
        else:
            in_src = edge_color(path[r], path[r - 1])
            in_dst = edge_color(cur_dst, germ.apply(path[r - 1]))
        for i in range(r, len(path) - 1):
            step_src = edge_color(path[i], path[i + 1])
            avail_src = [x for x in range(self.degree) if x != in_src]
            avail_dst = [x for x in range(self.degree) if x != in_dst]
            step_dst = avail_dst[avail_src.index(step_src)]
            cur_dst = cur_dst.step(step_dst)
            in_src, in_dst = step_src, step_dst
        return cur_dst

    # --- group operations -----------------------------------------------------

    def identity(self):
        return RigidElement(identity_germ(ROOT, 0, self.degree))

    def mul(self, a, b):
        cb = b.germ.src_center
        # radius where the composite's rigid continuation takes over
        radius = max(
            b.germ.radius,
            tree_distance(self.act(b, cb), a.germ.src_center) + a.germ.radius,
        )
        mapping = {
            v: self.act(a, self.act(b, v)) for v in ball_vertices(cb, radius, self.degree)
        }
        return RigidElement(Germ.from_mapping(cb, mapping[cb], radius, mapping))

    def inv(self, a):
        from ..tree_core import invert

        return RigidElement(invert(a.germ))

    def from_word_element(self, word, perm, radius):
        """Rigid truncation of the constant-local element (word, perm);
        exact on the ball of the given radius around the root."""
        word = tuple(word)

        def f(v):
            return VertexAddr(word_mul(word, tuple(perm[c] for c in v.word)))

        return RigidElement(germ_of_map(f, ROOT, radius, self.degree))

    # --- translations for commutator work ---------------------------------------

    def axis_vertex(self, z):
        """Vertex z steps along the line through the root alternating
        colors 0 and 1; negative z goes the other way."""
        if z >= 0:
            word = tuple((0, 1)[i % 2] for i in range(z))
        else:
            word = tuple((1, 0)[i % 2] for i in range(-z))
        return VertexAddr(word)

    def translation(self, amplitude, window_radius):
        """Element translating the alternating 0-1 axis by `amplitude`,
        exact within the window."""
        if amplitude <= 0:
            raise ValidationError("amplitude must be positive")
        key = (amplitude, window_radius)
        got = self._translation_cache.get(key)
        if got is not None:
            return got
        require_ball(self.degree, window_radius)  # before a word of `amplitude` letters
        word = tuple((0, 1)[i % 2] for i in range(amplitude))
        if amplitude % 2:
            perm = perm_from_cycles(self.degree, [(0, 1)])
        else:
            perm = identity_perm(self.degree)
        out = self.from_word_element(word, perm, window_radius)
        self._translation_cache[key] = out
        return out

    # --- structure -----------------------------------------------------------------

    def transporter(self, u, w):
        return RigidElement(Germ.from_mapping(u, w, 0, {u: w}))

    def _stab_germs(self, v, k):
        limit = max_elements()
        if k > 0 and _stab_germ_count_exceeds(self.degree, k, limit):
            raise TooLarge(f"stabilizer germ group exceeded {limit}")
        return iterate_ball_germs(self.degree, v, v, k)

    def fixator_maps_on(self, tube, pinned):
        # every automorphism of the tube subtree extends to the whole tree,
        # so direct enumeration is both exact and complete
        pinned = tuple(pinned)
        tube = tuple(tube)
        root = pinned[0]
        pins = {x: x for x in pinned}
        return frozenset(
            iterate_subtree_isos(self.degree, tube, root, tube, root, pins=pins)
        )

    def iter_elements(self):
        for radius in itertools.count(0):
            for dst in ball_vertices(ROOT, radius, self.degree):
                for germ in iterate_ball_germs(self.degree, ROOT, dst, radius):
                    yield RigidElement(germ)

    def nondiscreteness_candidates(self, k):
        # fix a ball of growing radius pointwise, twist just outside it
        for s in itertools.count(max(k - 1, 0)):
            pins = {x: x for x in ball_vertices(ROOT, s, self.degree)}
            for germ in iterate_ball_germs(self.degree, ROOT, ROOT, s + 1, pins=pins):
                if not germ.is_identity_map:
                    yield RigidElement(germ)

    # --- serialization ----------------------------------------------------------------

    def element_to_json(self, g):
        return {
            "center": g.germ.src_center.render(),
            "radius": g.germ.radius,
            "pairs": [[u.render(), w.render()] for u, w in g.germ.pairs],
        }

    def element_from_json(self, data):
        center = VertexAddr.parse(data["center"])
        radius = int(data["radius"])
        mapping = {
            VertexAddr.parse(u): VertexAddr.parse(w) for u, w in data["pairs"]
        }
        try:
            germ = Germ.from_mapping(
                center, mapping.get(center, center), radius, mapping
            )
            germ.validate(self.degree)
        except ValidationError as exc:
            raise BadElement(str(exc)) from None
        return RigidElement(germ)
