"""Universal covers of fibered cycle graphs and the lift groups on them.

The base graph C(p, r) has vertices (i, j) with i a level mod r and j a
fiber index 1..p; every vertex of level i is adjacent to all p vertices
of levels i-1 and i+1, so the graph is 2p-regular and its universal
cover is the 2p-regular tree. The infinite strip variant indexes levels
by all integers. Levels need r >= 3 so that the two neighbor sides stay
disjoint.

The model group consists of all automorphisms of the cover that project
to an automorphism of the base. Such a lift is determined by the base
automorphism together with the image of one vertex, because the
projection is a local bijection and images propagate edge by edge. The
strip group uses finite-support fiber permutation data; every germ of
the full (non-finitary) automorphism group on a finite window is
realized by a finite-support element already, so all finite certificates
are unaffected.

Each base graph owns its automorphisms: it names the identity, a
transporter, the automorphisms that generate the root's stabiliser
(stab_autos) and its candidate stream, and reads automorphisms from
JSON. C(p, r) holds its automorphism group as a stabiliser chain over
its vertices, from named generators; the stabiliser generators and the
candidates are read off that chain. CoverModel holds the covering map, a
TreeChart over the base graph, and lifts what the base names, without
asking which base it holds.

Neighbor order is direction-aware on purpose: level i-1 fibers first,
then level i+1 fibers, identically for the finite and infinite bases, so
both covers address the same colored tree and germ sets are directly
comparable.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ..errors import Record, ValidationError, as_int
from ..permgroup import StabChain, check_perm, identity_perm, invert_perm, perm_from_cycles
from ..tree_core import ROOT, VertexAddr, geodesic, require_star
from .base import GroupModel, TreeChart


class CycleGraph(Record):
    _fields = ("p", "r")

    def __init__(self, p, r):
        super().__init__(p, r)
        if p < 1 or r < 3:
            raise ValidationError("need p >= 1 fibers and r >= 3 levels")

    @property
    def root(self):
        return (0, 1)

    def vertices(self):
        return [(i, j) for i in range(self.r) for j in range(1, self.p + 1)]

    def ordered_neighbors(self, v):
        i, _ = v
        down = [((i - 1) % self.r, l) for l in range(1, self.p + 1)]
        up = [((i + 1) % self.r, l) for l in range(1, self.p + 1)]
        return down + up

    @cached_property
    def aut_chain(self):
        """The automorphism group as a StabChain over positions in
        vertices(), which is also its base; TooLarge past the element limit.
        Vertices with one neighbour set are permuted freely, by a swap and
        a full cycle of each such class, and the levels by the rotation
        i -> i + 1 and the reflection i -> -i: these generate it."""
        verts = self.vertices()
        index = {v: n for n, v in enumerate(verts)}
        classes = {}
        for v in verts:
            classes.setdefault(frozenset(self.ordered_neighbors(v)), []).append(index[v])
        gens = []
        for cls in map(tuple, classes.values()):
            for cycle in dict.fromkeys([cls[:2], cls]):
                if len(cycle) > 1:
                    gens.append(perm_from_cycles(len(verts), [cycle]))
        gens.append(tuple(index[((i + 1) % self.r, j)] for i, j in verts))
        gens.append(tuple(index[(-i % self.r, j)] for i, j in verts))
        return StabChain(gens, range(len(verts)), "automorphism group exceeds {}")

    def _auto(self, perm):
        verts = self.vertices()
        return FiniteAuto(tuple(zip(verts, map(verts.__getitem__, perm))))

    def identity(self):
        return FiniteAuto.from_mapping({v: v for v in self.vertices()})

    def transporter(self, bu, bw):
        """Swaps the fibers of bu and bw on bu's level, then rotates that
        level onto bw's."""
        delta = bw[0] - bu[0]
        swap = {bu[1]: bw[1], bw[1]: bu[1]}
        return FiniteAuto.from_mapping({
            (i, j): ((i + delta) % self.r, swap.get(j, j) if i == bu[0] else j)
            for (i, j) in self.vertices()
        })

    def stab_autos(self, k):
        """Automorphisms whose lifts generate the radius-k stabiliser germs
        at the root: the strong generators of the root's stabiliser, the
        root being first in the base."""
        return [self._auto(g) for g in self.aut_chain.generators(1)]

    def is_covered_by(self, bvs):
        return set(bvs) == set(self.vertices())

    def candidate_autos(self):
        # the root is first in the base, so the automorphisms fixing it
        # come first in the listing, the identity before them
        listing = self.aut_chain.elements()
        next(listing)
        return map(self._auto, itertools.takewhile(lambda g: g[0] == 0, listing))

    def auto_from_json(self, raw):
        verts = set(self.vertices())

        def vertex(coords):
            return tuple(as_int(x, "a vertex coordinate") for x in coords)

        try:
            mapping = {vertex(v): vertex(w) for v, w in raw["pairs"]}
            bijective = set(mapping) == verts == set(mapping.values())
        except (KeyError, TypeError, ValueError):
            bijective = False
        if not bijective:
            raise ValidationError("'pairs' must map the base vertices one to one")
        auto = FiniteAuto.from_mapping(mapping)
        if not is_graph_automorphism(self, auto):
            raise ValidationError("not an automorphism of the base graph")
        return auto

    def describe(self):
        return {"graph": "C", "p": self.p, "r": self.r}


class StripGraph(Record):
    _fields = ("p",)

    def __init__(self, p):
        super().__init__(p)
        if p < 1:
            raise ValidationError("need p >= 1 fibers")

    @property
    def root(self):
        return (0, 1)

    def ordered_neighbors(self, v):
        i, _ = v
        down = [(i - 1, l) for l in range(1, self.p + 1)]
        up = [(i + 1, l) for l in range(1, self.p + 1)]
        return down + up

    def identity(self):
        return StripAuto.of(1, 0, {})

    def transporter(self, bu, bw):
        """Swaps the fibers of bu and bw on bu's level, then shifts that
        level onto bw's."""
        swap = perm_from_cycles(self.p, [(bu[1] - 1, bw[1] - 1)])
        return StripAuto.of(1, bw[0] - bu[0], {bu[0]: swap})

    def stab_autos(self, k):
        """Automorphisms whose lifts generate the radius-k stabiliser germs
        at the root."""
        # a germ on B(ε, k) reads the levels -k..k only; the reflection
        # through level 0 and, on each such level, a swap and a full cycle
        # of the fibers other than the root's generate them
        autos = [StripAuto.of(-1, 0, {})]
        for lv in range(-k, k + 1):
            free = tuple(j for j in range(self.p) if (lv, j + 1) != self.root)
            for cycle in dict.fromkeys([free[:2], free]):
                if len(cycle) > 1:
                    autos.append(StripAuto.of(1, 0, {lv: perm_from_cycles(self.p, [cycle])}))
        return autos

    def is_covered_by(self, bvs):
        # a finite region never covers the infinite strip
        return False

    def candidate_autos(self):
        for bound in itertools.count(1):
            for lv in (bound, -bound):
                for perm in itertools.permutations(range(self.p)):
                    if perm != identity_perm(self.p):
                        yield StripAuto.of(1, 0, {lv: perm})

    def auto_from_json(self, raw):
        eps = as_int(raw.get("eps"), "'eps'")
        if eps not in (1, -1):
            raise ValidationError(f"'eps' must be 1 or -1, got {eps}")
        sigmas = {
            as_int(lv, f"level {lv!r}"): check_perm(perm, self.p)
            for lv, perm in raw.get("sigmas", {}).items()
        }
        return StripAuto.of(eps, as_int(raw.get("shift"), "'shift'"), sigmas)

    def describe(self):
        return {"graph": "strip", "p": self.p, "r": None}


class FiniteAuto(Record):
    _fields = ("pairs",)

    @cached_property
    def mapping(self):
        return dict(self.pairs)

    @staticmethod
    def from_mapping(m):
        return FiniteAuto(tuple(sorted(m.items())))

    def apply(self, bv):
        return self.mapping[bv]

    def compose(self, inner):
        """self after inner."""
        return FiniteAuto.from_mapping({v: self.mapping[w] for v, w in inner.pairs})

    def inverse(self):
        return FiniteAuto.from_mapping({w: v for v, w in self.pairs})

    def to_json(self):
        return {"pairs": [[list(v), list(w)] for v, w in self.pairs]}


class StripAuto(Record):
    """(i, j) maps to (eps*i + shift, sigma_i(j)); sigma has finite support."""

    _fields = ("eps", "shift", "sigmas")  # sigmas: sorted ((level, perm), ...), no identities

    @cached_property
    def sigma_map(self):
        return dict(self.sigmas)

    @staticmethod
    def of(eps, shift, sigmas):
        kept = {lv: perm for lv, perm in sigmas.items() if perm != identity_perm(len(perm))}
        return StripAuto(eps, shift, tuple(sorted(kept.items())))

    def apply(self, bv):
        i, j = bv
        sigma = self.sigma_map.get(i)
        return (self.eps * i + self.shift, j if sigma is None else sigma[j - 1] + 1)

    def compose(self, inner):
        """self after inner."""
        levels = {lv for lv, _ in inner.sigmas}
        levels.update(inner.eps * (lv - inner.shift) for lv, _ in self.sigmas)
        sigmas = {}
        for i in levels:
            s1 = inner.sigma_map.get(i)
            s2 = self.sigma_map.get(inner.eps * i + inner.shift)
            if s1 is None or s2 is None:
                # the level moves under one of the two only
                sigmas[i] = s1 or s2
            else:
                sigmas[i] = tuple(s2[x] for x in s1)
        return StripAuto.of(self.eps * inner.eps, self.eps * inner.shift + self.shift, sigmas)

    def inverse(self):
        sigmas = {self.eps * lv + self.shift: invert_perm(perm) for lv, perm in self.sigmas}
        return StripAuto.of(self.eps, -self.eps * self.shift, sigmas)

    def to_json(self):
        return {
            "eps": self.eps,
            "shift": self.shift,
            "sigmas": {str(lv): list(perm) for lv, perm in self.sigmas},
        }


def is_graph_automorphism(graph, auto):
    verts = graph.vertices()
    m = auto.mapping
    if sorted(m) != sorted(verts) or sorted(m.values()) != sorted(verts):
        return False
    for v in verts:
        if {m[x] for x in graph.ordered_neighbors(v)} != set(
            graph.ordered_neighbors(m[v])
        ):
            return False
    return True


class CoverElement(Record):
    _fields = ("auto", "anchor_image")


class CoverModel(GroupModel):
    name = "cover"

    def __init__(self, base):
        self.base = base
        self.p = base.p
        self.degree = 2 * base.p
        if self.degree < 3:
            raise ValidationError("cover degree below 3; need p >= 2")
        require_star(self.degree)
        self.tree = TreeChart(self.degree, base.root, base.ordered_neighbors)

    # --- the covering map ---------------------------------------------------

    def base_of(self, addr):
        """The covering projection."""
        return self.tree.obj_of(addr)

    # --- lifting -------------------------------------------------------------------

    def lift_apply(self, auto, anchor_src, anchor_dst, v):
        if auto.apply(self.base_of(anchor_src)) != self.base_of(anchor_dst):
            raise ValidationError("anchor does not project compatibly")
        path = geodesic(anchor_src, v)
        cur = anchor_dst
        for nxt in path[1:]:
            target = auto.apply(self.base_of(nxt))
            cur = cur.step(self.tree.chart(cur)[1][target])
        return cur

    def lift_at(self, auto, anchor_src, anchor_dst):
        return CoverElement(auto, self.lift_apply(auto, anchor_src, anchor_dst, ROOT))

    # --- group operations --------------------------------------------------------------

    def identity(self):
        return CoverElement(self.base.identity(), ROOT)

    def act(self, g, v):
        return self.lift_apply(g.auto, ROOT, g.anchor_image, v)

    def image_step(self, g, x, gx, y, c):
        # the lift sends the c-neighbor of x to the neighbor of gx over
        # the image of its base vertex
        target = g.auto.apply(self.tree.chart(x)[0][c])
        return gx.step(self.tree.chart(gx)[1][target])

    def mul(self, a, b):
        return CoverElement(a.auto.compose(b.auto), self.act(a, b.anchor_image))

    def inv(self, a):
        ia = a.auto.inverse()
        return CoverElement(ia, self.lift_apply(ia, a.anchor_image, ROOT, ROOT))

    # --- stabilizer germs -----------------------------------------------------------------

    def stab_generators(self, v, k):
        return [self.lift_at(a, ROOT, ROOT) for a in self.base.stab_autos(k)]

    # --- structure ---------------------------------------------------------------------------

    def transporter(self, u, w):
        return self.lift_at(self.base.transporter(self.base_of(u), self.base_of(w)), u, w)

    def region_fixator_trivial(self, region):
        if self.base.is_covered_by(self.base_of(x) for x in region):
            # the projected region covers the base, forcing the base
            # automorphism of any fixator to be the identity; a lift of
            # the identity fixing a vertex is the identity
            return True
        return None

    def one_sided_fixators_trivial(self, edge):
        # a half-tree contains arbitrarily large balls, whose projection
        # covers the base (finite or strip), so the covering argument
        # above forces any pointwise fixator of it to be the identity
        return True

    def nondiscreteness_candidates(self, k):
        return (self.lift_at(a, ROOT, ROOT) for a in self.base.candidate_autos())

    def common_transitive_pairs(self, other):
        if not isinstance(other, CoverModel):
            return None
        return [
            (self.transporter(ROOT, x), other.transporter(ROOT, x), x)
            for x in ROOT.neighbors(self.degree)
        ]

    # --- serialization --------------------------------------------------------------------------

    def element_to_json(self, g):
        return {"auto": g.auto.to_json(), "anchor_image": g.anchor_image.render()}

    def element_from_json(self, data):
        auto = self.base.auto_from_json(data["auto"])
        anchor = VertexAddr.parse(data["anchor_image"])
        # re-anchor from scratch to validate projection compatibility
        self.lift_apply(auto, ROOT, anchor, ROOT)
        return CoverElement(auto, anchor)

    def describe(self):
        return {"model": self.name, **self.base.describe(), "degree": self.degree}
