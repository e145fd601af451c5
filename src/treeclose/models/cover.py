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
transporter, the automorphisms that generate a vertex stabiliser
(stab_autos) and its element streams, and reads automorphisms from
JSON. CoverModel holds the covering map, a TreeChart over the base
graph, and lifts what the base names, without asking which base it holds.

Neighbor order is direction-aware on purpose: level i-1 fibers first,
then level i+1 fibers, identically for the finite and infinite bases, so
both covers address the same colored tree and germ sets are directly
comparable.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ..errors import IncompatibleBase, Record, TooLarge, ValidationError, as_int, max_elements, product_exceeds
from ..permgroup import check_perm, identity_perm, invert_perm, perm_from_cycles
from ..tree_core import ROOT, VertexAddr, geodesic, require_star, sphere_vertices
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
    def aut_graph(self):
        """Materialized automorphism list; TooLarge past the element limit."""
        limit = max_elements()
        # fiber permutations within each level and the 2r rotations and
        # reflections of the levels are automorphisms: |Aut| >= 2r (p!)^r
        fiber_perms = (f for _ in range(self.r) for f in range(2, self.p + 1))
        if product_exceeds(itertools.chain([2 * self.r], fiber_perms), limit):
            raise TooLarge(f"automorphism group exceeds {limit}")
        out = tuple(itertools.islice(iterate_graph_autos(self), limit + 1))
        if len(out) > limit:
            raise TooLarge(f"automorphism group exceeds {limit}")
        return out

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

    def stab_autos(self, bv, k):
        """Automorphisms whose lifts generate the radius-k stabiliser germs
        at a vertex over bv: down the chain of point stabilisers along
        vertices(), the first element to each other image (Sims 1970)."""
        group = [a for a in self.aut_graph if a.apply(bv) == bv]
        reps = []
        for v in self.vertices():
            firsts = {a.apply(v): a for a in reversed(group)}
            reps.extend(a for w, a in firsts.items() if w != v)
            group = [a for a in group if a.apply(v) == v]
        return reps

    def is_covered_by(self, bvs):
        return set(bvs) == set(self.vertices())

    def element_autos(self, radius):
        # every automorphism, at every radius
        return self.aut_graph

    def candidate_autos(self):
        ident, root = self.identity(), self.root
        return (a for a in self.aut_graph if a.apply(root) == root and a != ident)

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

    def stab_autos(self, bv, k):
        """Automorphisms whose lifts generate the radius-k stabiliser germs
        at a vertex over bv."""
        # a germ on B(v, k) reads the levels within k of bv's only; the
        # reflection through bv's level and, on each such level, a swap
        # and a full cycle of the fibers other than bv's generate them
        i0 = bv[0]
        autos = [StripAuto.of(-1, 2 * i0, {})]
        for lv in range(i0 - k, i0 + k + 1):
            free = tuple(j for j in range(self.p) if (lv, j + 1) != bv)
            for cycle in dict.fromkeys([free[:2], free]):
                if len(cycle) > 1:
                    autos.append(StripAuto.of(1, 0, {lv: perm_from_cycles(self.p, [cycle])}))
        return autos

    def is_covered_by(self, bvs):
        # a finite region never covers the infinite strip
        return False

    def element_autos(self, radius):
        """Both orientations, shifts by at most radius levels, and every
        fiber permutation on the levels within radius of the root's."""
        levels = range(-radius, radius + 1)
        for eps in (1, -1):
            for shift in levels:
                for combo in itertools.product(
                    itertools.permutations(range(self.p)), repeat=len(levels)
                ):
                    yield StripAuto.of(eps, shift, dict(zip(levels, combo)))

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


def iterate_graph_autos(graph):
    """All automorphisms of a finite graph, lazily, by backtracking."""
    verts = sorted(graph.vertices())
    adj = {v: set(graph.ordered_neighbors(v)) for v in verts}
    partial = {}
    used = set()

    def rec(i):
        if i == len(verts):
            yield FiniteAuto.from_mapping(partial)
            return
        v = verts[i]
        for w in verts:
            if w in used:
                continue
            ok = True
            for u, img in partial.items():
                if ((u in adj[v])) != ((img in adj[w])):
                    ok = False
                    break
            if not ok:
                continue
            partial[v] = w
            used.add(w)
            yield from rec(i + 1)
            del partial[v]
            used.discard(w)

    yield from rec(0)


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
        return [self.lift_at(a, v, v) for a in self.base.stab_autos(self.base_of(v), k)]

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

    def iter_elements(self):
        # radius by radius, the lifts of the base's automorphisms at each
        # vertex of that sphere over the image of the base root
        for radius in itertools.count(0):
            for auto in self.base.element_autos(radius):
                target = auto.apply(self.base.root)
                for w in sphere_vertices(ROOT, radius, self.degree):
                    if self.base_of(w) == target:
                        yield CoverElement(auto, w)

    def nondiscreteness_candidates(self, k):
        return (self.lift_at(a, ROOT, ROOT) for a in self.base.candidate_autos())

    def common_transitive_pairs(self, other):
        if not isinstance(other, CoverModel):
            return None
        if other.p != self.p:
            raise IncompatibleBase(
                f"cannot pair covers with {self.p} and {other.p} fibers"
            )
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
