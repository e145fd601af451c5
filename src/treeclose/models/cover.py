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

Neighbor order is direction-aware on purpose: level i-1 fibers first,
then level i+1 fibers, identically for the finite and infinite bases, so
both covers address the same colored tree and germ sets are directly
comparable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from ..errors import IncompatibleBase, TooLarge, ValidationError, max_elements, product_exceeds
from ..permgroup import check_perm, identity_perm, invert_perm, perm_from_cycles
from ..tree_core import ROOT, VertexAddr, geodesic, require_star
from .base import GroupModel


@dataclass(frozen=True)
class CycleGraph:
    p: int
    r: int

    def __post_init__(self):
        if self.p < 1 or self.r < 3:
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

    def diameter(self):
        verts = self.vertices()
        worst = 0
        for src in verts:
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.ordered_neighbors(x):
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            worst = max(worst, max(dist.values()))
        return worst


@dataclass(frozen=True)
class StripGraph:
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValidationError("need p >= 1 fibers")

    @property
    def root(self):
        return (0, 1)

    def ordered_neighbors(self, v):
        i, _ = v
        down = [(i - 1, l) for l in range(1, self.p + 1)]
        up = [(i + 1, l) for l in range(1, self.p + 1)]
        return down + up


@dataclass(frozen=True)
class FiniteAuto:
    pairs: tuple

    @cached_property
    def mapping(self):
        return dict(self.pairs)

    @staticmethod
    def from_mapping(m):
        return FiniteAuto(tuple(sorted(m.items())))


@dataclass(frozen=True)
class StripAuto:
    """(i, j) maps to (eps*i + shift, sigma_i(j)); sigma has finite support."""

    eps: int
    shift: int
    sigmas: tuple  # ((level, perm), ...) sorted, identity perms dropped

    @cached_property
    def sigma_map(self):
        return dict(self.sigmas)

    @staticmethod
    def of(eps, shift, sigmas):
        cleaned = {}
        for level, perm in dict(sigmas).items():
            perm = tuple(perm)
            if perm != identity_perm(len(perm)):
                cleaned[int(level)] = perm
        return StripAuto(eps, shift, tuple(sorted(cleaned.items())))


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


def aut_graph(graph):
    """Materialized automorphism list; TooLarge past the element limit."""
    limit = max_elements()
    # fiber permutations within each level and the 2r rotations and
    # reflections of the levels are automorphisms: |Aut| >= 2r (p!)^r
    fiber_perms = (f for _ in range(graph.r) for f in range(2, graph.p + 1))
    if product_exceeds(itertools.chain([2 * graph.r], fiber_perms), limit):
        raise TooLarge(f"automorphism group exceeds {limit}")
    out = tuple(itertools.islice(iterate_graph_autos(graph), limit + 1))
    if len(out) > limit:
        raise TooLarge(f"automorphism group exceeds {limit}")
    return out


def rotation_auto(graph, delta):
    return FiniteAuto.from_mapping(
        {(i, j): ((i + delta) % graph.r, j) for (i, j) in graph.vertices()}
    )


def fiber_auto(graph, level, perm):
    check_perm(perm, graph.p)
    return FiniteAuto.from_mapping(
        {
            (i, j): ((i, perm[j - 1] + 1) if i == level else (i, j))
            for (i, j) in graph.vertices()
        }
    )


def _reverse(chart):
    return {bv: c for c, bv in chart.items()}


@dataclass(frozen=True)
class CoverElement:
    auto: object
    anchor_image: VertexAddr


class CoverModel(GroupModel):
    name = "cover"

    def __init__(self, base):
        self.base = base
        self.p = base.p
        self.degree = 2 * base.p
        if self.degree < 3:
            raise ValidationError("cover degree below 3; need p >= 2")
        self.is_finite = isinstance(base, CycleGraph)
        require_star(self.degree)
        root_chart = dict(enumerate(base.ordered_neighbors(base.root)))
        self._charts = {(): (base.root, root_chart, _reverse(root_chart))}
        self._auto_cache = None

    # --- the covering map ---------------------------------------------------

    def _chart(self, word):
        """(base vertex, color -> base neighbor, base neighbor -> color) at
        the vertex with this word."""
        got = self._charts.get(word)
        if got is not None:
            return got
        parent_base, parent_chart, _ = self._chart(word[:-1])
        inward = word[-1]
        my_base = parent_chart[inward]
        nbrs = self.base.ordered_neighbors(my_base)
        if len(set(nbrs)) != self.degree or nbrs.count(parent_base) != 1:
            raise ValidationError(f"bad neighbor structure at {my_base!r}")
        chart = {inward: parent_base}
        free = [c for c in range(self.degree) if c != inward]
        rest = [x for x in nbrs if x != parent_base]
        chart.update(zip(free, rest))
        entry = (my_base, chart, _reverse(chart))
        self._charts[word] = entry
        return entry

    def base_of(self, addr):
        """The covering projection."""
        return self._chart(addr.word)[0]

    # --- base automorphism plumbing ---------------------------------------------

    def apply_auto(self, auto, bv):
        if self.is_finite:
            return auto.mapping[bv]
        i, j = bv
        sigma = auto.sigma_map.get(i)
        jj = j if sigma is None else sigma[j - 1] + 1
        return (auto.eps * i + auto.shift, jj)

    def compose_auto(self, a2, a1):
        """a2 after a1."""
        if self.is_finite:
            return FiniteAuto.from_mapping(
                {v: a2.mapping[w] for v, w in a1.pairs}
            )
        eps = a2.eps * a1.eps
        shift = a2.eps * a1.shift + a2.shift
        levels = {lv for lv, _ in a1.sigmas}
        levels.update(a1.eps * (lv - a1.shift) for lv, _ in a2.sigmas)
        sigmas = {}
        for i in levels:
            s1 = a1.sigma_map.get(i, identity_perm(self.p))
            s2 = a2.sigma_map.get(a1.eps * i + a1.shift, identity_perm(self.p))
            sigmas[i] = tuple(s2[s1[x]] for x in range(self.p))
        return StripAuto.of(eps, shift, sigmas)

    def invert_auto(self, a):
        if self.is_finite:
            return FiniteAuto.from_mapping({w: v for v, w in a.pairs})
        eps, shift = a.eps, -a.eps * a.shift
        sigmas = {}
        for lv, perm in a.sigmas:
            sigmas[a.eps * lv + a.shift] = invert_perm(perm)
        return StripAuto.of(eps, shift, sigmas)

    def identity_auto(self):
        if self.is_finite:
            return FiniteAuto.from_mapping({v: v for v in self.base.vertices()})
        return StripAuto.of(1, 0, {})

    def all_autos(self):
        if not self.is_finite:
            raise TooLarge("the strip automorphism group is infinite")
        if self._auto_cache is None:
            self._auto_cache = aut_graph(self.base)
        return self._auto_cache

    # --- lifting -------------------------------------------------------------------

    def lift_apply(self, auto, anchor_src, anchor_dst, v):
        if self.apply_auto(auto, self.base_of(anchor_src)) != self.base_of(anchor_dst):
            raise ValidationError("anchor does not project compatibly")
        path = geodesic(anchor_src, v)
        cur = anchor_dst
        for nxt in path[1:]:
            target = self.apply_auto(auto, self.base_of(nxt))
            cur = cur.step(self._chart(cur.word)[2][target])
        return cur

    def lift_at(self, auto, anchor_src, anchor_dst):
        return CoverElement(auto, self.lift_apply(auto, anchor_src, anchor_dst, ROOT))

    # --- group operations --------------------------------------------------------------

    def identity(self):
        return CoverElement(self.identity_auto(), ROOT)

    def act(self, g, v):
        return self.lift_apply(g.auto, ROOT, g.anchor_image, v)

    def image_step(self, g, x, gx, y, c):
        # the lift sends the c-neighbor of x to the neighbor of gx over
        # the image of its base vertex
        target = self.apply_auto(g.auto, self._chart(x.word)[1][c])
        return gx.step(self._chart(gx.word)[2][target])

    def mul(self, a, b):
        return CoverElement(
            self.compose_auto(a.auto, b.auto), self.act(a, b.anchor_image)
        )

    def inv(self, a):
        ia = self.invert_auto(a.auto)
        return CoverElement(ia, self.lift_apply(ia, a.anchor_image, ROOT, ROOT))

    # --- stabilizer germs -----------------------------------------------------------------

    def stab_generators(self, v, k):
        bv = self.base_of(v)
        if self.is_finite:
            autos = [a for a in self.all_autos() if self.apply_auto(a, bv) == bv]
        else:
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
        return [self.lift_at(a, v, v) for a in autos]

    # --- structure ---------------------------------------------------------------------------

    def transporter(self, u, w):
        bu, bw = self.base_of(u), self.base_of(w)
        delta = bw[0] - bu[0]
        sigma = list(identity_perm(self.p))
        sigma[bu[1] - 1], sigma[bw[1] - 1] = sigma[bw[1] - 1], sigma[bu[1] - 1]
        sigma = tuple(sigma)
        if self.is_finite:
            auto = self.compose_auto(
                rotation_auto(self.base, delta % self.base.r),
                fiber_auto(self.base, bu[0], sigma),
            )
        else:
            auto = StripAuto.of(1, delta, {bu[0]: sigma})
        return self.lift_at(auto, u, w)

    def region_fixator_trivial(self, region):
        if not self.is_finite or not region:
            return None
        image = {self.base_of(x) for x in region}
        if image == set(self.base.vertices()):
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
        if self.is_finite:
            autos = self.all_autos()
            for radius in itertools.count(0):
                from ..tree_core import sphere_vertices

                for auto in autos:
                    target = self.apply_auto(auto, self.base.root)
                    for w0 in sphere_vertices(ROOT, radius, self.degree):
                        if self.base_of(w0) == target:
                            yield CoverElement(auto, w0)
        else:
            for bound in itertools.count(0):
                for eps in (1, -1):
                    for shift in range(-bound, bound + 1):
                        levels = range(-bound, bound + 1)
                        for combo in itertools.product(
                            itertools.permutations(range(self.p)), repeat=len(levels)
                        ):
                            auto = StripAuto.of(eps, shift, dict(zip(levels, combo)))
                            target = self.apply_auto(auto, self.base.root)
                            anchor = self._some_fiber_vertex(target, abs(shift) + 1)
                            yield CoverElement(auto, anchor)

    def _some_fiber_vertex(self, bv, radius_hint):
        from ..tree_core import ball_vertices

        for radius in itertools.count(radius_hint):
            for w in ball_vertices(ROOT, radius, self.degree):
                if self.base_of(w) == bv:
                    return w

    def nondiscreteness_candidates(self, k):
        if self.is_finite:
            bv = self.base.root
            for auto in self.all_autos():
                if self.apply_auto(auto, bv) == bv:
                    g = self.lift_at(auto, ROOT, ROOT)
                    if g != self.identity():
                        yield g
        else:
            for bound in itertools.count(1):
                for lv in (bound, -bound):
                    for perm in itertools.permutations(range(self.p)):
                        if perm == identity_perm(self.p):
                            continue
                        auto = StripAuto.of(1, 0, {lv: perm})
                        yield self.lift_at(auto, ROOT, ROOT)

    def common_transitive_pairs(self, other, probe_radius):
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
        if self.is_finite:
            auto = {"pairs": [[list(v), list(w)] for v, w in g.auto.pairs]}
        else:
            auto = {
                "eps": g.auto.eps,
                "shift": g.auto.shift,
                "sigmas": {str(lv): list(perm) for lv, perm in g.auto.sigmas},
            }
        return {"auto": auto, "anchor_image": g.anchor_image.render()}

    def element_from_json(self, data):
        raw = data["auto"]
        if self.is_finite:
            auto = FiniteAuto.from_mapping(
                {tuple(v): tuple(w) for v, w in raw["pairs"]}
            )
            if not is_graph_automorphism(self.base, auto):
                raise ValidationError("not an automorphism of the base graph")
        else:
            auto = StripAuto.of(
                int(raw["eps"]),
                int(raw["shift"]),
                {int(lv): tuple(perm) for lv, perm in raw.get("sigmas", {}).items()},
            )
        anchor = VertexAddr.parse(data["anchor_image"])
        g = CoverElement(auto, anchor)
        # re-anchor from scratch to validate projection compatibility
        self.lift_apply(auto, ROOT, anchor, ROOT)
        return g

    def describe(self):
        return {
            "model": self.name,
            "graph": "C" if self.is_finite else "strip",
            "p": self.p,
            "r": self.base.r if self.is_finite else None,
            "degree": self.degree,
        }
