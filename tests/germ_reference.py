"""Reference enumerations that the stabiliser chains are checked against.

The library holds every germ group as a permgroup.StabChain, and lists
ball germs and a cycle graph's automorphisms off one. These are the direct
enumerations it replaced: the composition closure of generators, the
isomorphisms between two finite subtrees as vertex dicts, the stabiliser
germ group built from them (full Aut: every ball isomorphism fixing the
centre), and the automorphisms of a finite graph by backtracking.
"""

import itertools

from treeclose.errors import TooLarge, max_elements
from treeclose.models import FullAutModel
from treeclose.models.cover import FiniteAuto
from treeclose.permgroup import compose_perm
from treeclose.tree_core import (
    Germ,
    ball_vertices,
    compose,
    identity_germ,
    tree_distance,
)


def mulclose(generators, mul=compose_perm):
    """Closure under the product, in no particular order.

    Works for any hashable elements. In a finite setting the semigroup
    generated this way is the full group. A generator already in the
    closure of the ones before it is dropped; each one kept at least
    doubles the closure, so at most log2 of its size are kept, and only
    those are multiplied by: the elements there before a kept generator
    by it alone, the ones it adds by every kept generator. TooLarge past
    the element limit.
    """
    limit = max_elements()
    gens = []
    els = {}

    def add(c):
        els[c] = None
        if len(els) > limit:
            raise TooLarge(f"closure exceeded {limit} elements")

    for g in generators:
        if g in els:
            continue
        gens.append(g)
        # the current elements are closed under the earlier generators, so
        # they need the new one only; each new element needs every kept one
        frontier = [(a, (g,)) for a in els]
        add(g)
        frontier.append((g, gens))
        while frontier:
            new = []
            for a, by in frontier:
                for b in by:
                    c = mul(a, b)
                    if c not in els:
                        add(c)
                        new.append((c, gens))
            frontier = new
    return tuple(els)


def ref_subtree_isos(degree, src_vertices, src_root, dst_vertices, dst_root, pins=None):
    """Every isomorphism between two finite subtrees, root to root, as a
    vertex dict, by recursion: source vertices taken by (distance, word),
    the children of each matched to the image's children (both sorted by
    word) in itertools.permutations order. A pin x -> y keeps only maps
    sending x to y."""
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

    def rec(i):
        if i == len(src_order):
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


def stab_germs(model, v, k):
    """Frozenset of the radius-k germs of the elements of the model fixing v:
    for full Aut every germ of B(v, k) fixing v, for every other family the
    closure of the germs of t·g·t⁻¹, for the generators g that
    stab_generators(r, k) names at the orbit representative r of v and an
    element t sending r to v, all multiplied as elements."""
    if isinstance(model, FullAutModel):
        ball = ball_vertices(v, k, model.degree)
        return frozenset(
            Germ.from_mapping(v, v, k, m) for m in ref_subtree_isos(model.degree, ball, v, ball, v)
        )
    r, t = next((r, t) for r in model.orbit_reps() if (t := model.transporter(r, v)) is not None)
    gens = [model.mul(model.mul(t, g), model.inv(t)) for g in model.stab_generators(r, k)]
    germs = [model.germ_of(g, v, k) for g in gens]
    return frozenset(mulclose(germs, mul=compose)) | {identity_germ(v, k, model.degree)}


def iterate_graph_autos(graph):
    """All automorphisms of a finite graph, lazily, by backtracking: the
    vertices in sorted order, each sent to every free vertex in sorted
    order that keeps adjacency with the ones already mapped."""
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
            if any((u in adj[v]) != (img in adj[w]) for u, img in partial.items()):
                continue
            partial[v] = w
            used.add(w)
            yield from rec(i + 1)
            del partial[v]
            used.discard(w)

    yield from rec(0)
