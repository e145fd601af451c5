"""Shared contract for group-on-tree backends.

A model owns a d-regular tree addressed by VertexAddr words plus a group
acting on it with exact arithmetic. Everything the closure laboratory
consumes goes through this interface, so certificates never depend on
how a particular group stores its elements.

Germs come from one builder, GroupModel.germ_of. It takes the image of
the center from act, then walks the canonical ball shell by shell,
parents before children, and asks image_step for the image of each child
y = x.step(c) given the image gx of its parent x. The default image_step
is act(g, y); a family that reads its local action off cheaply (covers
and PSL(2) through their charts, constant local actions by permutation)
overrides image_step to step from gx instead, and never germ_of itself.
An element stored as its germ on the asked ball (full Aut's rigid
elements) gives that germ back unbuilt.

Stabiliser germs come from one set of generators per orbit: a family
names stab_generators(r, k) at its orbit_reps r only, elements fixing r
whose radius-k germs generate the stabiliser germ group; at another v they
are r's conjugated by t's, for from_rep(v) = (r, t), the one orbit lookup.
stab_chain builds the one representation of that group, a stabiliser
chain, from those germs. stab_germ_chain caches it, built with the
chain's order cut, so no family sizes its group in advance: it counts and
lists the group (stab-germs) and the local action at a vertex, answers
legality's membership tests at the representatives, and decides closure
comparison, whose common transitive germs are a coset of one side's chain
sifted through the other's. Its pinned form, uncut, gives the fixators
(fixator_maps_on, for ipk, pk and plusk-generators). stab_germ_group
lists it into a frozenset for tests that compare sets of germs.

BS(m,n), PSL(2,Q_p) and covers colour their tree through one TreeChart:
the d-regular tree covering a graph, with the graph vertex under each
address and the colour of each edge read off lazily. For a cover the
graph is the base graph; for BS and PSL(2) it is the tree itself.
"""

from __future__ import annotations

import abc

from ..errors import ValidationError
from ..permgroup import StabChain, invert_perm
from ..tree_core import (
    ROOT,
    Germ,
    _addr,
    ball_addresses,
    ball_listing,
    ball_parents,
    ball_positions,
    germ_from_images,
    identity_germ,
    require_star,
    tree_distance,
)


class GroupModel(abc.ABC):
    name = "abstract"
    degree = None

    # --- group operations ------------------------------------------------

    @abc.abstractmethod
    def identity(self):
        ...

    @abc.abstractmethod
    def mul(self, a, b):
        """a after b."""

    @abc.abstractmethod
    def inv(self, a):
        ...

    @abc.abstractmethod
    def act(self, g, v):
        """Image of the vertex v under g."""

    def image_step(self, g, x, gx, y, c):
        """Image of y = x.step(c) under g, given gx = g(x)."""
        return self.act(g, y)

    def germ_of(self, g, center, radius):
        """Germ of g on B(center, radius), built shell by shell."""
        own = getattr(g, "germ", None)
        if own is not None and own.src_center == center and own.radius == radius:
            return own
        degree = self.degree
        src = ball_addresses(center, radius, degree)
        # the last letter of a canonical word colors the edge to its parent
        canon = ball_addresses(ROOT, radius, degree)
        images = [self.act(g, center)]
        for i, p in enumerate(ball_parents(degree, radius)[1:], 1):
            images.append(
                self.image_step(g, src[p], images[p], src[i], canon[i].word[-1])
            )
        return germ_from_images(center, radius, degree, images)

    # --- orbit structure --------------------------------------------------

    @abc.abstractmethod
    def transporter(self, u, w):
        """Some element sending u to w, or None if they sit in different orbits."""

    def orbit_reps(self):
        return (ROOT,)

    def from_rep(self, v):
        """(r, t): the orbit representative r whose orbit holds v, and an
        element t with t(r) = v."""
        for r in self.orbit_reps():
            if (t := self.transporter(r, v)) is not None:
                return r, t
        raise ValidationError("orbit representatives incomplete")

    # --- germ data ---------------------------------------------------------

    def stab_germ_group(self, v, k):
        """Frozenset of all radius-k germs of elements fixing v, listed off
        stab_germ_chain on each call."""
        chain = self.stab_germ_chain(v, k)
        return frozenset(Germ(v, v, k, p, self.degree) for p in chain.elements())

    def stab_germ_chain(self, v, k):
        """stab_chain(v, k), whose listing is in sorted_germs order; its
        perms are those of germs v -> v. Cached per (v, k); TooLarge as
        soon as the chain passes the element limit."""
        # created here because families do not call super().__init__
        cache = self.__dict__.setdefault("_stab_chain_cache", {})
        got = cache.get((v, k))
        if got is None:
            got = cache[(v, k)] = self.stab_chain(v, k, refuse="stabilizer germ group exceeded {}")
        return got

    def stab_chain(self, v, k, pinned=(), refuse=None):
        """The radius-k germ group at v as a StabChain over canonical ball
        positions: its base is the positions of `pinned`, then the other
        positions in the word order of the ball. `refuse` is the chain's
        refusal message."""
        pins = ball_positions(v, pinned, k, self.degree)
        first = set(pins)
        base = pins + [i for i in ball_listing(v.word, k, self.degree)[1] if i not in first]
        return StabChain(self._stab_perms(v, k), base, refuse)

    def _stab_perms(self, v, k):
        """Non-identity perms of the radius-k germs of stab_generators(v, k)
        at an orbit representative v, elsewhere its representative's
        conjugated by a transporter germ. Built as the chain takes them, so
        a refusing chain builds no more; cached per (v, k) once all are."""
        cache = self.__dict__.setdefault("_stab_perm_cache", {})
        got = cache.get((v, k))
        if got is not None:
            yield from got
            return
        # built before any germ, so a ball past the element limit says so
        ident = identity_germ(v, k, self.degree).perm
        r, t = self.from_rep(v)
        if r == v:
            perms = (self.germ_of(g, v, k).perm for g in self.stab_generators(v, k))
        else:
            T = self.germ_of(t, r, k).perm
            back = invert_perm(T)
            perms = (tuple([T[s[i]] for i in back]) for s in self._stab_perms(r, k))
        got = []
        for perm in perms:
            if perm != ident:
                got.append(perm)
                yield perm
        cache[(v, k)] = got

    def fixator_maps_on(self, tube, pinned):
        """Restrictions to the tube of all elements fixing `pinned` pointwise.

        A StabChain over tube positions: entry p of a map is the position
        of the image of tube[p]. Its base is the pinned positions, then the
        rest of the tube in word order, so its listing comes sorted by
        image words taken in the word order of the tube. It restricts the
        stabilizer germs at the pinned vertex whose ball covers the tube
        with the least radius, ties broken by word; every pinned center
        whose ball covers the tube gives the same restrictions.
        """
        pinned = tuple(pinned)
        tube = tuple(tube)
        reach = {c: max(tree_distance(c, x) for x in tube) for c in pinned}
        center = min(pinned, key=lambda c: (reach[c], c.word))
        radius = reach[center]
        spots = ball_positions(center, tube, radius, self.degree)
        # tubes thicken a pinned path, so every map keeps the tube in place
        back = dict(zip(spots, range(len(tube))))
        fixing = self.stab_chain(center, radius, pinned)
        if spots == list(range(len(fixing.base))):
            # the tube is the center's whole ball, on the same base
            return fixing.fixing(len(pinned))
        gens = [tuple([back[g[i]] for i in spots]) for g in fixing.generators(len(pinned))]
        pins = [back[i] for i in fixing.base[: len(pinned)]]
        rest = set(range(len(tube))) - set(pins)
        return StabChain(gens, pins + sorted(rest, key=lambda p: tube[p].word))

    # --- searches ----------------------------------------------------------

    @abc.abstractmethod
    def nondiscreteness_candidates(self, k):
        """Deterministic stream of elements that the discreteness search
        tries in order, for one fixing the k-region of an edge while moving
        the k-ball on the far side."""

    def iter_elements(self):
        """The identity, then the candidates at k = 1: the stream
        perfbench/make_inputs.py draws the PSL(2) and cover legality pool
        from."""
        yield self.identity()
        yield from self.nondiscreteness_candidates(1)

    def region_fixator_trivial(self, region):
        """True when the model certifies that only the identity fixes the
        region pointwise; None when it has no such certificate."""
        return None

    def one_sided_fixators_trivial(self, edge):
        """True when the model certifies that an element fixing either
        half-tree at the edge pointwise is the identity."""
        return False

    def common_transitive_pairs(self, other):
        """Candidate (self element, other element) pairs expected to act
        identically, anchored at the root and covering all root neighbors.
        None when the model has no pairing hook."""
        return None

    # --- serialization -----------------------------------------------------

    @abc.abstractmethod
    def element_to_json(self, g):
        ...

    @abc.abstractmethod
    def element_from_json(self, data):
        ...

    def describe(self):
        return {"model": self.name, "degree": self.degree}

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()!r}>"


class TreeChart:
    """The d-regular tree covering a graph, its edge colours read off lazily.

    An address names a vertex of the tree, and obj_of the graph vertex
    under it. The graph supplies its root vertex and a neighbour list per
    vertex. Colours follow one rule: at the root, neighbours take colours
    in their listed order; elsewhere the inward colour is kept and the
    remaining neighbours take the remaining colours in ascending order.
    Charts are cached by address word. When the graph is the tree itself,
    parent_of names each vertex's neighbour towards the root, and addr_of
    inverts obj_of; vertices must then be hashable.
    """

    def __init__(self, degree, root_obj, ordered_neighbors, parent_of=None):
        self.degree = degree
        self._ordered_neighbors = ordered_neighbors
        self._parent_of = parent_of
        self._obj = {(): root_obj}
        self._addr = {root_obj: ROOT} if parent_of else None
        self._charts = {}

    def chart(self, addr):
        """(colour -> neighbour, neighbour -> colour) at addr, built lazily."""
        word = addr.word
        got = self._charts.get(word)
        if got is not None:
            return got
        if not self._charts:
            require_star(self.degree)
        obj = self.obj_of(addr)
        nbrs = list(self._ordered_neighbors(obj))
        if len(nbrs) != self.degree or len(set(nbrs)) != self.degree:
            raise ValidationError(
                f"neighbor list of {obj!r} is not {self.degree} distinct vertices"
            )
        if not word:
            chart = dict(enumerate(nbrs))
        else:
            parent = self._obj[word[:-1]]
            if parent not in nbrs:
                raise ValidationError(f"parent of {obj!r} missing from its neighbors")
            chart = {word[-1]: parent}
            free = [c for c in range(self.degree) if c != word[-1]]
            chart.update(zip(free, [x for x in nbrs if x != parent]))
        got = self._charts[word] = (chart, {nb: c for c, nb in chart.items()})
        return got

    def obj_of(self, addr):
        word = addr.word
        got = self._obj.get(word)
        if got is not None:
            return got
        # walk down from the deepest known prefix, charting proper prefixes only
        i = len(word) - 1
        while word[:i] not in self._obj:
            i -= 1
        cur = _addr(word[:i])
        for c in word[i:]:
            obj = self.chart(cur)[0][c]
            cur = self._learn(cur, c, obj)
        return obj

    def addr_of(self, obj):
        got = self._addr.get(obj)
        if got is not None:
            return got
        chain = [obj]
        while chain[-1] not in self._addr:
            chain.append(self._parent_of(chain[-1]))
        addr = self._addr[chain.pop()]
        # descend from the first known ancestor, assigning colours
        while chain:
            child = chain.pop()
            addr = self._learn(addr, self.chart(addr)[1][child], child)
        return addr

    def _learn(self, addr, c, obj):
        """Record obj at the child of addr along c, an outward colour."""
        child = _addr(addr.word + (c,))
        self._obj[child.word] = obj
        if self._addr is not None:
            self._addr[obj] = child
        return child
