"""Groups acting on the d-regular tree with one fixed local action.

An element is a pair (word, perm): the permutation relabels every color
everywhere, the word then translates. Acting on an address applies the
permutation letterwise and multiplies by the word on the left, both in
reduced form. The local color action at every single vertex equals the
permutation, so the group realizes exactly the subgroup F <= Sym(d) at
each vertex, independently of position.
"""

from __future__ import annotations

import itertools

from ..errors import BadElement, Record, ValidationError
from ..permgroup import (
    check_perm,
    closure_chain,
    compose_perm,
    identity_perm,
    invert_perm,
    perm_from_cycles,
)
from ..tree_core import (
    ROOT,
    VertexAddr,
    sphere_vertices,
    word_inv,
    word_mul,
    require_regular,
    require_star,
)
from .base import GroupModel


class CLElement(Record):
    _fields = ("word", "perm")


def _named_generators(degree, spec):
    """Generators of the named subgroup of Sym(degree)."""
    if spec == "sym":
        # the transposition first, so the cycle grows two orbits at once
        return [perm_from_cycles(degree, [(0, 1)]), perm_from_cycles(degree, [tuple(range(degree))])]
    if spec == "cyclic":
        return [perm_from_cycles(degree, [tuple(range(degree))])]
    if spec == "alt":
        gens = [perm_from_cycles(degree, [(0, 1, 2)])]
        if degree > 3:
            gens.append(perm_from_cycles(degree, [tuple(range(degree))] if degree % 2 else [tuple(range(1, degree))]))
        return gens
    if spec == "trivial":
        return []
    raise ValidationError(f"unknown local action name {spec!r}")


class ConstantLocalModel(GroupModel):
    name = "constant_local"

    def __init__(self, degree, local_action="sym"):
        require_regular(degree)
        # every permutation of the local action lists the d neighbors
        require_star(degree)
        self.degree = degree
        if isinstance(local_action, (list, tuple)):
            self.generators = [check_perm(p, degree) for p in local_action]
            self.local_action_name = "custom"
        else:
            self.generators = _named_generators(degree, local_action)
            self.local_action_name = local_action
        # the local action as a chain, which refuses past the element limit
        self.F = closure_chain(self.generators, degree)

    # --- elements ---------------------------------------------------------

    def _check(self, g):
        # a sift reads only the degree's positions of a perm
        if not isinstance(g, CLElement) or len(g.perm) != self.degree or g.perm not in self.F:
            raise BadElement(f"not an element of this group: {g!r}")
        return g

    def identity(self):
        return CLElement((), identity_perm(self.degree))

    def mul(self, a, b):
        pa, pb = a.perm, b.perm
        word = word_mul(a.word, tuple(pa[c] for c in b.word))
        return CLElement(word, compose_perm(pa, pb))

    def inv(self, a):
        q = invert_perm(a.perm)
        return CLElement(tuple(q[c] for c in word_inv(a.word)), q)

    def act(self, g, v):
        p = g.perm
        return VertexAddr(word_mul(g.word, tuple(p[c] for c in v.word)))

    def image_step(self, g, x, gx, y, c):
        return gx.step(g.perm[c])

    # --- structure ----------------------------------------------------------

    def transporter(self, u, w):
        return CLElement(word_mul(w.word, word_inv(u.word)), identity_perm(self.degree))

    def stab_generators(self, v, k):
        # p -> (ε, p) is an isomorphism from F onto the root's stabiliser,
        # so F's generators suffice
        return [CLElement((), p) for p in self.generators]

    def nondiscreteness_candidates(self, k):
        local = list(self.F.elements())
        for radius in itertools.count(0):
            for v in sphere_vertices(ROOT, radius, self.degree):
                for p in local:
                    yield CLElement(v.word, p)

    def region_fixator_trivial(self, region):
        # fixing any vertex together with all its neighbors forces the
        # permutation part to be the identity and then the word too
        region = set(region)
        for x in region:
            if all(x.step(c) in region for c in range(self.degree)):
                return True
        return None

    def one_sided_fixators_trivial(self, edge):
        # a half-tree contains a closed star, so the argument above
        # applies to any element fixing one pointwise
        return True

    # --- serialization -------------------------------------------------------

    def element_to_json(self, g):
        return {"word": VertexAddr(g.word).render(), "perm": list(g.perm)}

    def element_from_json(self, data):
        word = VertexAddr.parse(data["word"]).word
        perm = check_perm(data["perm"], self.degree)
        g = CLElement(word, perm)
        return self._check(g)

    def describe(self):
        return {
            "model": self.name,
            "degree": self.degree,
            "local_action": self.local_action_name,
            "local_action_order": self.F.order(),
        }
