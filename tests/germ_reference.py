"""Reference closures that the stabiliser chains are checked against.

The library holds every germ group as a permgroup.StabChain. These are
the direct enumerations it replaced: the composition closure of
generators, and the stabiliser germ group built from it (full Aut: every
ball germ fixing the centre).
"""

from treeclose.errors import TooLarge, max_elements
from treeclose.models import FullAutModel
from treeclose.permgroup import compose_perm
from treeclose.tree_core import compose, identity_germ, iterate_ball_germs


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


def stab_germs(model, v, k):
    """Frozenset of the radius-k germs of the elements of the model fixing v:
    for full Aut every germ of B(v, k) fixing v, for every other family the
    closure of the germs of stab_generators(v, k)."""
    if isinstance(model, FullAutModel):
        return frozenset(iterate_ball_germs(model.degree, v, v, k))
    germs = [model.germ_of(g, v, k) for g in model.stab_generators(v, k)]
    return frozenset(mulclose(germs, mul=compose)) | {identity_germ(v, k, model.degree)}
