"""Small exact permutation-group utilities.

Permutations are tuples of images on 0..n-1. Nothing here claims an
isomorphism type; structure_fingerprint returns invariants only.
"""

from __future__ import annotations

import math

from .errors import NotStabilized, TooLarge, ValidationError, max_elements


def identity_perm(n):
    return tuple(range(n))


def compose_perm(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert_perm(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def perm_from_cycles(n, cycles):
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return check_perm(images, n)


def check_perm(p, n):
    """p as a tuple, when it lists the integers 0..n-1 in some order."""
    # a JSON true or false is a Python int, but no point of 0..n-1
    if not (
        isinstance(p, (list, tuple))
        and all(isinstance(x, int) and not isinstance(x, bool) for x in p)
        and sorted(p) == list(range(n))
    ):
        raise ValidationError(f"not a permutation of 0..{n - 1}: {p!r}")
    return tuple(p)


def perm_order(p):
    return math.lcm(*{len(cycle) for cycle, _ in cycle_table(p)})


def cycle_table(p):
    """For each point, its cycle under p (starting at the cycle's least
    point) and the point's position in that cycle."""
    out = [None] * len(p)
    for start in range(len(p)):
        if out[start] is None:
            cycle = [start]
            x = p[start]
            while x != start:
                cycle.append(x)
                x = p[x]
            cycle = tuple(cycle)
            for pos, x in enumerate(cycle):
                out[x] = (cycle, pos)
    return out


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


def closure_group(generators, n):
    gens = [check_perm(p, n) for p in generators]
    return tuple(sorted(mulclose(gens + [identity_perm(n)])))


def is_closed(perms):
    s = set(perms)
    return all(compose_perm(a, b) in s for a in s for b in s)


def is_abelian(perms):
    els = list(perms)
    return all(
        compose_perm(a, b) == compose_perm(b, a) for i, a in enumerate(els) for b in els[i + 1 :]
    )


def is_transitive(perms, n):
    if n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def structure_fingerprint(perms):
    """Invariants of a closed permutation set: order, abelianness,
    transitivity, and the multiset of element orders."""
    els = tuple(sorted(set(perms)))
    if not els:
        raise ValidationError("empty permutation set")
    n = len(els[0])
    if not is_closed(els):
        raise ValidationError("set is not closed under composition")
    return {
        "order": len(els),
        "abelian": is_abelian(els),
        "transitive": is_transitive(els, n),
        "element_orders": tuple(sorted(perm_order(p) for p in els)),
    }


def induced_perm_group(germs, points):
    """Permutations induced on an ordered point tuple by a set of germs."""
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    out = []
    for g in germs:
        images = [g.apply(p) for p in points]
        if set(images) != set(points):
            raise NotStabilized(f"germ does not stabilize the point set: {points!r}")
        out.append(tuple(index[img] for img in images))
    return tuple(sorted(set(out)))
