"""Small exact permutation-group utilities.

Permutations are tuples of images on 0..n-1. Nothing here claims an
isomorphism type; structure_fingerprint returns invariants only. StabChain
holds a group as a stabiliser chain, so that orders of pointwise
stabilisers are read off without listing the group, and it lists the group
in a fixed order only as far as a caller asks.
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


# a chain may build, and a listing of its elements hold, this many entries
# (perms times positions) for each element the limit allows
ENTRIES_PER_ELEMENT = 100


def check_entries(entries, what):
    """TooLarge when `entries` pass the entry cap of the element limit."""
    limit = max_elements()
    if entries > ENTRIES_PER_ELEMENT * limit:
        raise TooLarge(f"{what} exceeded {ENTRIES_PER_ELEMENT} x {limit} entries")


class StabChain:
    """Pointwise stabiliser chain of a permutation group, with a prescribed
    base: deterministic Schreier-Sims (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003, ch. 4).

    Perms are int tuples on 0..n-1, and the base lists every point. Level i
    is the stabiliser of base[:i] acting on the orbit of base[i]. Only
    levels whose orbit has more than one point are stored; each keeps its
    strong generators, and for every orbit point x an element sending
    base[i] to x with its inverse. TooLarge once the perms it builds, kept
    or not, times the positions pass the entry cap: that bounds its memory
    and its time.
    """

    def __init__(self, generators, base):
        self.base = tuple(base)
        self._pos = [0] * len(self.base)
        for i, b in enumerate(self.base):
            self._pos[b] = i
        self._ident = tuple(range(len(self.base)))
        # base index -> [strong generators as (g, g^-1) pairs, {x: u_x},
        # {x: u_x^-1}, {x: how many generators were tested at x}]
        self._levels = {}
        self._built = 0
        # past this many entries built, check_entries raises
        self._cap = ENTRIES_PER_ELEMENT * max_elements()
        for g in dict.fromkeys(generators):
            if g != self._ident:
                self._add(g, -1, self._first_moved(g, 0))
        self._complete()

    def _build(self, count):
        self._built += count
        if self._built * len(self.base) > self._cap:
            check_entries(self._built * len(self.base), "stabilizer chain")

    def _first_moved(self, g, start):
        base = self.base
        for j in range(start, len(base)):
            if g[base[j]] != base[j]:
                return j
        return None

    def _sift(self, g, start):
        """(residue, index of the first base point it moves), or None when
        g sifts to the identity."""
        while True:
            j = self._first_moved(g, start)
            if j is None:
                return None
            level = self._levels.get(j)
            inv = level and level[2].get(g[self.base[j]])
            if inv is None:
                return g, j
            g = tuple(map(inv.__getitem__, g))
            self._build(1)
            start = j + 1

    def _add(self, h, above, j):
        """Make h, which fixes base[:j], a strong generator of every level
        with a base index in (above, j]."""
        self._build(2)
        # the inverse takes its entries from the identity, so it shares
        # their int objects instead of making one per position
        inverse = list(self._ident)
        for i, x in zip(self._ident, h):
            inverse[x] = i
        pair = (h, tuple(inverse))
        if j not in self._levels:
            # the strong generators fixing base[:j] include the next level's
            deeper = min((i for i in self._levels if i > j), default=None)
            gens = [] if deeper is None else list(self._levels[deeper][0])
            b = self.base[j]
            self._levels[j] = [gens, {b: self._ident}, {b: self._ident}, {}]
        for i, level in self._levels.items():
            if above < i <= j:
                level[0].append(pair)
                self._grow(level, [pair])

    def _grow(self, level, new):
        """Extend the orbit of a level by its new generators."""
        gens, trans, invs, _ = level
        frontier = [(x, new) for x in trans]
        for x, by in frontier:
            for s, s_inv in by:
                y = s[x]
                if y not in trans:
                    trans[y] = tuple(map(s.__getitem__, trans[x]))
                    invs[y] = tuple(map(invs[x].__getitem__, s_inv))
                    self._build(2)
                    frontier.append((y, gens))

    def _complete(self):
        """Sift every untested Schreier generator, deepest level first; a
        residue becomes a strong generator, and the walk restarts at the
        level it reached."""
        index = max(self._levels, default=-1)
        while index >= 0:
            gens, trans, invs, tested = self._levels[index]
            restart = None
            for x in list(trans):
                ux = trans[x]
                for t in range(tested.get(x, 0), len(gens)):
                    s = gens[t][0]
                    sux = tuple(map(s.__getitem__, ux))
                    self._build(1)
                    y = s[x]
                    if sux == trans[y]:
                        continue
                    self._build(1)
                    found = self._sift(tuple(map(invs[y].__getitem__, sux)), index + 1)
                    if found is not None:
                        tested[x] = t
                        self._add(found[0], index, found[1])
                        restart = found[1]
                        break
                if restart is not None:
                    break
                tested[x] = len(gens)
            if restart is None:
                restart = max((i for i in self._levels if i < index), default=-1)
            index = restart

    def order(self, prefix=0):
        """Order of the pointwise stabiliser of base[:prefix]."""
        return math.prod(len(lv[1]) for i, lv in self._levels.items() if i >= prefix)

    def fixing_order(self, points):
        """Order of the pointwise stabiliser of the points, read off the
        chain rebuilt with those points first in its base."""
        first = set(points)
        rest = [b for b in self.base if b not in first]
        return StabChain(self.generators(), list(points) + rest).order(len(points))

    def generators(self, prefix=0):
        """Strong generators of the pointwise stabiliser of base[:prefix]."""
        first = min((i for i in self._levels if i >= prefix), default=None)
        return [] if first is None else [s for s, _ in self._levels[first][0]]

    def check_listing(self, count=None):
        """TooLarge when a listing of `count` elements, by default all of
        them, passes the element limit or the entry cap."""
        count = self.order() if count is None else count
        limit = max_elements()
        if count > limit:
            raise TooLarge(f"listing exceeded {limit} elements")
        check_entries(count * len(self.base), "listing")

    def elements(self):
        """Every element, lazily, in lexicographic order of the base
        positions of the images of base[0], base[1], ..., checked by
        check_listing as it goes."""
        levels = [self._levels[i][1] for i in sorted(self._levels)]
        # past this many, check_listing raises
        limit = max_elements()
        allowed = min(limit, ENTRIES_PER_ELEMENT * limit // max(len(self.base), 1))
        count = 0
        # branch[i] yields the products u_0 ... u_(i-1) under one parent
        branch = [iter((self._ident,))]
        while branch:
            prefix = next(branch[-1], None)
            if prefix is None:
                branch.pop()
            elif len(branch) <= len(levels):
                branch.append(self._children(levels[len(branch) - 1], prefix))
            else:
                count += 1
                if count > allowed:
                    self.check_listing(count)
                yield prefix

    def _children(self, trans, prefix):
        """prefix after each transversal element of a level, ordered by the
        base position of the image of that level's point."""
        pos = self._pos
        for z in sorted(trans, key=lambda z: pos[prefix[z]]):
            yield tuple(map(prefix.__getitem__, trans[z]))


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
