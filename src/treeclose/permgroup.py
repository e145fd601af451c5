"""Small exact permutation-group utilities.

Permutations are tuples of images on 0..n-1. Nothing here claims an
isomorphism type; structure_fingerprint returns invariants only. StabChain
is the one representation of a group generated by perms: orders of
pointwise stabilisers are read off it without listing the group,
membership is a sift through it, and it lists the group in a fixed order
only as far as a caller asks. It sizes every finite group the package
builds: a chain given a refusal message stops as soon as the group passes
the element limit, before it is complete. closure_chain closes generators
through it, and structure_fingerprint decides closure and abelianness
with it.
"""

from __future__ import annotations

import math

from .errors import NotStabilized, TooLarge, ValidationError, echo, max_elements


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
        raise ValidationError(f"not a permutation of 0..{n - 1}: {echo(p)}")
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
    and its time. Given a refusal message, with {} for the limit, it raises
    TooLarge with it once a lower bound on the order passes the limit: the
    product of its orbit lengths (each orbit grows towards a basic orbit)
    or the lcm of its generators' orders and its orbit lengths (each
    divides the order). So the refusal is exact; without one it counts past
    the limit. Both checks see an orbit's points before any of its elements
    is built. Generators may come lazily; each is sifted through the chain
    of the ones before it, which is complete, and only a residue other than
    the identity is kept; only then is the generator's order taken.
    Membership sifts too, but its perms are dropped and count toward no
    cap.
    """

    def __init__(self, generators, base, refuse=None):
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
        limit = max_elements()
        self._cap = ENTRIES_PER_ELEMENT * limit
        # lower bounds on the order, refused past the limit if asked
        self._reached = 1
        self._divides = 1
        self._limit = limit
        self._refusal = None if refuse is None else refuse.format(limit)
        seen = set()
        for g in generators:
            if g in seen:
                continue
            seen.add(g)
            # a g that sifts to the identity lies in the complete chain's
            # group, so its order divides the orbit-length product: only a
            # g that leaves a residue can move the lcm bound
            residue, j = self._sift(g, 0)
            if residue is not None:
                if self._refusal is not None:
                    self._divides = math.lcm(self._divides, perm_order(g))
                self._cut()
                self._add(residue, -1, j)
                self._complete(j)

    def _cut(self):
        if self._refusal is not None and max(self._reached, self._divides) > self._limit:
            raise TooLarge(self._refusal)

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

    def __contains__(self, g):
        return self._sift(g, 0, build=False)[0] is None

    def _sift(self, g, start, build=True):
        """(residue, index of the first base point it moves), or (None,
        None) when g sifts to the identity. The perms it makes count toward
        the entry cap when `build` is set."""
        while True:
            j = self._first_moved(g, start)
            if j is None:
                return None, None
            level = self._levels.get(j)
            inv = level and level[2].get(g[self.base[j]])
            if inv is None:
                return g, j
            g = tuple(map(inv.__getitem__, g))
            if build:
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
        grown = []
        for i, level in self._levels.items():
            if above < i <= j:
                level[0].append(pair)
                grown.append((level, self._orbit(level[0], level[1], [pair])))
        self._cut()
        self._build(2 * sum(len(found) for _, found in grown))
        for (_, trans, invs, _), found in grown:
            for y, (x, s, s_inv) in found.items():
                trans[y] = tuple(map(s.__getitem__, trans[x]))
                invs[y] = tuple(map(invs[x].__getitem__, s_inv))

    def _orbit(self, gens, trans, new):
        """The points new generators add to a level's orbit, in transversal
        order, each with the point and generator that reach it first."""
        found = {}
        frontier = [(x, new) for x in trans]
        for x, by in frontier:
            for s, s_inv in by:
                y = s[x]
                if y not in trans and y not in found:
                    found[y] = (x, s, s_inv)
                    frontier.append((y, gens))
        size = len(trans) + len(found)
        self._reached = self._reached // len(trans) * size
        self._divides = math.lcm(self._divides, size)
        return found

    def _complete(self, index):
        """Sift every untested Schreier generator of the levels up to
        index, deepest first; a residue becomes a strong generator, and the
        walk restarts at the level it reached."""
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
                    residue, j = self._sift(tuple(map(invs[y].__getitem__, sux)), index + 1)
                    if residue is not None:
                        tested[x] = t
                        self._add(residue, index, j)
                        restart = j
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

    def fixing(self, prefix):
        """The chain of the pointwise stabiliser of base[:prefix], on the
        same base: it shares this chain's levels from prefix on."""
        sub = object.__new__(StabChain)
        sub.__dict__.update(self.__dict__)
        sub._levels = {i: lv for i, lv in self._levels.items() if i >= prefix}
        return sub

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


def closure_chain(generators, n):
    """The group the perms on 0..n-1 generate, as a chain with base
    0..n-1, which lists it in sorted order; TooLarge past the element
    limit."""
    return StabChain(generators, range(n), "closure exceeded {} elements")


def structure_fingerprint(perms):
    """Invariants of a closed permutation set: order, abelianness,
    transitivity, and the multiset of element orders. The set lies in the
    group it generates, so it is closed exactly when that group, read off
    its chain, has no more elements; the group is abelian when its strong
    generators commute, and transitive when the orbit of 0 is every point."""
    els = sorted(set(perms))
    if not els:
        raise ValidationError("empty permutation set")
    n = len(els[0])
    chain = StabChain(els, range(n))
    if chain.order() != len(els):
        raise ValidationError("set is not closed under composition")
    gens = chain.generators()
    return {
        "order": len(els),
        "abelian": all(
            compose_perm(a, b) == compose_perm(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        ),
        "transitive": chain.order() == n * chain.order(1),
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
