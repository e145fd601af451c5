"""Baumslag-Solitar group BS(m,n) = <a,t | t a^m t^-1 = a^n> on its tree.

Vertices of the tree are cosets u<a>, which normalize to the sequence of
(residue, sign) syllables of u: the word a^{r1} t^{e1} ... a^{rL} t^{eL} a^{tail}
with r_i in [0,n) before t and [0,m) before t^-1, and no pinch
t a^{r} t^-1 with r = 0 after a +1 syllable nor t^-1 a^{r} t after a -1
one. The tail is the element's position inside its coset; dropping it
names the coset, and the syllable prefixes are exactly the geodesic from
the base coset, which makes the tree embedding a prefix walk.

The coset tree is (m+n)-regular: n outgoing t-type edges and m t^-1-type
ones at every vertex.
"""

from __future__ import annotations

import itertools
import math

from ..errors import BadElement, Record, TooLarge, ValidationError, max_elements
from ..permgroup import cycle_table
from ..tree_core import (
    Germ,
    ball_parents,
    ball_positions,
    ball_vertices,
    require_regular,
    tree_distance,
)
from .base import GroupModel, TreeChart


class BSElement(Record):
    _fields = ("segs", "tail")  # segs: ((residue, sign), ...)


class _Normalizer:
    """Pushes letters into normal form one at a time."""

    def __init__(self, m, n, segs=(), tail=0):
        self.m, self.n = m, n
        self.segs = list(segs)
        self.tail = tail

    def push_a(self, c):
        self.tail += c

    def push_t(self, sign):
        if sign == 1:
            r = self.tail % self.n
            carry = (self.tail - r) // self.n
            if r == 0 and self.segs and self.segs[-1][1] == -1:
                prev, _ = self.segs.pop()
                self.tail = prev + carry * self.m
            else:
                self.segs.append((r, 1))
                self.tail = carry * self.m
        elif sign == -1:
            r = self.tail % self.m
            carry = (self.tail - r) // self.m
            if r == 0 and self.segs and self.segs[-1][1] == 1:
                prev, _ = self.segs.pop()
                self.tail = prev + carry * self.n
            else:
                self.segs.append((r, -1))
                self.tail = carry * self.n
        else:
            raise ValidationError(f"bad t sign {sign!r}")

    def push_element(self, el):
        for r, e in el.segs:
            self.push_a(r)
            self.push_t(e)
        self.push_a(el.tail)

    def value(self):
        return BSElement(tuple(self.segs), self.tail)


def parse_britton(text):
    """Parse words like "a^2 t a t^-1 a^-3"; "1" is the identity.

    Normal forms take one step per t letter, so TooLarge when the word has
    more t letters than the element limit.
    """
    letters = []
    t = text.strip()
    if t in ("", "1"):
        return letters
    for tok in t.split():
        if "^" in tok:
            base, _, exp = tok.partition("^")
            try:
                k = int(exp)
            except ValueError:
                raise ValidationError(f"bad exponent in token {tok!r}") from None
        else:
            base, k = tok, 1
        if base not in ("a", "t"):
            raise ValidationError(f"unknown generator {base!r}")
        letters.append((base, k))
    limit = max_elements()
    if sum(abs(k) for base, k in letters if base == "t") > limit:
        raise TooLarge(f"word has more than {limit} t letters")
    return letters


def render_britton(el):
    parts = []
    for r, e in el.segs:
        if r:
            parts.append(f"a^{r}" if r != 1 else "a")
        parts.append("t" if e == 1 else "t^-1")
    if el.tail:
        parts.append(f"a^{el.tail}" if el.tail != 1 else "a")
    return " ".join(parts) if parts else "1"


class BassSerreModel(GroupModel):
    name = "bs"

    def __init__(self, m, n):
        if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
            raise ValidationError(f"need integer m, n >= 1, got {m!r}, {n!r}")
        require_regular(m + n)
        self.m, self.n = m, n
        self.degree = m + n
        self.tree = TreeChart(
            self.degree, (), self._coset_neighbors, lambda segs: segs[:-1]
        )

    # --- group arithmetic ---------------------------------------------------

    def identity(self):
        return BSElement((), 0)

    def a_power(self, j):
        return BSElement((), j)

    def from_letters(self, letters):
        nz = _Normalizer(self.m, self.n)
        for base, k in letters:
            if base == "a":
                nz.push_a(k)
            else:
                sign = 1 if k > 0 else -1
                for _ in range(abs(k)):
                    nz.push_t(sign)
        return nz.value()

    def from_britton(self, text):
        return self.from_letters(parse_britton(text))

    def mul(self, a, b):
        nz = _Normalizer(self.m, self.n, a.segs, a.tail)
        nz.push_element(b)
        return nz.value()

    def inv(self, a):
        nz = _Normalizer(self.m, self.n)
        nz.push_a(-a.tail)
        for r, e in reversed(a.segs):
            nz.push_t(-e)
            nz.push_a(-r)
        return nz.value()

    # --- the coset tree ---------------------------------------------------------

    def _coset_neighbors(self, segs):
        out = []
        # the tree's first chart checks the degree before asking for these
        for r, e in [(r, 1) for r in range(self.n)] + [(r, -1) for r in range(self.m)]:
            nz = _Normalizer(self.m, self.n, segs, 0)
            nz.push_a(r)
            nz.push_t(e)
            out.append(tuple(nz.segs))
        return out

    def act(self, g, v):
        segs = self.tree.obj_of(v)
        moved = self.mul(g, BSElement(segs, 0))
        return self.tree.addr_of(moved.segs)

    def transporter(self, u, w):
        gu = BSElement(self.tree.obj_of(u), 0)
        gw = BSElement(self.tree.obj_of(w), 0)
        return self.mul(gw, self.inv(gu))

    def stab_generator(self, v):
        """Generator of the (infinite cyclic) full stabilizer of v."""
        u = BSElement(self.tree.obj_of(v), 0)
        return self.mul(self.mul(u, self.a_power(1)), self.inv(u))

    def stab_generators(self, v, k):
        return [self.stab_generator(v)]

    def edge_label(self, x, y):
        """+1 for a t-type edge out of x, -1 for a t^-1-type one."""
        sx = self.tree.obj_of(x)
        sy = self.tree.obj_of(y)
        if len(sy) == len(sx) + 1 and sy[: len(sx)] == sx:
            return sy[-1][1]
        if len(sx) == len(sy) + 1 and sx[: len(sy)] == sy:
            return -sx[-1][1]
        raise ValidationError(f"{x!r} and {y!r} are not adjacent")

    # --- searches ------------------------------------------------------------------

    def nondiscreteness_candidates(self, k):
        for j in itertools.count(1):
            yield self.a_power(j)

    def one_sided_fixators_trivial(self, edge):
        # valuation argument; needs the two scales to be coprime
        return math.gcd(self.m, self.n) == 1

    # --- exponent machinery for generator constructions -----------------------------

    def minimal_fixing_exponent(self, v, anchor=None):
        """Smallest l >= 1 with (stab generator at anchor)^l fixing v."""
        from ..tree_core import ROOT

        anchor = ROOT if anchor is None else anchor
        radius = max(tree_distance(anchor, v), 1)
        germ = self.germ_of(self.stab_generator(anchor), anchor, radius)
        return _cycle_length(germ, v)

    def sigma_base(self, v, radius):
        """The stabilizer generator's germ at (v, radius) and its cycle
        table; sigma_construction reads both."""
        germ = self.germ_of(self.stab_generator(v), v, radius)
        return germ, cycle_table(germ.perm)

    def sigma_construction(self, v, base_exponent, twists, radius, base=None, k=1):
        """Germ at (v, radius) twisting each subtree by stabilizer powers.

        Vertex y at distance >= 1 maps to gen^{c(parent(y))} applied to y,
        where c(v) is the base exponent and each child may add any
        multiple of its twist step (the twist). The step at y is the lcm
        of the cycle lengths over B(y, k-1) and the vertices of B(y, k)
        off y's subtree, inside the ball: the added power fixes all of
        them, so every k-ball that meets y's subtree still sees a single
        stabilizer power, and the germ stays k-legal. At k = 1 the step
        is y's own cycle length. base is sigma_base(v, radius), for
        callers building many germs at one (v, radius).
        """
        cycles = (base or self.sigma_base(v, radius))[1]
        twisted = [y for y in twists if tree_distance(v, y) <= radius]
        added = {
            i: int(twists[y]) * self._twist_step(v, y, radius, k, cycles)
            for i, y in zip(ball_positions(v, twisted, radius, self.degree), twisted)
            if int(twists[y])
        }
        parents = ball_parents(self.degree, radius)
        exps = [base_exponent] * len(parents)
        perm = [0] * len(parents)
        # the canonical order lists every parent before its children
        for i in range(1, len(parents)):
            e = exps[parents[i]]
            cycle, pos = cycles[i]
            exps[i] = e + added.get(i, 0)
            perm[i] = cycle[(pos + e) % len(cycle)]
        return Germ(v, v, radius, tuple(perm), self.degree)

    def _twist_step(self, v, y, radius, k, cycles):
        """Least power step at y that fixes B(y, k-1) and the vertices of
        B(y, k) off y's subtree, within B(v, radius)."""
        depth = tree_distance(v, y)
        kept = [
            x
            for x in ball_vertices(y, k, self.degree)
            if tree_distance(v, x) <= radius
            and (
                tree_distance(y, x) < k
                or tree_distance(v, x) != depth + tree_distance(y, x)
            )
        ]
        step = 1
        for i in ball_positions(v, kept, radius, self.degree):
            step = math.lcm(step, len(cycles[i][0]))
        return step

    # --- serialization ----------------------------------------------------------------

    def element_to_json(self, g):
        return {"britton": render_britton(g)}

    def element_from_json(self, data):
        if "britton" in data:
            return self.from_britton(data["britton"])
        try:
            segs = tuple((int(r), int(e)) for r, e in data["segs"])
            return BSElement(segs, int(data["tail"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadElement(f"bad element payload: {exc}") from None

    def describe(self):
        return {"model": self.name, "m": self.m, "n": self.n, "degree": self.degree}


def _cycle_length(germ, y):
    """Length of the cycle of y under a germ fixing its center."""
    i = ball_positions(germ.src_center, (y,), germ.radius, germ.degree)[0]
    return len(cycle_table(germ.perm)[i][0])
