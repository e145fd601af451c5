"""PSL(2) over the p-adic rationals acting on its lattice-class tree.

Vertices are homothety classes of rank-2 lattices. A class is stored in
the canonical shape with basis columns (p^alpha, 0) and (beta, 1): alpha
any integer, beta a rational with p-power denominator and 0 <= beta <
p^alpha: the ball beta + p^alpha Z_p of Q_p, whose neighbours and parent
read off alpha and beta. Canonicalization is one Z_p column operation on
exact Fractions with entries in Z[1/p], so no approximation ever enters.

Group elements are 2x2 matrices of determinant exactly 1 with Z[1/p]
entries, normalized by sign (a matrix and its negative act identically).

The stabiliser of a vertex v with lattice basis B is B SL2(Z_p) B^-1, and
the radius-k germ of B g B^-1 depends only on g mod p^k. SL2(Z) maps onto
SL2(Z/p^k) and is generated by T = [[1, 1], [0, 1]] and S = [[0, -1],
[1, 0]], so the germs of B T B^-1 and B S B^-1 generate the whole
stabiliser germ group, and stab_generators returns those two elements.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..errors import (
    BadElement,
    NotIntegral,
    Record,
    SingularBasis,
    TooLarge,
    ValidationError,
    echo,
    max_elements,
)
from ..tree_core import ROOT, VertexAddr, require_regular
from .base import GroupModel, TreeChart

INF = float("inf")


def _vp_int(x, p):
    if x == 0:
        return INF
    v = 0
    while x % p == 0:
        # divide out p, p^2, p^4, ... while they divide: a valuation of n
        # takes O(log(n)^2) divisions, not n
        q, e = p, 1
        while x % q == 0:
            x //= q
            v += e
            q, e = q * q, e * 2
    return v


def vp(x, p):
    """p-adic valuation of a rational; infinite for zero."""
    fr = Fraction(x)
    if fr == 0:
        return INF
    return _vp_int(fr.numerator, p) - _vp_int(fr.denominator, p)


def _in_z_inv_p(x, p):
    den = Fraction(x).denominator
    return den == p ** _vp_int(den, p)


class Mat2(Record):
    _fields = ("a", "b", "c", "d")  # Fractions, row by row

    @staticmethod
    def of(a, b, c, d):
        return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def det(self):
        return self.a * self.d - self.b * self.c

    def mul(self, o):
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inv(self):
        det = self.det()
        if det == 0:
            raise SingularBasis("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def neg(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s):
        s = Fraction(s)
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


MAT_IDENTITY = Mat2.of(1, 0, 0, 1)
# generators of SL2(Z), and so of every SL2(Z/p^k)
SL2_T = Mat2.of(1, 1, 0, 1)
SL2_S = Mat2.of(0, -1, 1, 0)
# Mat2.entries() positions as (row, column), so that messages name an entry
# by position: an entry can have more digits than str() may print
ENTRY_NAMES = ("(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)")


def _mat_key(m):
    return tuple(
        part for e in m.entries() for part in (e.numerator, e.denominator)
    )


class PSL2Element(Record):
    _fields = ("mat",)

    @staticmethod
    def make(p, mat):
        for name, e in zip(ENTRY_NAMES, mat.entries()):
            if not _in_z_inv_p(e, p):
                raise BadElement(f"entry {name} is not in Z[1/{p}]")
        det = mat.det()
        if det != 1:
            raise BadElement(
                f"determinant must be exactly 1; its {p}-adic valuation is {vp(det, p)}"
            )
        neg = mat.neg()
        return PSL2Element(mat if _mat_key(mat) <= _mat_key(neg) else neg)


class LatticeClass(Record):
    _fields = ("p", "alpha", "beta")

    def __init__(self, p, alpha, beta):
        super().__init__(p, alpha, Fraction(beta))
        b = self.beta
        if b < 0 or b >= Fraction(p) ** alpha:
            raise ValidationError(f"beta {b} outside [0, p^{alpha})")
        if b != 0 and not _in_z_inv_p(b, p):
            raise ValidationError(f"beta {b} has a non-p denominator")

    def basis(self):
        return Mat2.of(Fraction(self.p) ** self.alpha, self.beta, 0, 1)


class PSL2Model(GroupModel):
    name = "psl2"

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise ValidationError(f"p must be a prime, got {echo(p)}")
        root, limit = math.isqrt(p), max_elements()
        if root > limit:
            raise TooLarge(f"the primality test of p takes more than {limit} divisions")
        if any(p % q == 0 for q in range(2, root + 1)):
            raise ValidationError(f"p must be a prime, got {p!r}")
        self.p = p
        self.degree = p + 1
        require_regular(self.degree)
        self.root_class = LatticeClass(p, 0, Fraction(0))
        self.tree = TreeChart(
            self.degree, self.root_class, self.ordered_neighbors, self.parent_of
        )

    # --- lattice classes ------------------------------------------------------

    def lattice_canonical(self, col1, col2):
        """Canonical class of the lattice spanned by two column vectors."""
        p = self.p
        cols = [tuple(Fraction(x) for x in col) for col in (col1, col2)]
        for j, col in enumerate(cols, 1):
            for i, e in enumerate(col, 1):
                if not _in_z_inv_p(e, p):
                    raise ValidationError(f"basis entry ({i}, {j}) is not in Z[1/{p}]")
        (a, c), (b, d) = cols
        det = a * d - b * c
        if det == 0:
            raise SingularBasis("the two vectors do not span")
        # pivot on the second-row entry d of least valuation: a Z_p column
        # operation clears the other one, so alpha = v(det) - 2 v(d), and
        # the class is the ball b/d + p^alpha Z_p
        v_c, v_d = vp(c, p), vp(d, p)
        if v_c < v_d:
            b, d, v_d = a, c, v_c
        alpha = vp(det, p) - 2 * v_d
        x = b / d
        v_num, v_den = _vp_int(x.numerator, p), _vp_int(x.denominator, p)
        e = v_num - v_den
        if e >= alpha:
            return LatticeClass(p, alpha, 0)
        # x = p^e n/m with n, m prime to p; beta is x mod p^alpha Z_p
        q = p ** (alpha - e)
        unit = x.numerator // p**v_num * pow(x.denominator // p**v_den, -1, q)
        return LatticeClass(p, alpha, unit % q * Fraction(p) ** e)

    def ordered_neighbors(self, latt):
        """The p classes inside the lattice's ball, then the one around it."""
        p, alpha, beta = self.p, latt.alpha, latt.beta
        q = Fraction(p) ** alpha
        inner = [LatticeClass(p, alpha + 1, beta + f * q) for f in range(p)]
        return inner + [LatticeClass(p, alpha - 1, beta % (q / p))]

    def parent_of(self, latt):
        if latt == self.root_class:
            return None
        p, alpha, beta = self.p, latt.alpha, latt.beta
        # a ball around Z_p steps down towards it, any other ball up
        if beta == 0 and alpha < 0:
            return LatticeClass(p, alpha + 1, 0)
        return LatticeClass(p, alpha - 1, beta % Fraction(p) ** (alpha - 1))

    def class_of_vertex(self, v):
        return self.tree.obj_of(v)

    # --- group operations --------------------------------------------------------

    def identity(self):
        return PSL2Element.make(self.p, MAT_IDENTITY)

    def element(self, a, b, c, d):
        return PSL2Element.make(self.p, Mat2.of(a, b, c, d))

    def mul(self, x, y):
        return PSL2Element.make(self.p, x.mat.mul(y.mat))

    def inv(self, x):
        m = x.mat
        return PSL2Element.make(self.p, Mat2(m.d, -m.b, -m.c, m.a))

    def act_on_class(self, x, latt):
        basis = latt.basis()
        moved = x.mat.mul(basis)
        return self.lattice_canonical((moved.a, moved.c), (moved.b, moved.d))

    def act(self, g, v):
        return self.tree.addr_of(self.act_on_class(g, self.tree.obj_of(v)))

    def image_step(self, g, x, gx, y, c):
        target = self.act_on_class(g, self.tree.chart(x)[0][c])
        return gx.step(self.tree.chart(gx)[1][target])

    # --- congruence tests -----------------------------------------------------------

    def fix_ball_test(self, x, r):
        """Does the element fix the radius-r ball at the base vertex
        pointwise? Exact congruence test against +-identity."""
        m = x.mat if isinstance(x, PSL2Element) else x
        p = self.p
        for name, e in zip(ENTRY_NAMES, m.entries()):
            if vp(e, p) < 0:
                raise NotIntegral(f"entry {name} has negative valuation {vp(e, p)}")
        for cand in (m, m.neg()):
            if (
                vp(cand.a - 1, p) >= r
                and vp(cand.d - 1, p) >= r
                and vp(cand.b, p) >= r
                and vp(cand.c, p) >= r
            ):
                return True
        return False

    # --- stabilizer germs --------------------------------------------------------------

    def stab_generators(self, v, k):
        basis = self.class_of_vertex(v).basis()
        basis_inv = basis.inv()
        # S first, so T's order p meets the orbit of p + 1 neighbours
        return [PSL2Element.make(self.p, basis.mul(m).mul(basis_inv)) for m in (SL2_S, SL2_T)]

    # --- orbits -----------------------------------------------------------------------

    def orbit_reps(self):
        return (ROOT, VertexAddr((0,)))

    def transporter(self, u, w):
        lu = self.class_of_vertex(u)
        lw = self.class_of_vertex(w)
        delta = lw.alpha - lu.alpha
        if delta % 2:
            # the determinant valuation of any basis change is even for
            # elements of determinant 1, so parity splits the orbits
            return None
        m = lw.basis().mul(lu.basis().inv()).scale(Fraction(self.p) ** (-delta // 2))
        return PSL2Element.make(self.p, m)

    # --- searches ------------------------------------------------------------------------

    def nondiscreteness_candidates(self, k):
        # no elementary matrix with an entry unit * p^j is the identity
        for j in itertools.count(1):
            for unit in range(1, self.p):
                x = unit * self.p**j
                yield self.element(1, x, 0, 1)
                yield self.element(1, 0, x, 1)

    def one_sided_fixators_trivial(self, edge):
        # an element fixing a half-tree pointwise fixes the infinitely
        # many ends inside it; a fractional-linear map fixing more than
        # two ends is the identity
        return True

    # --- serialization -----------------------------------------------------------------------

    def element_to_json(self, g):
        m = g.mat
        return {
            "matrix": [
                [str(m.a), str(m.b)],
                [str(m.c), str(m.d)],
            ]
        }

    def element_from_json(self, data):
        try:
            rows = data["matrix"]
            entries = [Fraction(str(x)) for row in rows for x in row]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadElement(f"bad matrix payload: {exc}") from None
        if len(entries) != 4:
            raise BadElement("matrix must be 2x2")
        return self.element(*entries)

    def describe(self):
        return {"model": self.name, "p": self.p, "degree": self.degree}

