"""PSL(2) over the p-adic rationals acting on its lattice-class tree.

Vertices are homothety classes of rank-2 lattices. A class is stored in
the canonical shape with basis columns (p^alpha, 0) and (beta, 1): alpha
any integer, beta a rational with p-power denominator and 0 <= beta <
p^alpha. Canonicalization runs through an exact integer column Hermite
form, so no approximation ever enters; all matrix entries live in Z[1/p]
as exact Fractions.

Group elements are 2x2 matrices of determinant exactly 1 with Z[1/p]
entries, normalized by sign (a matrix and its negative act identically).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import (
    BadElement,
    NotIntegral,
    SingularBasis,
    TooLarge,
    ValidationError,
    max_elements,
    product_exceeds,
)
from ..tree_core import ROOT, VertexAddr, require_regular
from .base import GroupModel, LazyEmbedding

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


@dataclass(frozen=True)
class Mat2:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

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
# Mat2.entries() positions as (row, column), so that messages name an entry
# by position: an entry can have more digits than str() may print
ENTRY_NAMES = ("(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)")


def _mat_key(m):
    return tuple(
        part for e in m.entries() for part in (e.numerator, e.denominator)
    )


@dataclass(frozen=True)
class PSL2Element:
    mat: Mat2

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


@dataclass(frozen=True)
class LatticeClass:
    p: int
    alpha: int
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        b = self.beta
        if b < 0 or b >= Fraction(self.p) ** self.alpha:
            raise ValidationError(f"beta {b} outside [0, p^{self.alpha})")
        if b != 0 and not _in_z_inv_p(b, self.p):
            raise ValidationError(f"beta {b} has a non-p denominator")

    def basis(self):
        return Mat2.of(Fraction(self.p) ** self.alpha, self.beta, 0, 1)


class PSL2Model(GroupModel):
    name = "psl2"

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise ValidationError(f"p must be a prime, got {p!r}")
        root, limit = math.isqrt(p), max_elements()
        if root > limit:
            raise TooLarge(f"the primality test of p takes more than {limit} divisions")
        if any(p % q == 0 for q in range(2, root + 1)):
            raise ValidationError(f"p must be a prime, got {p!r}")
        self.p = p
        self.degree = p + 1
        require_regular(self.degree)
        self.root_class = LatticeClass(p, 0, Fraction(0))
        self.embedding = LazyEmbedding(
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
        scale = p ** max(
            _vp_int(e.denominator, p) for col in cols for e in col
        )
        (x1, y1), (x2, y2) = (
            (int(col[0] * scale), int(col[1] * scale)) for col in cols
        )
        if x1 * y2 - x2 * y1 == 0:
            raise SingularBasis("the two vectors do not span")
        c1, c2 = (x1, y1), (x2, y2)
        while c1[1] != 0:
            if c2[1] != 0:
                k = c2[1] // c1[1]
                c2 = (c2[0] - k * c1[0], c2[1] - k * c1[1])
            c1, c2 = c2, c1
        A, _ = c1
        B, D = c2
        if A < 0:
            A = -A
        if D < 0:
            B, D = -B, -D
        B %= A
        a_v = _vp_int(A, p)
        d_v = _vp_int(D, p)
        alpha = a_v - d_v
        if B == 0:
            beta = Fraction(0)
        else:
            b_v = _vp_int(B, p)
            if b_v - d_v >= alpha:
                beta = Fraction(0)
            else:
                s = alpha - (b_v - d_v)
                u_b = B // p**b_v
                u_d = D // p**d_v
                cc = (u_b * pow(u_d, -1, p**s)) % p**s
                beta = Fraction(cc) * Fraction(p) ** (b_v - d_v)
        return LatticeClass(p, alpha, beta)

    def ordered_neighbors(self, latt):
        p = self.p
        basis = latt.basis()
        g1 = (basis.a, basis.c)
        g2 = (basis.b, basis.d)
        out = []
        for f in range(p):
            out.append(
                self.lattice_canonical(
                    (p * g1[0], p * g1[1]), (g2[0] + f * g1[0], g2[1] + f * g1[1])
                )
            )
        out.append(self.lattice_canonical(g1, (p * g2[0], p * g2[1])))
        return out

    def lattice_distance(self, l1, l2):
        n = l1.basis().inv().mul(l2.basis())
        vals = [vp(e, self.p) for e in n.entries() if e != 0]
        return vp(n.det(), self.p) - 2 * min(vals)

    def parent_of(self, latt):
        if latt == self.root_class:
            return None
        target = self.lattice_distance(latt, self.root_class) - 1
        for nb in self.ordered_neighbors(latt):
            if self.lattice_distance(nb, self.root_class) == target:
                return nb
        raise ValidationError(f"no parent found for {latt!r}")

    def class_of_vertex(self, v):
        return self.embedding.obj_of(v)

    def vertex_of_class(self, latt):
        return self.embedding.addr_of(latt)

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
        return self.embedding.addr_of(self.act_on_class(g, self.embedding.obj_of(v)))

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

    def _stab_germs(self, v, k):
        # SL2(Z/p^k), of order p^(3k-2) (p^2 - 1), acts on B(v, k) with
        # kernel the scalars l with l^2 = 1 mod p^k: 2 of them for odd p,
        # and 1, 2 or 4 for p = 2 at k = 1, 2 or more
        p, limit = self.p, max_elements()
        kernel = 2 if p > 2 else (1, 2, 4)[min(k, 3) - 1]
        if k > 0 and product_exceeds(
            itertools.chain([p * p - 1], itertools.repeat(p, 3 * k - 2)), limit * kernel
        ):
            raise TooLarge(f"stabilizer germ group exceeded {limit}")
        basis = self.class_of_vertex(v).basis()
        basis_inv = basis.inv()
        for a, b, c, d in _sl2_mod(self.p, k):
            lifted = _lift_det1(a, b, c, d, self.p**k)
            conj = basis.mul(lifted).mul(basis_inv)
            yield self.germ_of(PSL2Element.make(self.p, conj), v, k)

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

    def iter_elements(self):
        yield self.identity()
        for j in itertools.count(1):
            for unit in range(1, self.p):
                x = unit * self.p**j
                yield self.element(1, x, 0, 1)
                yield self.element(1, 0, x, 1)

    def nondiscreteness_candidates(self, k):
        for g in self.iter_elements():
            if g != self.identity():
                yield g

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


def _sl2_mod(p, k):
    """All of SL2 over Z/p^k as (a, b, c, d) tuples."""
    q = p**k
    for a in range(q):
        for b in range(q):
            for c in range(q):
                rhs = (1 + b * c) % q
                if a == 0:
                    if rhs == 0:
                        for d in range(q):
                            yield (a, b, c, d)
                    continue
                g = math.gcd(a, q)
                if rhs % g:
                    continue
                qg = q // g
                d0 = (rhs // g) * pow(a // g, -1, qg) % qg if qg > 1 else 0
                for t in range(g):
                    yield (a, b, c, d0 + t * qg)


def _lift_det1(a, b, c, d, q):
    """Integer matrix of determinant exactly 1 congruent to (a,b,c,d) mod q."""
    b1 = b if b != 0 else b + q
    a1 = a
    while math.gcd(a1, b1) != 1:
        a1 += q
    m = (a1 * d - b1 * c - 1) // q
    _, u, v = _ext_gcd(a1, b1)
    y, x = -m * u, m * v
    return Mat2.of(a1, b1, c + q * x, d + q * y)


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t
