"""Independent oracles used by the unit and acceptance tests: brute-force
scans, the routes the library no longer takes (F_q's tables from
polynomial products, L's tables from one product per element, the
twisted polynomial ring L{tau} as OrePoly objects with the Frobenius
tau^n and the structure map A -> L, the n x n action matrix of phi_T
over F_q with its Smith normal form over A and its Krylov sequences,
linear solves for the Frobenius characteristic polynomial and for tau^n
in the image of phi, the closed-form candidate for that image when the
discriminant is 0, the annihilation residue built from OrePoly objects,
the torsion structure of ker phi_I from a nullspace in a splitting
tower, with its field embeddings, right gcds in L{tau} and two-generator
ideal images, the order-containment check, the minimal polynomial of the
Frobenius with its annihilation check, P(a) for a in A, the marking
sweep over L x L^* for twist orbits, the census records of every twist
orbit classified on its own, the realization scans over the Hasse box
and over every module, and the lattice enumeration of ideal classes),
and closed-form census counts with their derivations.

Each closed form states the (q, d, m) for which it is proven and raises
OutsideDomainError everywhere else, so that a count is never compared
against a formula that does not apply.  Throughout, A = F_q[T], P is the
monic irreducible prime of degree d, L = F_{q^n} with n = m d, and a
module is Phi_T = gamma + g tau + delta tau^2 with j = g^(q+1) / delta.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from drinfeld2 import (DrinfeldModule, FrobeniusCharPoly, SizeBoundError, UPoly,
                       build_tower, frobenius_charpoly, is_imaginary, module_structure,
                       plane_torsion_rational)
from drinfeld2.census import _process_orbit
from drinfeld2.drinfeld import twist_orbits
from drinfeld2.fields import MAX_FIELD_ORDER, prime_factors
from drinfeld2.polys import _wrap, monic_polys
from drinfeld2.structure import NotRealizable


class OutsideDomainError(ValueError):
    """A closed form was asked for outside the cases it is proven for."""


def _outside(name, q, d, m, domain):
    raise OutsideDomainError("%s is proven only for %s; got q=%d d=%d m=%d"
                             % (name, domain, q, d, m))


def twist_automorphism_count(q, n, g_is_zero):
    """Order of the automorphism group of (g, delta) over L = F_{q^n}.

    The twist action is u: (g, delta) -> (u^(q-1) g, u^(q^2-1) delta), so
    the stabilizer of (g, delta) is {u in L^* : u^(q-1) = 1} = F_q^* when
    g != 0, and {u in L^* : u^(q^2-1) = 1} = F_{q^2}^* meet L^* when g = 0.
    The latter is cyclic of order gcd(q^2 - 1, q^n - 1) = q^gcd(2,n) - 1.
    Holds for every q and n >= 1.
    """
    return q ** gcd(2, n) - 1 if g_is_zero else q - 1


def j0_is_supersingular(d):
    """j = 0 (Phi_T = gamma + delta tau^2) is supersingular exactly when
    deg P is odd (Gekeler, "On finite Drinfeld modules", J. Algebra 141,
    1991).  When d is even the classes with j = 0 are ordinary, with
    complex multiplication by the constant field extension F_{q^2}[T]."""
    return d % 2 == 1


def j0_class_count(q, n):
    """Isomorphism classes over L = F_{q^n} with j = 0, that is g = 0.

    The |L^*| pairs (0, delta) fall into orbits of size
    |L^*| / (q^gcd(2,n) - 1) (see twist_automorphism_count), so there are
    q^gcd(2,n) - 1 of them.  Holds for every q and n >= 1.
    """
    return q ** gcd(2, n) - 1


def supersingular_iso_class_count(q, d, m):
    """Supersingular isomorphism classes over L, assuming every
    supersingular j-invariant lies in L.

        S(q, d, m) = [d odd] * (q^gcd(2,n) - 1) + (q - 1) * J

    - J counts the nonzero supersingular j-invariants (Gekeler, loc. cit.):
      (q^d - 1)/(q^2 - 1) for even d and (q^d - q)/(q^2 - 1) for odd d.
    - j = 0 is supersingular exactly when d is odd (j0_is_supersingular),
      and has j0_class_count(q, n) = q^gcd(2,n) - 1 twists over L.
    - A nonzero j has q - 1 twists over L: the g != 0 with g^(q+1)/delta
      = j number |L^*| and each orbit has |L^*|/(q - 1) of them.

    Domain, where every supersingular j lies in L:
    - m even: the supersingular j lie in the quadratic extension of F_P.
    - d <= 2: for d = 1 the only supersingular j is 0; for d = 2 there is
      exactly one, so it is fixed by Galois and lies in F_P, which L
      contains.
    - d = 3, q odd: over F_P every supersingular class has c = 0 (P | c
      and deg c <= 1), so the classes are counted by the class numbers of
      A[sqrt(-mu P)], mu in F_q^*.  These are genus-1 curves; a quadratic
      twist pair has q + 1 + t and q + 1 - t points, so the (q - 1)/2
      pairs give (q - 1)(q + 1) = q^2 - 1 classes over F_P.  That is
      S(q, 3, 1), which counts every supersingular j as F_P-rational, so
      all of them lie in F_P, which L contains.
    Outside it S over-counts: at (q, d, m) = (3, 4, 1) S = 20 while only 4
    classes are defined over L.
    """
    if not (m % 2 == 0 or d <= 2 or (d == 3 and q % 2 == 1)):
        _outside("supersingular_iso_class_count", q, d, m,
                 "m even, d <= 2, or d = 3 with q odd")
    n = m * d
    if d % 2 == 0:
        nonzero_j = (q ** d - 1) // (q * q - 1)
    else:
        nonzero_j = (q ** d - q) // (q * q - 1)
    j0 = j0_class_count(q, n) if j0_is_supersingular(d) else 0
    return j0 + (q - 1) * nonzero_j


def c0_closed_form(q, d, m):
    """C0, the share of ordinary isogeny classes whose members are all
    cyclic, for n = m d <= 2.

    An isogeny class is the pair (c, mu) of chi(X) = X^2 - c X + mu P^m,
    with deg c <= n/2.  It is ordinary when P does not divide c, and its
    discriminant c^2 - 4 mu P^m is imaginary.  Conversely every such pair
    is an isogeny class (the Honda-Tate theorem for Drinfeld modules).  A
    class is non-cyclic exactly when some i2 of positive degree has
    i2^2 | chi(1) and i2 | c - 2 (the structure and realization theorems,
    acceptance criteria 2, 3 and 7).  At n <= 2 such an i2 is T - a.

    - (d, m) = (1, 1): n = 1 leaves no room for i2, so C0 = 1.
    - (d, m) = (1, 2), any q: with P = T - b, deg c <= 1 and c(a) = 2 give
      c = 2 + k (T - a).  chi(1) = 1 - c + mu (T - b)^2 must have a double
      root at a: the value gives mu (a - b)^2 = 1 and the derivative gives
      k = 2 mu (a - b).  Then c(b) = 2 - 2 mu (a - b)^2 = 0, so P | c and
      the class is supersingular.  Hence C0 = 1.
    - (d, m) = (2, 1), q odd: deg P = 2 > deg c, so ordinary means c != 0.
      Of the (q^2 - 1)(q - 1) pairs with c != 0 the real ones are
      - deg c = 1 with leading a1 and a1^2 - 4 mu a nonzero square:
        q (q - 1)(q - 3)/2 pairs;
      - c constant and -mu a nonzero square: (q - 1)^2/2 pairs;
      together (q - 1)(q^2 - 2q - 1)/2.  That leaves (q - 1)(q^2 + 2q - 1)/2
      ordinary classes.  The non-cyclic ones are one per a in F_q:
      mu = 1/P(a) and c = 2 + (P'(a)/P(a)) (T - a), whose discriminant
      mu^2 disc(P) (T - a)^2 is imaginary because disc(P) is not a square.
      Hence C0 = 1 - 2q / ((q - 1)(q^2 + 2q - 1)).
    """
    if (d, m) in ((1, 1), (1, 2)):
        return Fraction(1)
    if (d, m) == (2, 1) and q % 2 == 1:
        return 1 - Fraction(2 * q, (q - 1) * (q * q + 2 * q - 1))
    return _outside("c0_closed_form", q, d, m,
                    "(d, m) in {(1, 1), (1, 2)}, or (d, m) = (2, 1) with q odd")


def cyclic_proportions_are_one(q, d, m):
    """Whether C = C0 = 1, that is every ordinary module is cyclic.

    True exactly when n = 1 or (d, m) = (1, 2), for n = m d <= 3.
    - n = 1, (1, 2) and (2, 1): see c0_closed_form; at (2, 1) q classes
      are non-cyclic.
    - (d, m) = (1, 3), q odd: with P = T - b and a != b, mu = (a - b)^(-3)
      and c = 2 + 3 (T - a)/(a - b) give chi(1) = 1 - c + mu (T - b)^3 a
      double root at a and c(b) = -1, so the class is ordinary.  Its
      discriminant has degree 3, hence is imaginary.  By the realization
      theorem a member has i2 = T - a.
    - (d, m) = (3, 1), q odd: for any a, mu = 1/P(a) and
      c = 2 + (P'(a)/P(a)) (T - a) do the same; c(a) = 2 makes c nonzero,
      so P does not divide it, and the discriminant again has degree 3.
    Since a non-cyclic isogeny class has a non-cyclic member, C = 1
    exactly when C0 = 1.
    """
    n = m * d
    if n == 1 or (d, m) == (1, 2):
        return True
    if n in (2, 3) and q % 2 == 1:
        return False
    return _outside("cyclic_proportions_are_one", q, d, m,
                    "n <= 2 (q odd at (d, m) = (2, 1)) or n = 3 with q odd")


# ---------------------------------------------------------------------------
# F_q by polynomial products, in plain integer arithmetic mod p.


def fq_tables_by_polynomials(p, s):
    """(min_poly, add, mul, neg, inv) for F_q, q = p^s, built from
    polynomials over F_p rather than from a tower: an element is the
    base-p digit vector of its int, min_poly is the least monic
    irreducible of degree s (coefficient vectors compared constant term
    first, irreducibility by trial division), sums and negatives go digit
    by digit, products are polynomial products reduced mod min_poly, and
    inverses come from a scan of the product table."""
    q = p ** s
    digits = [tuple(v // p ** i % p for i in range(s)) for v in range(q)]

    def to_int(vec):
        return sum(c * p ** i for i, c in enumerate(vec))

    def monics(degree):
        return (tail + (1,) for tail in itertools.product(range(p), repeat=degree))

    def reduce(a, f):
        # the remainder of a mod the monic f, as deg f digits
        r = list(a) + [0] * (len(f) - 1 - len(a))
        for k in range(len(r) - len(f), -1, -1):
            c = r[k + len(f) - 1]
            if c:
                for i, fi in enumerate(f):
                    r[k + i] = (r[k + i] - c * fi) % p
        return r[:len(f) - 1]

    def product(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return out

    min_poly = next(f for f in monics(s)
                    if all(any(reduce(f, g)) for e in range(1, s // 2 + 1) for g in monics(e)))
    add = [[to_int([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
           for a in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):  # products commute
            mul[a][b] = mul[b][a] = to_int(reduce(product(digits[a], digits[b]), min_poly))
    neg = [to_int([-x % p for x in digits[a]]) for a in range(q)]
    inv = [0] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
    return min_poly, add, mul, neg, inv


# ---------------------------------------------------------------------------
# L = F_{q^n} by one kernel product per element, and roots by a scan of L.


def exp_table_by_products(tower):
    """The tables of tower, rebuilt from tower.fq and tower.n alone, one
    kernel product per element: digits by repeated division by q,
    top_min_poly the least monic irreducible of degree n (coefficient
    vectors compared constant term first, irreducibility by trial division
    by every monic of degree <= n/2), the generator the least element
    whose order is |L| - 1, exp by |L| - 1 products with it, each reduced
    mod top_min_poly, and each Frobenius table by a log and an exp per
    entry.  Returns a dict from FieldTower's attribute names to values."""
    fq, n = tower.fq, tower.n
    kernel, q = fq.kernel, fq.q
    order = q ** n

    top_min_poly = next(
        f for f in kernel.monics(n)
        if all(kernel.divmod(f, g)[1] for e in range(1, n // 2 + 1) for g in kernel.monics(e)))

    digits = []
    for v in range(order):
        vec = []
        x = v
        for _ in range(n):
            vec.append(x % q)
            x //= q
        digits.append(tuple(vec))

    def raw_mul(a, b):
        prod = kernel.mul(digits[a], digits[b])
        v = 0
        for c in reversed(kernel.divmod(prod, top_min_poly)[1]):
            v = v * q + c
        return v

    def raw_pow(a, e):
        r = 1
        base = a
        while e:
            if e & 1:
                r = raw_mul(r, base)
            base = raw_mul(base, base)
            e >>= 1
        return r

    m = order - 1
    checks = [m // ell for ell in prime_factors(m)] if m > 1 else []
    gen = 1 if m == 1 else next(
        x for x in range(2, order) if all(raw_pow(x, e) != 1 for e in checks))

    exp = [0] * (order - 1)
    log = [0] * order  # log[0] unused
    x = 1
    for k in range(order - 1):
        exp[k] = x
        log[x] = k
        x = raw_mul(x, gen)
    if x != 1:
        raise RuntimeError("generator order mismatch")
    plus_one = [x - x % q + fq.add_table[x % q][1] for x in exp]
    zech = [log[y] if y else 2 * (order - 1) for y in plus_one]

    frob = [list(range(order))]
    for k in range(1, n):
        prev = frob[-1]
        cur = [0] * order
        for x in range(1, order):
            cur[x] = exp[(log[prev[x]] * q) % (order - 1)]
        frob.append(cur)

    return {"top_min_poly": top_min_poly, "_digits": digits, "generator": gen,
            "_exp": exp + exp + [0] * (order - 1), "_log": log, "_zech": zech + zech,
            "_frob": frob}


def residue_root_by_scan(tower, prime):
    """The root of prime in L with the least coefficient vector, from its
    value at every element of L."""
    return min((x for x in tower.elements() if prime.eval_in_tower(tower, x) == 0),
               key=tower.vector)


# ---------------------------------------------------------------------------
# The twisted polynomial ring L{t} with the commutation rule t*c = c^q*t,
# the route the library took before it computed phi, the height and the
# plane-torsion remainder on coefficient tuples.  Elements act on any
# extension of L as F_q-linear (additive) polynomials x -> sum c_k x^(q^k);
# apply evaluates them on L.  The ring has a right division algorithm; only
# the right-sided theory is implemented because nothing here needs left
# division.  mod.phi(a) and mod.phi_t are coefficient tuples, which
# OrePoly(mod.tower, ...) wraps.


class OrePoly:
    """Twisted polynomial; coefficients in L, stored low tau-degree first."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.tower = tower
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    @classmethod
    def one(cls, tower):
        return cls(tower, (1,))

    @classmethod
    def constant(cls, tower, c):
        return cls(tower, (c,))

    @classmethod
    def tau_power(cls, tower, k, coeff=1):
        return cls(tower, (0,) * k + (coeff,))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, OrePoly) and self.tower == other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def _check(self, other):
        if not isinstance(other, OrePoly) or other.tower is not self.tower:
            raise ValueError("operands live over different towers")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        self.tower.add_scaled(out, 0, 1, b)
        return OrePoly(self.tower, out)

    def __neg__(self):
        tw = self.tower
        return OrePoly(tw, [tw.neg(v) for v in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        if not self.coeffs or not other.coeffs:
            return OrePoly.zero(self.tower)
        tw = self.tower
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:  # x tau^i y = x y^(q^i) tau^i
                tw.add_scaled(out, i, x, other.coeffs, i)
        return OrePoly(tw, out)

    def scale_left(self, c):
        """Left-multiply by the constant c in L."""
        if c == 0:
            return OrePoly.zero(self.tower)
        exp, log = self.tower._exp, self.tower._log
        lc = log[c]
        return OrePoly(self.tower, [exp[lc + log[v]] if v else 0 for v in self.coeffs])

    def monic(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no monic normalization")
        if self.coeffs[-1] == 1:
            return self
        return self.scale_left(self.tower.inv(self.coeffs[-1]))

    def right_divmod(self, other):
        """Quotient and remainder for division on the right: self = q*other + r,
        deg r < deg other.  Stays inside L; no root extraction is needed because
        the leading term is cancelled with a Frobenius twist of lc(other)."""
        other = self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("right division by zero")
        tw = self.tower
        r = list(self.coeffs)
        g = other.coeffs
        dg = len(g) - 1
        inv_lc = tw.inv(g[-1])
        quot = [0] * max(0, len(r) - dg)
        while len(r) - 1 >= dg:
            k = len(r) - 1 - dg
            # leading coefficient of (c*tau^k) * other is c * lc(other)^(q^k)
            coef = tw.mul(r[-1], tw.frob(inv_lc, k))
            quot[k] = coef
            tw.add_scaled(r, k, tw.neg(coef), g, k)  # cancels r[-1]
            while r and r[-1] == 0:
                r.pop()
        return OrePoly(tw, quot), OrePoly(tw, r)

    def height(self):
        """Least k with a nonzero tau^k coefficient; 0 iff separable."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no height")
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise AssertionError("unreachable")

    def apply(self, x):
        """Evaluate the additive polynomial sum c_k x^(q^k) at x in L, in
        log space: log x^(q^k) = q^k log x, and each sum is a Zech lookup."""
        if not x:
            return 0
        tw = self.tower
        exp, log, zech = tw._exp, tw._log, tw._zech
        q, units = tw.q, tw.order - 1
        lx = log[x]
        out = 0
        for c in self.coeffs:
            if c:
                lv = log[c] + lx
                if out:
                    lo = log[out]
                    out = exp[lo + zech[lv - lo]]
                else:
                    out = exp[lv]
            lx = lx * q % units
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            cs = self.tower.format(c)
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append("%s*t" % cs)
            else:
                terms.append("%s*t^%d" % (cs, k))
        return " + ".join(terms)

    def __repr__(self):
        return "OrePoly(%r, %s)" % (self.tower, self)


def frobenius(mod):
    """F = tau^n as an element of L{tau}."""
    return OrePoly.tau_power(mod.tower, mod.n)


def gamma(mod, a):
    """The structure map A -> L (constant term of phi(a))."""
    return a.eval_in_tower(mod.tower, mod.gamma_t)


# ---------------------------------------------------------------------------
# Matrices over A (lists of lists of UPoly) and their Smith normal form.


def poly_identity(fq, n):
    one = UPoly.one(fq)
    zero = UPoly.zero(fq)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def poly_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    fq = a[0][0].fq
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = UPoly.zero(fq)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def poly_mat_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    fq = m[0][0].fq
    acc = UPoly.zero(fq)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * poly_mat_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def smith_normal_form(matrix):
    """Smith normal form over A.

    Returns (U, D, V) with U * matrix * V = D, U and V unimodular, and D
    diagonal with monic entries d_k | d_(k+1).  Pivoting is deterministic:
    the candidate of minimal degree wins, ties broken by row-major
    position.
    """
    rows = len(matrix)
    cols = len(matrix[0])
    fq = matrix[0][0].fq
    d = [row[:] for row in matrix]
    u = poly_identity(fq, rows)
    v = poly_identity(fq, cols)

    def row_op(target, source, factor):
        # row_target -= factor * row_source
        for j in range(cols):
            d[target][j] = d[target][j] - factor * d[source][j]
        for j in range(rows):
            u[target][j] = u[target][j] - factor * u[source][j]

    def col_op(target, source, factor):
        for i in range(rows):
            d[i][target] = d[i][target] - factor * d[i][source]
        for i in range(cols):
            v[i][target] = v[i][target] - factor * v[i][source]

    def swap_rows(i1, i2):
        if i1 != i2:
            d[i1], d[i2] = d[i2], d[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for r in d:
                r[j1], r[j2] = r[j2], r[j1]
            for r in v:
                r[j1], r[j2] = r[j2], r[j1]

    def min_entry(t):
        best = None
        best_deg = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    deg = d[i][j].degree()
                    if best is None or deg < best_deg:
                        best = (i, j)
                        best_deg = deg
        return best

    t = 0
    while t < min(rows, cols):
        pos = min_entry(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # reduce the pivot row and column
            reduced = True
            for i in range(t + 1, rows):
                if d[i][t]:
                    q, r = divmod(d[i][t], d[t][t])
                    row_op(i, t, q)
                    if r:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, cols):
                if d[t][j]:
                    q, r = divmod(d[t][j], d[t][t])
                    col_op(j, t, q)
                    if r:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # pivot now divides (and has cleared) its row and column;
            # make sure it divides the trailing block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] and not (d[i][j] % d[t][t]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into the pivot row and restart
            for j in range(cols):
                d[t][j] = d[t][j] + d[offender][j]
            for j in range(rows):
                u[t][j] = u[t][j] + u[offender][j]
        t += 1

    # monic normalization of the diagonal (scale rows of D and U)
    for k in range(min(rows, cols)):
        if d[k][k] and not d[k][k].is_monic():
            c = fq.inv(d[k][k].lc())
            d[k] = [x.scale(c) for x in d[k]]
            u[k] = [x.scale(c) for x in u[k]]
    return u, d, v


def invariant_factors_from_snf(diag):
    """The nonunit diagonal entries, in divisibility order."""
    out = []
    n = min(len(diag), len(diag[0]))
    for k in range(n):
        e = diag[k][k]
        if e.is_zero():
            raise ValueError("singular matrix has no finite cokernel")
        if e.degree() > 0:
            out.append(e)
    return out


def action_matrix(mod):
    """Matrix over F_q of x -> phi_T(x) on L in the canonical power basis;
    column j holds the coordinates of the image of the j-th basis vector."""
    tw = mod.tower
    n = tw.n
    phi_t = OrePoly(tw, mod.phi_t)
    cols = [tw.vector(phi_t.apply(tw.q ** j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def snf_invariant_factors(action, fq):
    """Invariant factors of the A-module defined by the F_q-matrix `action`
    of T on a finite-dimensional space: the nonunit entries of the Smith
    form of T*I - action, in divisibility order."""
    n = len(action)
    tgen = UPoly.gen(fq)
    mat = [[(tgen if i == j else UPoly.zero(fq)) - UPoly.constant(fq, action[i][j])
            for j in range(n)] for i in range(n)]
    return invariant_factors_from_snf(smith_normal_form(mat)[1])


# ---------------------------------------------------------------------------
# Matrices over F_q: row reduction, and chi, i1 and i2 from Krylov
# sequences of an n x n matrix, the classification route before the library
# ran it on the elements of L.


def _row_reduce(fq, mat, ncols):
    """Bring mat (a list of row lists, changed in place) to reduced row
    echelon form in its first ncols columns; row operations act on whole
    rows.  Returns the pivot columns."""
    add_t, neg_t, mul_t, inv_t = fq.add_table, fq.neg_table, fq.mul_table, fq.inv_table
    m = len(mat)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        to_one = mul_t[inv_t[mat[r][c]]]
        prow = mat[r] = [to_one[v] for v in mat[r]]
        for i in range(m):
            irow = mat[i]
            if i != r and irow[c]:
                minus_f = mul_t[neg_t[irow[c]]]
                for j in range(c, len(irow)):
                    irow[j] = add_t[irow[j]][minus_f[prow[j]]]
        pivots.append(c)
    return pivots


def _mat_mul(fq, a, b):
    add_t, mul_t = fq.add_table, fq.mul_table
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                to_x = mul_t[x]
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = add_t[acc[j]][to_x[y]]
        out.append(acc)
    return out


def _matrix_krylov_relation(fq, cols, seed, rows):
    """Extend the basis `rows` by seed, M seed, M^2 seed, ..., M being the
    matrix with columns `cols`, until M^d seed depends on what is there.
    Returns the monic f of degree d, a kernel tuple, with f(M) seed in the
    span of the rows given.

    `rows` is changed in place.  It holds (pivot, row) pairs in
    semi-echelon form: row[pivot] = 1, and the row is zero before its pivot
    and at every earlier row's pivot.  Each row added here carries a tag,
    its coordinates over the powers of the seed modulo the rows given.
    """
    add_t, neg_t, mul_t, inv_t = fq.add_table, fq.neg_table, fq.mul_table, fq.inv_table
    n = len(cols)
    first = len(rows)
    tags = []
    power = list(seed)
    while True:
        u = list(power)
        tag = [0] * len(tags) + [1]
        for i, (p, row) in enumerate(rows):
            c = u[p]
            if not c:
                continue
            minus_c = mul_t[neg_t[c]]
            for j in range(p, n):
                if row[j]:
                    u[j] = add_t[u[j]][minus_c[row[j]]]
            if i >= first:
                for j, t in enumerate(tags[i - first]):
                    if t:
                        tag[j] = add_t[tag[j]][minus_c[t]]
        p = next((j for j, x in enumerate(u) if x), None)
        if p is None:
            return tuple(tag)
        to_one = mul_t[inv_t[u[p]]]
        rows.append((p, [to_one[x] for x in u]))
        tags.append([to_one[t] for t in tag])
        power = _mat_mul(fq, [power], cols)[0]


def matrix_char_and_min_poly(fq, mat):
    """(chi, i1) for the square matrix M = mat over F_q: chi = det(T*I - M)
    and i1 the minimal polynomial of M, as kernel tuples, from one pass of
    Krylov sequences.

    The seeds are the standard basis vectors not yet in the span W of the
    earlier sequences.  A seed's sequence stops at its relative minimal
    polynomial f, with f(M) seed in W; in the basis the sequences build, M
    is block triangular with companion blocks, so chi is the product of
    the f.  The seeds generate F_q^n over F_q[T], so i1 is the lcm of their
    own minimal polynomials: f for the first seed, one more sequence from
    nothing for each later one.
    """
    kernel = fq.kernel
    n = len(mat)
    cols = [list(col) for col in zip(*mat)]
    rows = []
    chi = i1 = (1,)
    for j in range(n):
        if len(rows) == n:
            break
        seed = [0] * n
        seed[j] = 1
        fresh = not rows
        f = _matrix_krylov_relation(fq, cols, seed, rows)
        if len(f) == 1:
            continue  # the seed already lies in W
        chi = kernel.mul(chi, f)
        own = f if fresh else _matrix_krylov_relation(fq, cols, seed, [])
        g, h = i1, own
        while h:
            g, h = h, kernel.divmod(g, h)[1]
        i1 = kernel.monic(kernel.divmod(kernel.mul(i1, own), g)[0])
    return chi, i1


def matrix_second_invariant_factor(fq, mat, chi, i1):
    """i2 = chi / i1 for the F_q[T]-module F_q^n on which T acts by mat,
    given chi = det(T*I - mat) and the minimal polynomial i1 (kernel
    tuples); the module is then A/(i1) + A/(i2) with i2 | i1.

    Raises RuntimeError when i1 does not divide chi, when i2 does not
    divide i1, or when the module has more than two invariant factors.  For
    the last: with factors e_1 | ... | e_k, i2 = e_1 ... e_(k-1) and an
    irreducible rho | e_1 has dim ker rho(mat) = k deg rho, so
    dim ker rho(mat) <= 2 deg rho for every irreducible rho | i2 proves
    k <= 2.
    """
    kernel = fq.kernel
    i2, r = kernel.divmod(chi, i1)
    if r:
        raise RuntimeError("the minimal polynomial does not divide det(T*I - M)")
    if kernel.divmod(i1, i2)[1]:
        raise RuntimeError("invariant factors do not form a divisibility chain")
    n = len(mat)
    for rho in kernel.irreducible_divisors(i2):
        value = [[rho[-1] if i == j else 0 for j in range(n)] for i in range(n)]
        for c in reversed(rho[:-1]):  # Horner's rule for rho(mat)
            value = _mat_mul(fq, value, mat)
            for i in range(n):
                value[i][i] = fq.add_table[value[i][i]][c]
        if n - len(_row_reduce(fq, value, n)) > 2 * (len(rho) - 1):
            raise RuntimeError("more than two invariant factors (at %s)" % (rho,))
    return i2


def gauss_solve(fq, rows, rhs):
    """Solve rows * x = rhs over F_q.

    Returns ("unique", x), ("many", x) with one witness, or ("none", None).
    """
    if not rows:
        return "many", ()
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _row_reduce(fq, aug, ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return "none", None
    x = [0] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row[ncols]
    return ("unique" if len(pivots) == ncols else "many"), tuple(x)


def nullspace(fq, rows):
    """Basis of the right null space of the matrix over F_q."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(row) for row in rows]
    pivots = _row_reduce(fq, mat, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [0] * ncols
            vec[fc] = 1
            for row, pc in zip(mat, pivots):
                vec[pc] = fq.neg_table[row[fc]]
            basis.append(tuple(vec))
    return basis


def _ore_columns_to_rows(tower, columns, rhs_poly, width):
    """Flatten Ore coefficient vectors into F_q rows (one per (tau-power,
    digit) pair) for a linear solve."""
    rows = []
    rhs = []
    n = tower.n
    for k in range(width):
        digs = []
        for col in columns:
            c = col.coeffs[k] if k < len(col.coeffs) else 0
            digs.append(tower.vector(c))
        r = rhs_poly.coeffs[k] if k < len(rhs_poly.coeffs) else 0
        rv = tower.vector(r)
        for t in range(n):
            rows.append([digs[j][t] for j in range(len(columns))])
            rhs.append(rv[t])
    return rows, rhs


def _t_powers_by_ore(mod, count):
    """[phi_T^0, ..., phi_T^(count-1)] as OrePoly products of mod.phi_t;
    the library keeps no powers, it runs Horner's rule (drinfeld.phi_into)."""
    phi_t = OrePoly(mod.tower, mod.phi_t)
    powers = [OrePoly.one(mod.tower)]
    while len(powers) < count:
        powers.append(powers[-1] * phi_t)
    return powers


def phi_by_ore(mod, a):
    """phi(a) for a in A, the sum of the a_k phi_T^k over the powers of
    _t_powers_by_ore."""
    acc = OrePoly.zero(mod.tower)
    for c, power in zip(a.coeffs, _t_powers_by_ore(mod, len(a.coeffs))):
        if c:
            acc = acc + power.scale_left(c)
    return acc


def _solve_frobenius_in_image(mod):
    """Look for a in A with phi(a) = tau^n by a linear solve over F_q in the
    coefficients of a, deg a <= n/2; only possible when n is even.

    Returns the witness polynomial or None.
    """
    n = mod.n
    if n % 2 != 0:
        return None
    tower = mod.tower
    half = n // 2
    columns = _t_powers_by_ore(mod, half + 1)
    rhs = frobenius(mod)
    rows, rhs_v = _ore_columns_to_rows(tower, columns, rhs, n + 1)
    status, sol = gauss_solve(tower.fq, rows, rhs_v)
    if status == "none":
        return None
    if status != "unique":
        raise RuntimeError("phi is not injective on the search space")
    return UPoly(tower.fq, sol)


def charpoly_by_solve(mod):
    """The Frobenius characteristic polynomial from the Ore coefficients of
    the annihilation identity

        tau^(2n) = sum_j trace_j * (phi(T^j) tau^n) - unit * phi(prime^m),

    which is F_q-linear in (trace, unit), by one exact linear solve over
    F_q.  When tau^n = phi(a) the identity does not pin the pair down; that
    case is detected first and the polynomial is (X - a)^2.
    """
    tower = mod.tower
    fq = tower.fq
    n = mod.n
    a = _solve_frobenius_in_image(mod)
    if a is not None:
        square = a * a
        return FrobeniusCharPoly(a + a, square.lc(), mod.prime, mod.m)
    tau_n = OrePoly.tau_power(tower, n)
    columns = [power * tau_n for power in _t_powers_by_ore(mod, mod.m * mod.d // 2 + 1)]
    columns.append(-phi_by_ore(mod, mod.prime.pow(mod.m)))
    rhs = OrePoly.tau_power(tower, 2 * n)
    rows, rhs_v = _ore_columns_to_rows(tower, columns, rhs, 2 * n + 1)
    status, sol = gauss_solve(fq, rows, rhs_v)
    assert status == "unique", "characteristic polynomial not unique"
    assert sol[-1] != 0, "vanishing norm unit"
    return FrobeniusCharPoly(UPoly(fq, sol[:-1]), sol[-1], mod.prime, mod.m)


def annihilation_residue_by_ore(mod, cp):
    """tau^(2n) - phi(trace) tau^n + phi(unit prime^m) as OrePoly objects,
    phi by phi_by_ore and unit prime^m recomputed from cp's fields.  The
    annihilation check before the library accumulated the residue in one
    coefficient list."""
    tw = mod.tower
    norm = cp.prime.pow(cp.ext_degree).scale(cp.unit)
    return (OrePoly.tau_power(tw, 2 * mod.n)
            - phi_by_ore(mod, cp.trace) * OrePoly.tau_power(tw, mod.n) + phi_by_ore(mod, norm))


def determinantal_divisors(mat):
    """gcd of all k x k minors for each k; the Smith-form oracle."""
    n = len(mat)
    out = []
    for k in range(1, n + 1):
        g = None
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                det = poly_mat_det(sub)
                if det:
                    g = det.monic() if g is None else g.gcd(det)
        out.append(g)  # None when every k-minor vanishes
    return out


def point_scan_structure(mod):
    """Determine the invariant factors of L as an A-module by brute force.

    Computes dim ker phi(a) for every monic a of degree <= n directly from
    the additive action on L, then finds the unique divisibility chain of
    monic factors whose gcd-degree profile matches.  Independent of the
    Smith-form pipeline.
    """
    tw = mod.tower
    fq = tw.fq
    n = tw.n
    cands = [UPoly(fq, t + (1,)) for d in range(1, n + 1)
             for t in itertools.product(range(fq.q), repeat=d)]
    profile = {}
    for a in cands:
        fa = OrePoly(tw, mod.phi(a))
        cols = [tw.vector(fa.apply(tw.q ** j)) for j in range(n)]
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        profile[a] = len(nullspace(fq, rows))
    matches = []
    for size in range(1, n + 1):
        for combo in itertools.combinations_with_replacement(cands, size):
            if sum(int(f.degree()) for f in combo) != n:
                continue
            chain = sorted(combo, key=lambda f: -int(f.degree()))
            if any(not (chain[j] % chain[j + 1]).is_zero()
                   for j in range(len(chain) - 1)):
                continue
            if all(profile[a] == sum(int(a.gcd(f).degree()) for f in combo)
                   for a in cands):
                matches.append(tuple(sorted(f.coeffs for f in combo)))
    assert len(set(matches)) == 1, "point-scan oracle is ambiguous"
    return matches[0]


# ---------------------------------------------------------------------------
# Torsion in splitting towers: the A-module structure of ker phi_I read off
# from a nullspace in an extension of L, a second route to the invariant
# factors and to plane_torsion_rational.


def monic_divisors(f, max_degree=None):
    """Monic divisors of f with 1 <= deg <= max_degree (default deg f)."""
    if f.is_zero():
        raise ValueError("divisors of 0")
    top = f.degree() if max_degree is None else min(max_degree, f.degree())
    out = []
    for d in range(1, top + 1):
        for g in monic_polys(f.fq, d):
            if (f % g).is_zero():
                out.append(g)
    return out


def right_gcd(f, g):
    """Monic generator of the left ideal of L{tau} generated by f and g."""
    a, b = f, g
    while b:
        a, b = b, a.right_divmod(b)[1]
    if not a:
        raise ValueError("right gcd of 0 and 0 is undefined")
    return a.monic()


def phi_ideal(mod, ideal):
    """Monic generator of the left ideal generated by the image of the
    ideal of A with monic generator `ideal`; A is a principal ideal domain
    so this is the monic normalization of phi of the generator."""
    ideal = ideal.monic()  # ValueError for the zero ideal
    if ideal.is_one():
        return OrePoly.one(mod.tower)
    return OrePoly(mod.tower, mod.phi(ideal)).monic()


def phi_ideal_two_generators(mod, a, b):
    """Same result computed from two generators of the ideal (a, b) by a
    right gcd; a cross-check of the principal-generator path."""
    return right_gcd(OrePoly(mod.tower, mod.phi(a)), OrePoly(mod.tower, mod.phi(b)))


def frobenius_witness(mod, cp):
    """The a in A with phi(a) = tau^n, or None; called when the
    discriminant of cp is 0.

    Such an a makes P = (X - a)^2, so 2a = trace and a^2 = unit*prime^m,
    which leave one candidate: a = trace/2 for q odd.  For q even,
    unit = (unit^(q/2))^2 and the separable prime is not a square, so
    unit*prime^m has the square root unit^(q/2) prime^(m/2) when m is
    even and none when m is odd.  The candidate is accepted only if
    phi(a) = tau^n.
    """
    fq = mod.tower.fq
    if fq.p != 2:
        a = cp.trace.scale(fq.inv(2))
    elif mod.m % 2 == 0:
        a = mod.prime.pow(mod.m // 2).scale(fq.pow(cp.unit, fq.q // 2))
    else:
        return None
    return a if OrePoly(mod.tower, mod.phi(a)) == frobenius(mod) else None


def charpoly_at(cp, a):
    """P(a) = a^2 - trace*a + unit*prime^m for a in A."""
    return a * a - cp.trace * a + cp.norm


def minimal_polynomial(mod):
    """The monic minimal polynomial of F = tau^n over the fraction field,
    as a list of A-coefficients, constant term first.

    Degree 1 exactly when tau^n lies in the image of phi; otherwise it is
    the characteristic polynomial.  In both cases it divides the
    characteristic polynomial.
    """
    cp = frobenius_charpoly(mod)
    fq = cp.trace.fq
    a = frobenius_witness(mod, cp) if cp.disc.is_zero() else None
    if a is not None:
        return [-a, UPoly.one(fq)]
    return [cp.norm, -cp.trace, UPoly.one(fq)]


def minimal_polynomial_annihilates(mod):
    """Exact check that M(F) = 0 in L{tau}, M the minimal polynomial."""
    acc = OrePoly.zero(mod.tower)
    for k, a in enumerate(minimal_polynomial(mod)):
        if not a.is_zero():
            acc = acc + OrePoly(mod.tower, mod.phi(a)) * OrePoly.tau_power(mod.tower, mod.n * k)
    return acc.is_zero()


def suborder_contained(mod, rho):
    """Whether the quadratic suborder of conductor rho lies in the
    endomorphism ring; by the order-containment equivalence this is the
    rational-plane-torsion test, which is how it is computed.

    Preconditions: mod ordinary, rho != prime, rho^2 | P(1), rho | trace-2.
    """
    if not mod.is_ordinary():
        raise ValueError("order containment is only meaningful for ordinary modules")
    cp = frobenius_charpoly(mod)
    fq = mod.tower.fq
    chi = cp.chi
    if not ((chi % (rho * rho)).is_zero()):
        raise ValueError("rho^2 must divide P(1)")
    two = UPoly.constant(fq, 2 % fq.p)
    if not (((cp.trace - two) % rho).is_zero()):
        raise ValueError("rho must divide trace - 2")
    return plane_torsion_rational(mod, rho)


class FieldEmbedding:
    """The canonical embedding of one tower's L into a larger tower's L.

    The image of the small tower's generator is the root of its defining
    polynomial whose coefficient vector is lexicographically smallest
    (compared low degree first), so the embedding is deterministic.
    """

    def __init__(self, small, big):
        if small.fq is not big.fq and small.fq != big.fq:
            raise ValueError("towers must share the same base field")
        if big.n % small.n != 0:
            raise ValueError("no embedding: %d does not divide %d" % (small.n, big.n))
        self.small = small
        self.big = big
        roots = []
        top = small.top_min_poly
        for x in big.elements():
            acc = 0
            for c in reversed(top):
                acc = big.add(big.mul(acc, x), c)
            if acc == 0:
                roots.append(x)
        if len(roots) != small.n:
            raise RuntimeError("expected %d roots, found %d" % (small.n, len(roots)))
        root = min(roots, key=big.vector)
        self.root = root
        table = [0] * small.order
        for v in range(small.order):
            acc = 0
            for c in reversed(small.vector(v)):
                acc = big.add(big.mul(acc, root), c)
            table[v] = acc
        self._table = table

    def map(self, value):
        return self._table[value]

    def ore(self, f):
        """f with its coefficients mapped into the big tower, so that
        .apply evaluates f on the big tower's L."""
        return OrePoly(self.big, [self._table[c] for c in f.coeffs])


class SplittingBoundError(SizeBoundError):
    """The splitting field of a torsion polynomial exceeds the search bound."""


@dataclass(frozen=True)
class TorsionStructure:
    """Invariant factors of the kernel of phi_I in a splitting extension."""

    ideal: UPoly  # monic generator
    invariant_factors: tuple
    root_count: int
    splitting_degree: int

    def factor_multiset(self):
        return tuple(sorted(f.coeffs for f in self.invariant_factors))


def torsion_structure(mod, ideal, max_splitting_degree=10):
    """Invariant factors of the kernel of phi_I over a splitting extension.

    Counts the roots of the additive polynomial phi_I in extensions L_e of
    L of increasing degree e until the separable kernel is complete, then
    reads off the A-module structure of the root space from the action of
    T on it.  Raises SplittingBoundError when no L_e with e <=
    max_splitting_degree and |L_e| <= MAX_FIELD_ORDER holds the kernel; at
    max_splitting_degree = 1 it returns exactly when the kernel lies in L.
    """
    ideal = ideal.monic()
    tw = mod.tower
    f = phi_ideal(mod, ideal)
    if f.degree() == 0:
        return TorsionStructure(ideal, (), 1, 1)
    want = f.degree() - f.height()  # F_q-dimension of the kernel
    if want == 0:
        # purely inseparable: the torsion module is trivial
        return TorsionStructure(ideal, (), 1, 1)
    fq = tw.fq
    for e in range(1, max_splitting_degree + 1):
        if tw.q ** (tw.n * e) > MAX_FIELD_ORDER:
            break
        big = build_tower(tw.p, tw.s, tw.n * e)
        emb = FieldEmbedding(tw, big)
        big_f, big_t = emb.ore(f), emb.ore(OrePoly(tw, mod.phi_t))
        dim = big.n
        basis = [big.q ** j for j in range(dim)]
        cols = [big.vector(big_f.apply(b)) for b in basis]
        rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
        null = nullspace(fq, rows)
        if len(null) < want:
            continue
        if len(null) > want:
            raise RuntimeError("kernel larger than the separable degree")
        kernel = [big.from_vector(v) for v in null]
        # matrix of T acting on the kernel, in the nullspace basis
        kcols = [list(v) for v in null]
        kmat_rows = [[kcols[j][i] for j in range(len(null))] for i in range(dim)]
        tmat = []
        for v in kernel:
            img = big_t.apply(v)
            status, coords = gauss_solve(fq, kmat_rows, list(big.vector(img)))
            if status == "none":
                raise RuntimeError("kernel is not stable under T")
            tmat.append(coords)
        # columns of the action matrix are the coordinate vectors
        k = len(null)
        act = [[tmat[j][i] for j in range(k)] for i in range(k)]
        chi, i1 = matrix_char_and_min_poly(fq, act)
        i2 = matrix_second_invariant_factor(fq, act, chi, i1)
        factors = tuple(_wrap(fq, g) for g in (i2, i1) if len(g) > 1)
        return TorsionStructure(ideal, factors, tw.q ** len(null), e)
    raise SplittingBoundError(
        "splitting field of (%s)-torsion not found within degree %d"
        % (ideal, max_splitting_degree))


def twist_orbits_by_sweep(tower):
    """Orbits of L x L^* under (g, delta) -> (u^(q-1) g, u^(q^2-1) delta)
    by marking every pair: (rep, members, aut_count) with rep the
    lexicographically least pair, members sorted, and aut_count the
    stabilizer size.  The scan order makes the first-seen pair of each
    orbit its representative.  O(|L|^2) time and memory.
    """
    q = tower.q
    order = tower.order
    pairs = sorted({(tower.pow(u, q - 1), tower.pow(u, q * q - 1))
                    for u in tower.units()})
    seen = bytearray(order * order)
    orbits = []
    for g in range(order):
        for delta in range(1, order):
            if seen[g * order + delta]:
                continue
            members = sorted({(tower.mul(a, g), tower.mul(b, delta)) for a, b in pairs})
            for gg, dd in members:
                seen[gg * order + dd] = 1
            orbits.append(((g, delta), members, (order - 1) // len(members)))
    return orbits


def census_heads_without_descent(tower, prime):
    """The census's per-sigma-orbit results without Galois descent: every
    twist orbit is classified as a head of its own, so no result is
    carried from another orbit by x -> x^(q^d); one (found, members_ok)
    per twist orbit, in their order."""
    return [_process_orbit(tower, prime, [orbit], False, {}) for orbit in twist_orbits(tower)]


def candidate_isogeny_keys_by_scan(tower, prime, m, i1, i2):
    """All (trace, unit) with deg trace <= m*d/2, unit != 0, prime not
    dividing trace, monic(1 - trace + unit*prime^m) = monic(i1*i2) and
    i2 | trace - 2, in lexicographic order of (trace coefficients, unit):
    a scan of the whole Hasse box, q^(m*d/2 + 1) (q - 1) pairs."""
    fq = tower.fq
    target = (i1 * i2).monic()
    pm = prime.pow(m)
    bound = (m * prime.degree()) // 2
    two = UPoly.constant(fq, 2 % fq.p)
    out = []
    for coeffs in itertools.product(range(fq.q), repeat=bound + 1):
        trace = UPoly(fq, coeffs)
        for unit in fq.units():
            val = UPoly.one(fq) - trace + pm.scale(unit)
            if val.is_zero() or val.monic() != target:
                continue
            if (trace % prime).is_zero():
                continue  # supersingular class
            if not ((trace - two) % i2).is_zero():
                continue
            out.append((trace, unit))
    return out


def realize_by_scan(tower, prime, m, i1, i2):
    """realize_structure by classifying every (g, delta) in L x L^*: the
    first module, in lexicographic (trace, unit) order of the candidate
    isogeny classes and then lexicographic (g, delta) order, whose
    invariant factors are (i1, i2); NotRealizable with the library's
    reasons otherwise."""
    if not (i1.is_monic() and i2.is_monic()):
        return NotRealizable("invariant factors must be monic")
    if i1.degree() + i2.degree() != tower.n:
        return NotRealizable("degree: deg(i1) + deg(i2) must equal n")
    if not (i1 % i2).is_zero():
        return NotRealizable("divisibility: i2 must divide i1")
    candidates = candidate_isogeny_keys_by_scan(tower, prime, m, i1, i2)
    if not candidates:
        return NotRealizable(
            "no ordinary isogeny class matches (needs P(1) = i1*i2 up to a "
            "unit and i2 | trace - 2)")
    by_class = {}
    for g in tower.elements():
        for delta in tower.units():
            mod = DrinfeldModule(tower, prime, g, delta)
            cp = frobenius_charpoly(mod)
            by_class.setdefault((cp.trace.coeffs, cp.unit), []).append(mod)
    for trace, unit in candidates:
        for mod in by_class.get((trace.coeffs, unit), ()):
            inv = module_structure(mod)
            if (inv.i1, inv.i2) == (i1, i2):
                return mod
    return NotRealizable("no witness found in any matching isogeny class")


class StabilizationError(RuntimeError):
    """The class partition did not stabilize within the multiplier cap."""


def proper_ideal_representatives(disc):
    """Primitive (proper) ideals (a, b + w) of the order A + A*w, w^2 = disc,
    with a monic of degree at most deg(disc)/2 + 1 and deg b < deg a; every
    ideal class of the order contains one of these."""
    fq = disc.fq
    if not is_imaginary(disc):
        raise ValueError("%s is not an imaginary discriminant" % disc)
    bound = disc.degree() // 2 + 1
    out = [(UPoly.one(fq), UPoly.zero(fq))]
    for da in range(1, bound + 1):
        for a in monic_polys(fq, da):
            for bt in itertools.product(range(fq.q), repeat=da):
                b = UPoly(fq, bt)
                num = b * b - disc
                quo, rem = divmod(num, a)
                if not rem.is_zero():
                    continue
                # properness: the form (a, 2b, (b^2 - D)/a) must be primitive
                content = a
                for other in (b + b, quo):
                    if not content.is_one() and other:
                        content = content.gcd(other)
                if not content.is_one():
                    continue
                out.append((a, b))
    return out


def _multiplier_pairs(fq, disc_deg, norm_degree_bound):
    """Coefficient tuples (x, y) for the nonzero multipliers x + y*w with
    deg(x^2 - y^2 disc) <= norm_degree_bound, up to F_q^* scaling.

    The discriminant is imaginary, so the halves of the norm cannot
    cancel and the bound splits into independent bounds on x and y; the
    scaling normalization fixes the leading coefficient of y (or of x
    when y = 0) to 1.
    """
    max_x = norm_degree_bound // 2
    max_y = ((norm_degree_bound - disc_deg) // 2
             if norm_degree_bound >= disc_deg else -1)

    def polys_up_to(maxdeg, monic_only):
        out = []
        for k in range(maxdeg + 1):
            lead = (1,) if monic_only else tuple(range(1, fq.q))
            for tail in itertools.product(range(fq.q), repeat=k):
                for lc in lead:
                    out.append(tail + (lc,))
        return out

    pairs = []
    if max_x >= 0:
        for x in polys_up_to(max_x, True):
            pairs.append((x, ()))
    if max_y >= 0:
        ys = polys_up_to(max_y, True)
        xs = [()] if max_x < 0 else [()] + polys_up_to(max_x, False)
        for y in ys:
            for x in xs:
                pairs.append((x, y))
    return pairs


def _partition(ideal_tuples, disc_t, fq, norm_degree_bound):
    """Union-find partition of the ideals: two merge when some bounded
    multiples coincide as lattices.  Lattices are compared by their Hermite
    normal form, computed on raw coefficient tuples through the field's
    PolyKernel."""
    kernel = fq.kernel
    tadd, tsub, tmul, tdivmod = kernel.add, kernel.sub, kernel.mul, kernel.divmod
    tmonic, tscale = kernel.monic, kernel.scale
    inv_t = fq.inv_table

    def canon(x1, y1, x2, y2):
        while y2:
            q, y1 = tdivmod(y1, y2)
            x1 = tsub(x1, tmul(q, x2))
            x1, y1, x2, y2 = x2, y2, x1, y1
        f = tmonic(x2)
        e, c = x1, y1
        if c[-1] != 1:
            e = tscale(e, inv_t[c[-1]])
            c = tmonic(c)
        e = tdivmod(e, f)[1]
        return (f, e, c)

    parent = list(range(len(ideal_tuples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    multipliers = _multiplier_pairs(fq, len(disc_t) - 1, norm_degree_bound)
    parts = {x for x, _ in multipliers} | {y for _, y in multipliers}
    times_disc = {y: tmul(y, disc_t) for _, y in multipliers}
    seen = {}
    for idx, (a, b) in enumerate(ideal_tuples):
        times_a = {x: tmul(x, a) for x in parts}
        times_b = {x: tmul(x, b) for x in parts}
        for x, y in multipliers:
            # (x + y w) * a  and  (x + y w)(b + w), with w^2 = disc
            key = canon(times_a[x], times_a[y], tadd(times_b[x], times_disc[y]),
                        tadd(x, times_b[y]))
            prev = seen.get(key)
            if prev is None:
                seen[key] = idx
            else:
                ri, rj = find(prev), find(idx)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(ideal_tuples)):
        groups.setdefault(find(i), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def class_number_by_enumeration(disc, max_norm_degree=24):
    """Class number of the order of discriminant disc (q odd) by brute force:
    the proper ideals are listed as lattices, two are merged when bounded
    multiples of them coincide, and the multiplier bound starts at
    deg(disc) + 2 and doubles until two consecutive partitions agree.  A
    larger bound only merges classes, so a single class is final at once.
    Raises StabilizationError when the bound would pass max_norm_degree.
    """
    fq = disc.fq
    if fq.p == 2:
        raise ValueError("class numbers require odd q")
    ideal_tuples = [(a.coeffs, b.coeffs) for a, b in proper_ideal_representatives(disc)]
    bound = disc.degree() + 2
    part = _partition(ideal_tuples, disc.coeffs, fq, bound)
    while len(part) > 1:
        nxt = 2 * bound
        if nxt > max_norm_degree:
            raise StabilizationError(
                "class partition for %s did not stabilize by bound %d" % (disc, bound))
        part2 = _partition(ideal_tuples, disc.coeffs, fq, nxt)
        if part2 == part:
            break
        part, bound = part2, nxt
    return len(part)


def l_polynomial_problems(genus, coeffs, q):
    """What keeps [a_0, ..., a_2g] from being the L-polynomial of a function
    field of genus g over F_q; an empty list when nothing does.  Weil's
    theorem gives L(t) = prod (1 - alpha_i t) over 2g inverse roots with
    |alpha_i| = sqrt(q), closed under alpha -> q/alpha, so a_0 = 1,
    a_{2g-i} = q^(g-i) a_i and |a_i| <= C(2g, i) q^(i/2); and L(1) is the
    order of the divisor class group of degree 0, so L(1) >= 1."""
    if len(coeffs) != 2 * genus + 1:
        return ["%d coefficients for genus %d" % (len(coeffs), genus)]
    problems = []
    if coeffs[0] != 1:
        problems.append("a_0 = %d" % coeffs[0])
    for i, a in enumerate(coeffs):
        if i < genus and coeffs[2 * genus - i] != q ** (genus - i) * a:
            problems.append("a_%d != q^%d a_%d" % (2 * genus - i, genus - i, i))
        if a * a > comb(2 * genus, i) ** 2 * q ** i:
            problems.append("|a_%d| = %d exceeds the Weil bound" % (i, abs(a)))
    if sum(coeffs) < 1:
        problems.append("L(1) = %d" % sum(coeffs))
    return problems
