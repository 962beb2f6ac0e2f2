"""The twisted polynomial ring L{t} with the commutation rule t*c = c^q*t.

Elements act on any extension of L as F_q-linear (additive) polynomials
x -> sum c_k x^(q^k).  The ring has a right division algorithm, hence
right gcds; only the right-sided theory is implemented because nothing
here needs left gcds or lcms.
"""

from .fields import FieldElement


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

    def constant_coeff(self):
        return self.coeffs[0] if self.coeffs else 0

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
        tw = self.tower
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = tw.add(out[i], v)
        return OrePoly(tw, out)

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
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        k = i + j
                        out[k] = tw.add(out[k], tw.mul(x, tw.frob(y, i)))
        return OrePoly(tw, out)

    def scale_left(self, c):
        """Left-multiply by the constant c in L."""
        if c == 0:
            return OrePoly.zero(self.tower)
        tw = self.tower
        return OrePoly(tw, [tw.mul(c, v) for v in self.coeffs])

    def monic(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no monic normalization")
        if self.coeffs[-1] == 1:
            return self
        return self.scale_left(self.tower.inv(self.coeffs[-1]))

    def shift(self, k):
        """Multiply by tau^k on the right (coefficients are unchanged)."""
        if not self.coeffs:
            return self
        return OrePoly(self.tower, (0,) * k + self.coeffs)

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
        while len(r) - 1 >= dg and r:
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - 1 - dg
            # leading coefficient of (c*tau^k) * other is c * lc(other)^(q^k)
            coef = tw.mul(r[-1], tw.frob(inv_lc, k))
            quot[k] = coef
            for i in range(dg + 1):
                gi = g[i]
                if gi:
                    r[k + i] = tw.sub(r[k + i], tw.mul(coef, tw.frob(gi, k)))
            while r and r[-1] == 0:
                r.pop()
        return OrePoly(tw, quot), OrePoly(tw, r)

    def right_mod(self, other):
        return self.right_divmod(other)[1]

    def right_divides(self, other):
        """True if other = q*self for some q."""
        return other.right_divmod(self)[1].is_zero()

    def right_gcd(self, other):
        """Monic generator of the left ideal generated by self and other."""
        other = self._check(other)
        a, b = self, other
        while b:
            a, b = b, a.right_divmod(b)[1]
        if not a:
            raise ValueError("right gcd of 0 and 0 is undefined")
        return a.monic()

    def height(self):
        """Least k with a nonzero tau^k coefficient; 0 iff separable."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no height")
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise AssertionError("unreachable")

    def is_separable(self):
        return bool(self.coeffs) and self.coeffs[0] != 0

    def apply(self, x, embedding=None):
        """Evaluate the additive polynomial sum c_k x^(q^k) at x.

        x lives in self.tower, or in embedding.big when an embedding from
        self.tower is supplied.  Accepts a FieldElement or a raw int and
        returns the same kind.
        """
        wrap = isinstance(x, FieldElement)
        xv = x.value if wrap else x
        tw = self.tower if embedding is None else embedding.big
        acc = 0
        for k, c in enumerate(self.coeffs):
            if c:
                cc = c if embedding is None else embedding.map(c)
                acc = tw.add(acc, tw.mul(cc, tw.frob(xv, k)))
        return FieldElement(tw, acc) if wrap else acc

    __call__ = apply

    def __str__(self):
        if not self.coeffs:
            return "0"
        tw = self.tower
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            cs = "[%s]" % ",".join(str(d) for d in tw.vector(c))
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append("%s*t" % cs)
            else:
                terms.append("%s*t^%d" % (cs, k))
        return " + ".join(terms)

    def __repr__(self):
        return "OrePoly(%r, %s)" % (self.tower, self)
