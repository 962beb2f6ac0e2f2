"""The twisted polynomial ring L{t} with the commutation rule t*c = c^q*t.

Elements act on any extension of L as F_q-linear (additive) polynomials
x -> sum c_k x^(q^k); apply evaluates them on L.  The ring has a right
division algorithm; only the right-sided theory is implemented because
nothing here needs left division.
"""


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
