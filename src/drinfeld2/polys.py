"""Univariate polynomials over F_q: the ring A = F_q[T] and its monic ideals.

Coefficients are stored low degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree() returns -1.
The arithmetic is that of the field's PolyKernel.  Ideals of A are
represented by their monic generator.
"""

import re

from .fields import MAX_DEGREE, FieldElement, SizeBoundError


class UPoly:
    """Element of A = F_q[T]."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for v in c:
            if not 0 <= v < fq.q:
                raise ValueError("coefficient %r out of range for F_%d" % (v, fq.q))
        self.fq = fq
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, fq):
        return cls(fq, ())

    @classmethod
    def one(cls, fq):
        return cls(fq, (1,))

    @classmethod
    def gen(cls, fq):
        """The polynomial T."""
        return cls(fq, (0, 1))

    @classmethod
    def constant(cls, fq, c):
        return cls(fq, (c % fq.q,) if isinstance(c, int) else (c,))

    # -- basic queries --------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.fq == other.fq
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.fq, self.coeffs))

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if type(other) is UPoly:
            if other.fq is self.fq or other.fq == self.fq:
                return other
            raise ValueError("operands live over different fields")
        if isinstance(other, int):
            return UPoly.constant(self.fq, other)
        raise ValueError("cannot combine UPoly with %r" % (other,))

    def __add__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.fq, self.fq.kernel.neg(self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by the scalar c in F_q."""
        return _wrap(self.fq, self.fq.kernel.scale(self.coeffs, c))

    def __divmod__(self, other):
        other = self._check(other)
        quot, rem = self.fq.kernel.divmod(self.coeffs, other.coeffs)
        return _wrap(self.fq, quot), _wrap(self.fq, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """True if self divides other (self nonzero)."""
        return (other % self).is_zero()

    def gcd(self, other):
        """Monic greatest common divisor."""
        other = self._check(other)
        a, b = self, other
        while b:
            a, b = b, a % b
        if not a:
            raise ValueError("gcd(0, 0) is undefined")
        return a.monic()

    def monic(self):
        """The monic normalization u*f with u in F_q^*."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no monic normalization")
        if self.coeffs[-1] == 1:
            return self
        return _wrap(self.fq, self.fq.kernel.monic(self.coeffs))

    def pow(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        r = UPoly.one(self.fq)
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def shift(self, k):
        """Multiply by T^k."""
        if not self.coeffs:
            return self
        return _wrap(self.fq, (0,) * k + self.coeffs)

    # -- evaluation -----------------------------------------------------------

    def eval_fq(self, x):
        """Evaluate at x in F_q."""
        fq = self.fq
        acc = 0
        for c in reversed(self.coeffs):
            acc = fq.add(fq.mul(acc, x), c)
        return acc

    def eval_in_tower(self, tower, x):
        """Evaluate at x in L (coefficients embed as the ints below q)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = tower.add(tower.mul(acc, x), c)
        return acc

    def is_irreducible(self):
        return self.fq.kernel.is_irreducible(self.coeffs)

    # -- text form ------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("T" if c == 1 else "%d*T" % c)
            else:
                terms.append("T^%d" % k if c == 1 else "%d*T^%d" % (c, k))
        return "+".join(terms)

    def __repr__(self):
        return "UPoly(F_%d, %s)" % (self.fq.q, self)

    _TERM_RE = re.compile(r"^(\d+)?\s*\*?\s*(T(\^(\d+))?)?$")

    @classmethod
    def parse(cls, fq, text):
        """Parse 'c_k*T^k+...+c_0' (coefficients are integers, reduced mod q)."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        coeffs = {}
        for raw in s.split("+"):
            if not raw:
                raise ValueError("malformed polynomial string: %r" % text)
            negate = raw.startswith("-")
            if negate:
                raw = raw[1:]
            mt = cls._TERM_RE.match(raw)
            if not mt or (mt.group(1) is None and mt.group(2) is None):
                raise ValueError("malformed polynomial term: %r" % raw)
            cnum = int(mt.group(1)) if mt.group(1) is not None else 1
            if mt.group(2) is None:
                k = 0
            elif mt.group(4) is not None:
                k = int(mt.group(4))
            else:
                k = 1
            if k > MAX_DEGREE:
                raise SizeBoundError("degree %d exceeds the largest usable degree %d"
                                     % (k, MAX_DEGREE))
            c = cnum % fq.q
            if negate:
                c = fq.neg_table[c]
            coeffs[k] = fq.add(coeffs.get(k, 0), c)
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(fq, out)


def _wrap(fq, coeffs):
    """A UPoly around a kernel result, which is trimmed and holds field
    elements, so the constructor's checks are skipped."""
    f = object.__new__(UPoly)
    f.fq = fq
    f.coeffs = coeffs
    return f


def monic_polys(fq, degree):
    """All monic polynomials of the given degree, in lexicographic order
    of their coefficient vectors read low degree first."""
    for f in fq.kernel.monics(degree):
        yield _wrap(fq, f)


def enumerate_monic_irreducibles(field, degree):
    """The monic irreducibles of the given degree over F_q, in
    lexicographic order (low-degree coefficients compared first).

    Accepts either an Fq or a FieldTower (its base field is used).
    """
    fq = getattr(field, "fq", field)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return [_wrap(fq, f) for f in fq.kernel.irreducibles(degree)]


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


def irreducible_divisors(f):
    """Monic irreducible divisors of f (f nonzero, not constant-free)."""
    return [g for g in monic_divisors(f) if g.is_irreducible()]


class MonicIdeal:
    """A nonzero ideal of A, represented by its monic generator."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        if gen.is_zero():
            raise ValueError("the zero ideal is not representable")
        self.gen = gen.monic()

    @classmethod
    def unit(cls, fq):
        return cls(UPoly.one(fq))

    def is_unit(self):
        return self.gen.is_one()

    def degree(self):
        return self.gen.degree()

    def __mul__(self, other):
        return MonicIdeal(self.gen * other.gen)

    def divides(self, other):
        return (other.gen % self.gen).is_zero()

    def gcd(self, other):
        return MonicIdeal(self.gen.gcd(other.gen))

    def __eq__(self, other):
        return isinstance(other, MonicIdeal) and self.gen == other.gen

    def __hash__(self):
        return hash((MonicIdeal, self.gen))

    def __str__(self):
        return "(%s)" % self.gen

    __repr__ = __str__


_EMBED_CACHE = {}


def embed_residue_field(tower, prime):
    """The root of the monic irreducible `prime` in L with lexicographically
    smallest coefficient vector; this is the canonical value of T under the
    structure map A -> L with kernel (prime).

    Requires deg(prime) to divide n.  Returns a FieldElement.
    """
    key = (tower.p, tower.s, tower.n, prime.coeffs)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        return FieldElement(tower, hit)
    if not isinstance(prime, UPoly) or prime.fq != tower.fq:
        raise ValueError("prime must be a polynomial over the tower's base field")
    if not prime.is_monic():
        raise ValueError("prime must be monic")
    if not prime.is_irreducible():
        raise ValueError("%s is reducible" % prime)
    d = prime.degree()
    if tower.n % d != 0:
        raise ValueError(
            "residue field of degree %d does not embed in an extension of degree %d"
            % (d, tower.n))
    roots = [x for x in tower.elements() if prime.eval_in_tower(tower, x) == 0]
    if len(roots) != d:
        raise RuntimeError("expected %d roots of %s, found %d" % (d, prime, len(roots)))
    value = min(roots, key=tower.vector)
    _EMBED_CACHE[key] = value
    return FieldElement(tower, value)
