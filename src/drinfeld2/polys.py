"""Univariate polynomials over F_q: the ring A = F_q[T].

Coefficients are stored low degree first with no trailing zeros, so the
zero polynomial has an empty coefficient tuple and degree() returns -1.
The arithmetic is that of the field's PolyKernel.
"""

import re

from .fields import MAX_DEGREE, SizeBoundError


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
        """The constant c, an int in [0, q) as F_q numbers its elements;
        raises ValueError for anything else, bool included."""
        if type(c) is bool or not isinstance(c, int) or not 0 <= c < fq.q:
            raise ValueError("constant %r out of range for F_%d" % (c, fq.q))
        return cls(fq, (c,))

    # -- basic queries --------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

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
        raise ValueError("cannot combine UPoly with %r" % (other,))

    def __add__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.add(self.coeffs, other.coeffs))

    def __neg__(self):
        return _wrap(self.fq, self.fq.kernel.neg(self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        return _wrap(self.fq, self.fq.kernel.mul(self.coeffs, other.coeffs))

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
        g = self.fq.kernel.gcd(self.coeffs, self._check(other).coeffs)
        if not g:
            raise ValueError("gcd(0, 0) is undefined")
        return _wrap(self.fq, g)

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

    # -- evaluation -----------------------------------------------------------

    def eval_in_tower(self, tower, x):
        """Evaluate at x in L (coefficients embed as the ints below q); L
        must be a tower over the field of the coefficients."""
        if not (tower.fq is self.fq or tower.fq == self.fq):
            raise ValueError("the tower is not over the field of the polynomial")
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

    _TERM_RE = re.compile(r"^(\d+)?\s*(\*)?\s*(T(\^(\d+))?)?$", re.ASCII)

    @classmethod
    def parse(cls, fq, text):
        """Parse 'c_k*T^k+...+c_0', each c an int in [0, q) as F_q numbers
        its elements, or its negation '-c'; raises ValueError for c >= q."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        total = cls.zero(fq)
        for raw in s.split("+"):
            if not raw:
                raise ValueError("malformed polynomial string: %r" % text)
            negate = raw.startswith("-")
            if negate:
                raw = raw[1:]
            mt = cls._TERM_RE.match(raw)
            # a coefficient, a power of T or both, with '*' only between two
            if not mt or (mt.group(1) is None and mt.group(3) is None) or (
                    mt.group(2) and None in (mt.group(1), mt.group(3))):
                # quote the text as written: the '-' rewrite may have split a term
                raise ValueError("malformed polynomial term in %r" % text)
            c = int(mt.group(1)) if mt.group(1) is not None else 1
            if mt.group(3) is None:
                k = 0
            elif mt.group(5) is not None:
                k = int(mt.group(5))
            else:
                k = 1
            if k > MAX_DEGREE:
                raise SizeBoundError("degree %d exceeds the largest usable degree %d"
                                     % (k, MAX_DEGREE))
            term = cls(fq, [0] * k + [c])  # ValueError unless c < q
            total = total - term if negate else total + term
        return total


def _wrap(fq, coeffs):
    """A UPoly around a kernel result, which is trimmed and holds field
    elements, so the constructor's checks are skipped."""
    f = object.__new__(UPoly)
    f.fq = fq
    f.coeffs = coeffs
    return f


class _Value:
    """A value named by the attributes in _fields: equality and hashing
    compare them, repr prints them as keywords, and pickling and copying
    call the constructor on them.  It is immutable, so subclasses set
    their slots with object.__setattr__ in __init__.  The dataclasses
    module is not used: importing it would cost nearly as much as the rest
    of `import drinfeld2`."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values()


def monic_polys(fq, degree):
    """All monic polynomials of the given degree, in lexicographic order
    of their coefficient vectors read low degree first."""
    for f in fq.kernel.monics(degree):
        yield _wrap(fq, f)


def enumerate_monic_irreducibles(fq, degree):
    """The monic irreducibles of the given degree over F_q, in
    lexicographic order (low-degree coefficients compared first)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return [_wrap(fq, f) for f in fq.kernel.irreducibles(degree)]


def irreducible_divisors(f):
    """Monic irreducible divisors of f != 0, by degree."""
    if f.is_zero():
        raise ValueError("divisors of 0")
    return [_wrap(f.fq, g) for g in f.fq.kernel.irreducible_divisors(f.coeffs)]


_EMBED_CACHE = {}


def residue_root(tower, prime):
    """The root of the monic irreducible `prime` in L with lexicographically
    smallest coefficient vector, as an element of L (an int); this is the
    canonical value of T under the structure map A -> L with kernel
    (prime).  Requires deg(prime) to divide n.  Memoized, so each prime is
    checked once."""
    if not isinstance(prime, UPoly) or (prime.fq is not tower.fq and prime.fq != tower.fq):
        raise ValueError("prime must be a polynomial over the tower's base field")
    key = (tower.p, tower.s, tower.n, prime.coeffs)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        return hit
    if not prime.is_monic():
        raise ValueError("prime must be monic")
    if not prime.is_irreducible():
        raise ValueError("%s is reducible" % prime)
    d = prime.degree()
    if tower.n % d != 0:
        raise ValueError(
            "residue field of degree %d does not embed in an extension of degree %d"
            % (d, tower.n))
    # the roots lie in F_{q^d}: 0 and the powers of g^((q^n - 1)/(q^d - 1))
    units = tower.q ** d - 1
    subfield = [0] + tower._exp[:tower.order - 1:(tower.order - 1) // units]
    roots = [x for x in subfield if prime.eval_in_tower(tower, x) == 0]
    if len(roots) != d:
        raise RuntimeError("expected %d roots of %s, found %d" % (d, prime, len(roots)))
    value = min(roots, key=tower.vector)
    _EMBED_CACHE[key] = value
    return value
