"""Exact arithmetic for F_q (q = p^s) and its extension L = F_{q^n}.

Construction is deterministic: every extension is cut out by the
lexicographically smallest monic irreducible of the right degree, where
coefficient vectors are compared constant term first.  Two towers built
from the same (p, s, n) are therefore identical, and the one built by
:func:`build_tower` is additionally cached and shared.

Elements are plain ints.  An F_q element is the base-p digit encoding of
its coefficient vector over F_p; an element of L is the base-q digit
encoding of its coefficient vector over F_q.  In particular F_q sits
inside L as the ints below q.  Towers precompute discrete-log and
Frobenius tables, so field operations are table lookups; values are
immutable and safe to share across worker processes.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

# Largest |L| for which tables are built.  Census code imposes its own,
# smaller limit; this one only has to accommodate the splitting-field
# towers used for torsion computations (and must allow at least 5^4).
MAX_FIELD_ORDER = 8192

# Largest base field F_q; keeps the q x q tables small.
MAX_BASE_ORDER = 128

# Largest degree of any field over F_p that the bounds admit (2^13 = 8192),
# and so of any polynomial the library reads as input.
MAX_DEGREE = MAX_FIELD_ORDER.bit_length() - 1


class SizeBoundError(ValueError):
    """Requested object exceeds the documented enumeration bounds."""


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


PolyKernel = namedtuple(
    "PolyKernel", "add sub neg mul divmod scale monic monics irreducibles is_irreducible")
PolyKernel.__doc__ = """Arithmetic on polynomials over one F_q, as coefficient tuples.

Tuples hold field elements low degree first, with no trailing zeros, so
the zero polynomial is ().  The factors of mul and the dividend of divmod
may also carry trailing zeros, as digit vectors do.
"""


def _poly_kernel(fq):
    """The PolyKernel of fq, over its add, neg, mul and inverse tables.

    Every polynomial over F_q in the library, from the moduli that build
    the field tables to UPoly and the class-number search, is computed
    here.  Monic polynomials are listed with the constant coefficient
    varying slowest: lexicographic order on coefficient vectors read low
    degree first.
    """
    q = fq.q
    add_t, neg_t, mul_t, inv_t = fq.add_table, fq.neg_table, fq.mul_table, fq.inv_table

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = add_t[out[i]][v]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def sub(a, b):
        out = list(a)
        if len(out) < len(b):
            out += [0] * (len(b) - len(out))
        for i, v in enumerate(b):
            out[i] = add_t[out[i]][neg_t[v]]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def neg(a):
        return tuple([neg_t[v] for v in a])

    def mul(a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul_t[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add_t[out[i + j]][row[y]]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def divmod_(a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        to_coef = mul_t[inv_t[b[-1]]]
        r = list(a)
        quot = [0] * max(0, len(r) - db)
        while len(r) > db:
            lead = r.pop()
            if lead:
                # subtract coef * T^k * b; its top term cancels the popped one
                k = len(r) - db
                coef = to_coef[lead]
                quot[k] = coef
                row = mul_t[neg_t[coef]]
                for i in range(db):
                    bi = b[i]
                    if bi:
                        r[k + i] = add_t[r[k + i]][row[bi]]
        while r and r[-1] == 0:
            r.pop()
        while quot and quot[-1] == 0:
            quot.pop()
        return tuple(quot), tuple(r)

    def scale(a, c):
        if not c:
            return ()
        row = mul_t[c]
        return tuple([row[v] for v in a])

    def monic(a):
        if a[-1] == 1:
            return a
        return scale(a, inv_t[a[-1]])

    def monics(degree):
        for tail in itertools.product(range(q), repeat=degree):
            yield tail + (1,)

    irreducible = {}

    def is_irreducible(f):
        """Trial division by every monic polynomial of degree <= deg(f)/2."""
        hit = irreducible.get(f)
        if hit is None:
            hit = len(f) > 1 and all(
                divmod_(f, g)[1] for e in range(1, (len(f) - 1) // 2 + 1) for g in monics(e))
            irreducible[f] = hit
        return hit

    def irreducibles(degree):
        return (f for f in monics(degree) if is_irreducible(f))

    return PolyKernel(add, sub, neg, mul, divmod_, scale, monic, monics, irreducibles,
                      is_irreducible)


class Fq:
    """The field F_q, q = p^s, with full arithmetic tables."""

    def __init__(self, p, s):
        if s < 1:
            raise ValueError("extension degree s must be >= 1")
        # compare before the power and the primality test, which are slow
        # for huge inputs
        if p > MAX_BASE_ORDER or s > MAX_DEGREE or p ** s > MAX_BASE_ORDER:
            raise SizeBoundError("base field order %d^%d exceeds %d" % (p, s, MAX_BASE_ORDER))
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        q = p ** s
        self.p = p
        self.s = s
        self.q = q

        digits = [self._int_to_vec(v) for v in range(q)]
        self._digits = digits

        add = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                db = digits[b]
                v = 0
                for i in range(s - 1, -1, -1):
                    v = v * p + (da[i] + db[i]) % p
                add[a][b] = v
                add[b][a] = v
        self.add_table = add
        self.neg_table = [self._vec_to_int([(-d) % p for d in digits[a]]) for a in range(q)]

        if s == 1:
            self.min_poly = (0, 1)  # the polynomial x
            mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            base = _build_fq(p, 1).kernel
            self.min_poly = next(base.irreducibles(s))
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                for b in range(a, q):
                    prod = base.mul(digits[a], digits[b])
                    v = self._vec_to_int(base.divmod(prod, self.min_poly)[1])
                    mul[a][b] = v
                    mul[b][a] = v
        self.mul_table = mul

        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self.inv_table = inv
        self.kernel = _poly_kernel(self)

    def _int_to_vec(self, v):
        out = []
        for _ in range(self.s):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _vec_to_int(self, vec):
        v = 0
        for d in reversed(vec):
            v = v * self.p + d
        return v

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a):
        return self.neg_table[a]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
        return self.inv_table[a]

    def pow(self, a, e):
        if e == 0:
            return 1
        if a == 0:
            return 0
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul_table[r][base]
            base = self.mul_table[base][base]
            e >>= 1
        return r

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def is_square(self, a):
        if a == 0:
            return True
        if self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.s) == (other.p, other.s)

    def __reduce__(self):
        # the kernel's closures cannot be pickled; unpickling rebuilds the field
        return _build_fq, (self.p, self.s)

    def __hash__(self):
        return hash((Fq, self.p, self.s))

    def __repr__(self):
        return "Fq(p=%d, s=%d)" % (self.p, self.s)


@lru_cache(maxsize=None)
def _build_fq(p, s):
    return Fq(p, s)


class FieldTower:
    """F_q together with L = F_{q^n} and the q-power Frobenius."""

    def __init__(self, fq, n):
        if n < 1:
            raise ValueError("top extension degree must be >= 1")
        if n > MAX_DEGREE or fq.q ** n > MAX_FIELD_ORDER:
            raise SizeBoundError("field order %d^%d exceeds the supported bound %d"
                                 % (fq.q, n, MAX_FIELD_ORDER))
        order = fq.q ** n
        self.fq = fq
        self.p = fq.p
        self.s = fq.s
        self.q = fq.q
        self.n = n
        self.order = order

        self.top_min_poly = next(fq.kernel.irreducibles(n))

        q = fq.q
        digits = []
        for v in range(order):
            vec = []
            x = v
            for _ in range(n):
                vec.append(x % q)
                x //= q
            digits.append(tuple(vec))
        self._digits = digits

        self._addtab = None
        if order <= 256:
            addq = fq.add_table
            tab = [[0] * order for _ in range(order)]
            for a in range(order):
                da = digits[a]
                for b in range(a, order):
                    db = digits[b]
                    v = 0
                    for i in range(n - 1, -1, -1):
                        v = v * q + addq[da[i]][db[i]]
                    tab[a][b] = v
                    tab[b][a] = v
            self._addtab = tab

        gen = self._find_generator()
        exp = [0] * (order - 1)
        log = [0] * order  # log[0] unused
        x = 1
        for k in range(order - 1):
            exp[k] = x
            log[x] = k
            x = self._raw_mul(x, gen)
        if x != 1:
            raise RuntimeError("generator order mismatch")
        self.generator = gen
        self._exp = exp
        self._log = log

        m1 = fq.neg_table[1]  # -1 as an element of F_q inside L
        self._negtab = [self.mul(a, m1) if m1 != 1 else a for a in range(order)]

        # Frobenius tables: _frob[k][x] = x^(q^k) for 0 <= k < n.
        frob = [list(range(order))]
        for k in range(1, n):
            prev = frob[-1]
            cur = [0] * order
            for x in range(1, order):
                cur[x] = exp[(log[prev[x]] * q) % (order - 1)]
            frob.append(cur)
        self._frob = frob

    # -- construction helpers ------------------------------------------------

    def _raw_mul(self, a, b):
        """Product in L by polynomial multiplication; used before tables exist."""
        kernel = self.fq.kernel
        prod = kernel.mul(self._digits[a], self._digits[b])
        v = 0
        for c in reversed(kernel.divmod(prod, self.top_min_poly)[1]):
            v = v * self.q + c
        return v

    def _raw_pow(self, a, e):
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._raw_mul(r, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return r

    def _find_generator(self):
        m = self.order - 1
        if m == 1:
            return 1
        checks = [m // ell for ell in prime_factors(m)]
        for x in range(2, self.order):
            if all(self._raw_pow(x, e) != 1 for e in checks):
                return x
        raise RuntimeError("no multiplicative generator found")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        t = self._addtab
        if t is not None:
            return t[a][b]
        da = self._digits[a]
        db = self._digits[b]
        addq = self.fq.add_table
        v = 0
        for i in range(self.n - 1, -1, -1):
            v = v * self.q + addq[da[i]][db[i]]
        return v

    def neg(self, a):
        return self._negtab[a]

    def sub(self, a, b):
        return self.add(a, self._negtab[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def frob(self, a, k=1):
        """a^(q^k); the q-power map iterated k times."""
        return self._frob[k % self.n][a]

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def vector(self, a):
        """Coefficient vector of a over F_q, low degree first."""
        return self._digits[a]

    def from_vector(self, vec):
        if len(vec) != self.n:
            raise ValueError("expected a length-%d vector" % self.n)
        v = 0
        for d in reversed(vec):
            if not 0 <= d < self.q:
                raise ValueError("coefficient %r out of range for F_%d" % (d, self.q))
            v = v * self.q + d
        return v

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.tower is not self:
                raise ValueError("element belongs to a different tower")
            return value
        if isinstance(value, (list, tuple)):
            return FieldElement(self, self.from_vector(value))
        value = int(value)
        if not 0 <= value < self.order:
            raise ValueError("value %d out of range for a field of order %d"
                             % (value, self.order))
        return FieldElement(self, value)

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and (self.p, self.s, self.n) == (other.p, other.s, other.n))

    def __hash__(self):
        return hash((FieldTower, self.p, self.s, self.n))

    def __repr__(self):
        return "FieldTower(p=%d, s=%d, n=%d)" % (self.p, self.s, self.n)


@lru_cache(maxsize=None)
def build_tower(p, s, n):
    """The canonical tower F_p <= F_q <= L for q = p^s, |L| = q^n.

    Repeated calls return the identical cached object.
    """
    return FieldTower(_build_fq(p, s), n)


class FieldElement:
    """An element of L carried with its tower; thin wrapper over the int."""

    __slots__ = ("tower", "value")

    def __init__(self, tower, value):
        self.tower = tower
        self.value = value

    def vector(self):
        return self.tower.vector(self.value)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower:
                raise ValueError("elements from different towers")
            return other.value
        return self.tower.element(other).value

    def __add__(self, other):
        return FieldElement(self.tower, self.tower.add(self.value, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.tower, self.tower.sub(self.value, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.tower, self.tower.neg(self.value))

    def __mul__(self, other):
        return FieldElement(self.tower, self.tower.mul(self.value, self._coerce(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e):
        return FieldElement(self.tower, self.tower.pow(self.value, e))

    def inverse(self):
        return FieldElement(self.tower, self.tower.inv(self.value))

    def frobenius(self, k=1):
        return FieldElement(self.tower, self.tower.frob(self.value, k))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.tower == other.tower and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.tower, self.value))

    def __str__(self):
        return "[%s]" % ",".join(str(d) for d in self.vector())

    def __repr__(self):
        return "FieldElement(%r, %d)" % (self.tower, self.value)

    @classmethod
    def parse(cls, tower, text):
        """Parse '[c0,c1,...]' or a bare integer below the field order."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError("unterminated vector literal: %r" % text)
            body = text[1:-1].strip()
            parts = [p.strip() for p in body.split(",")] if body else []
            vec = [int(p) for p in parts]
            return tower.element(vec)
        return tower.element(int(text))


# ---------------------------------------------------------------------------
# Exact linear algebra over F_q (small dense systems).


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
