"""Exact arithmetic for F_q (q = p^s) and its extension L = F_{q^n}.

Construction is deterministic: every extension is cut out by the
lexicographically smallest monic irreducible of the right degree, where
coefficient vectors are compared constant term first.  Two towers built
from the same (p, s, n) are therefore identical, and the one built by
:func:`build_tower` is additionally cached and shared.  One construction
serves every field: F_p takes its tables from the integers mod p, and
F_q for s >= 2 reads its tables off the tower of degree s over F_p.

Elements are plain ints.  An F_q element is the base-p digit encoding of
its coefficient vector over F_p; an element of L is the base-q digit
encoding of its coefficient vector over F_q.  In particular F_q sits
inside L as the ints below q.  Towers precompute discrete-log, Zech
logarithm and Frobenius tables of O(|L|) entries each, so every field
operation, sums included, is a table lookup on every tower; values are
immutable and safe to share across worker processes.  A vector of F_q^n
is an element of L, so the Krylov and echelon steps that classify a
module run on the same tables.

The tables are built without a polynomial product per element.
Multiplying by the generator g is F_q-linear: with x = lo + H*hi and
H = q^ceil(n/2), x*g = lo*g + (H*hi)*g, so two tables of about sqrt|L|
products each give every x*g as one sum.  That sum is taken block by
block, ceil(n/2) digits at a time, in a table of digit-wise sums grown
from F_q's addition table.  Each Frobenius table is the q-power map
applied to the one before.
"""

import itertools
from functools import lru_cache

# Largest |L| for which tables are built, and so the largest field a
# census or a realization search scans; it also bounds the towers
# F_{q^k}, k <= g, in which class numbers count points (and must allow at
# least 5^4).
MAX_FIELD_ORDER = 8192

# Largest base field F_q; keeps the q x q tables small.
MAX_BASE_ORDER = 128

# Largest degree of any field over F_p that the bounds admit (2^13 = 8192),
# and so of any polynomial the library reads as input.
MAX_DEGREE = MAX_FIELD_ORDER.bit_length() - 1


class SizeBoundError(ValueError):
    """Requested object exceeds the documented enumeration bounds."""


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


class PolyKernel:
    """Arithmetic on polynomials over one F_q, as coefficient tuples.

    Tuples hold field elements low degree first, with no trailing zeros, so
    the zero polynomial is ().  The factors of mul and the dividend of divmod
    may also carry trailing zeros, as digit vectors do.
    """

    __slots__ = ("add", "sub", "neg", "mul", "divmod", "gcd", "scale", "monic", "monics",
                 "irreducibles", "is_irreducible", "irreducible_divisors")


def _poly_kernel(fq):
    """The PolyKernel of fq, over its add, neg, mul and inverse tables.

    Every polynomial over F_q in the library, from the moduli that build
    the field tables to UPoly and the class numbers, is computed here.
    Monic polynomials are listed with the constant coefficient varying
    slowest: lexicographic order on coefficient vectors read low degree
    first.
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

    def gcd(a, b):
        """The monic gcd of a and b, () when both are 0."""
        while b:
            a, b = b, divmod_(a, b)[1]
        return monic(a) if a else a

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
        """The monic irreducibles of the given degree, in monics' order.
        Past degree 1, T divides every monic with constant term 0, so the
        constant runs from 1."""
        if degree < 2:
            return (f for f in monics(degree) if is_irreducible(f))
        tails = itertools.product(range(1, q), *[range(q)] * (degree - 1))
        return (f for f in (tail + (1,) for tail in tails) if is_irreducible(f))

    divisors = {}

    def irreducible_divisors(f):
        """The monic irreducible divisors of f != 0, by degree, as a tuple.
        Each one found is divided out; once 2d exceeds the degree of what
        is left, that rest is 1 or irreducible."""
        hit = divisors.get(f)
        if hit is not None:
            return hit
        out = []
        rest = monic(f)
        d = 1
        while 2 * d <= len(rest) - 1:
            for g in irreducibles(d):
                quot, r = divmod_(rest, g)
                if r:
                    continue
                out.append(g)
                while not r:
                    rest = quot
                    quot, r = divmod_(rest, g)
            d += 1
        if len(rest) > 1:
            out.append(rest)
        hit = divisors[f] = tuple(out)
        return hit

    kernel = PolyKernel()
    kernel.add, kernel.sub, kernel.neg, kernel.mul = add, sub, neg, mul
    kernel.divmod, kernel.gcd, kernel.scale, kernel.monic = divmod_, gcd, scale, monic
    kernel.monics, kernel.irreducibles = monics, irreducibles
    kernel.is_irreducible, kernel.irreducible_divisors = is_irreducible, irreducible_divisors
    return kernel


class Fq:
    """The field F_q, q = p^s, with full arithmetic tables.

    F_p has its tables straight from the integers mod p.  For s >= 2, F_q
    is the tower of degree s over F_p, build_tower(p, 1, s): the same
    base-p digits, cut out by the same least monic irreducible, which is
    min_poly, so the q x q tables are read off the tower's log and Zech
    tables and F_q needs no construction of its own.
    """

    def __init__(self, p, s):
        if s < 1:
            raise ValueError("extension degree s must be >= 1")
        # compare before the power and the factorization, which are slow
        # for huge inputs
        if p > MAX_BASE_ORDER or s > MAX_DEGREE or p ** s > MAX_BASE_ORDER:
            raise SizeBoundError("base field order %d^%d exceeds %d" % (p, s, MAX_BASE_ORDER))
        if prime_factors(p) != [p]:
            raise ValueError("characteristic %r is not prime" % (p,))
        q = p ** s
        self.p = p
        self.s = s
        self.q = q
        if s == 1:
            self.min_poly = (0, 1)  # the polynomial x
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_table = [[a * b % p for b in range(p)] for a in range(p)]
            self.neg_table = [-a % p for a in range(p)]
            self.inv_table = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        else:
            tower = build_tower(p, 1, s)
            self.min_poly = tower.top_min_poly
            # rows a != 0 from logs: a + b = g^(la + zech(lb - la)), a b = g^(la + lb)
            exp, zech, units = tower._exp, tower._zech, q - 1
            logs = tower._log[1:]
            self.add_table = [list(range(q))] + [
                [a] + [exp[la + zech[lb - la]] for lb in logs] for a, la in enumerate(logs, 1)]
            self.mul_table = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
            self.neg_table = tower._negtab
            self.inv_table = [0] + [exp[-la % units] for la in logs]
        self.kernel = _poly_kernel(self)

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
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
            return 0
        if e < 0:
            a, e = self.inv_table[a], -e
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

        # digits[v] = the base-q digits of v, low first; product varies its
        # last entry fastest, so each tuple is read backwards
        q = fq.q
        self._digits = [v[::-1] for v in itertools.product(range(q), repeat=n)]

        # exp[k] = gen^k by the F_q-linear map x -> x*gen, without a kernel
        # product per element.  Split x = lo + H*hi with H = q^h, h =
        # ceil(n/2), so that x*gen = lo*gen + (H*hi)*gen: two product
        # tables of H and |L|/H entries.  Their sum is taken block by block,
        # the low h digits and the high n - h digits, in the table `block`
        # of digit-wise sums of two h-digit vectors, grown one digit at a
        # time from F_q's add_table, which is the table itself when h = 1.
        gen = self._find_generator()
        h = (n + 1) // 2
        H = q ** h
        low = [0] + [self._raw_mul(lo, gen) for lo in range(1, H)]
        high = [0] + [self._raw_mul(H * hi, gen) for hi in range(1, order // H)]
        add_q = fq.add_table
        block, width = add_q, q
        for _ in range(h - 1):
            # block'[a + width a'][b + width b'] = block[a][b] + width (a' + b')
            block = [[u + width * t for t in row_q for u in row]
                     for row_q in add_q for row in block]
            width *= q
        # lo*gen picks the rows of block, (H*hi)*gen the columns
        rows_lo = [block[v % H] for v in low]
        rows_hi = [block[v // H] for v in low]
        cols_lo = [v % H for v in high]
        cols_hi = [v // H for v in high]
        exp = [0] * (order - 1)
        log = [0] * order  # log[0] unused
        x = 1
        for k in range(order - 1):
            exp[k] = x
            log[x] = k
            lo, hi = x % H, x // H
            x = rows_lo[lo][cols_lo[hi]] + H * rows_hi[lo][cols_hi[hi]]
        if x != 1:
            raise RuntimeError("generator order mismatch")
        # Zech logarithms: 1 + g^k = g^zech[k], or zech[k] = 2(|L| - 1) when
        # 1 + g^k = 0; adding 1 changes only the constant digit.  zech runs
        # over two periods, so every index in (1 - |L|, 2(|L| - 1)), such as
        # log b - log a or log c + log y - log a, reads it directly.  exp
        # runs over two periods and then |L| - 1 zeros, so a sum of two logs
        # indexes it without reduction and the sentinel lands on 0.
        plus_one = [x - x % q + add_q[x % q][1] for x in exp]
        zech = [log[y] if y else 2 * (order - 1) for y in plus_one]
        self.generator = gen
        self._exp = exp = exp + exp + [0] * (order - 1)
        self._log = log
        self._zech = zech + zech

        # -a = a * (-1), and log of -1 is 0 when -1 = 1
        log_m1 = log[fq.neg_table[1]]
        self._negtab = [0] + [exp[la + log_m1] for la in log[1:]]

        # Frobenius tables: _frob[k][x] = x^(q^k) for 0 <= k < n, each the
        # q-power map f1 applied to the one before
        frob = [list(range(order))]
        if n > 1:
            f1 = [exp[la * q % (order - 1)] for la in log]
            f1[0] = 0
            frob.append(f1)
            for _ in range(2, n):
                frob.append([f1[y] for y in frob[-1]])
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
        # a + b = g^(log a) (1 + g^(log b - log a))
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def add_scaled(self, out, at, c, ys, k=0):
        """out[at + j] += c * ys[j]^(q^k) for every j, in place.  Its one
        library caller is the cancel step of right division in L{tau},
        structure._right_remainder."""
        if not c:  # log[0] reads 0, which would add ys as if c were 1
            return
        exp, log, zech = self._exp, self._log, self._zech
        frob = self._frob[k % self.n]
        lc = log[c]
        for j, y in enumerate(ys, at):
            if y:
                lv = lc + log[frob[y]]
                o = out[j]
                if o:
                    lo = log[o]
                    out[j] = exp[lo + zech[lv - lo]]
                else:
                    out[j] = exp[lv]

    def neg(self, a):
        return self._negtab[a]

    def sub(self, a, b):
        return self.add(a, self._negtab[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

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
            if type(d) is bool or not isinstance(d, int) or not 0 <= d < self.q:
                raise ValueError("coefficient %r out of range for F_%d" % (d, self.q))
            v = v * self.q + d
        return v

    def element(self, value):
        """An element of L given as an int below |L| or as its coefficient
        vector over F_q; raises ValueError for anything else, bool included."""
        if isinstance(value, (list, tuple)):
            return self.from_vector(value)
        if type(value) is bool or not isinstance(value, int) or not 0 <= value < self.order:
            raise ValueError("value %r out of range for a field of order %d"
                             % (value, self.order))
        return value

    def parse(self, text):
        """Parse '[c0,c1,...]' or a bare integer below the field order, each
        number in ASCII digits ('-1', '+1' and '0_5' raise ValueError), with
        spaces ignored and any other whitespace or non-ASCII text refused."""
        s = _layout(text)
        if s.startswith("["):
            if not s.endswith("]"):
                raise ValueError("unterminated vector literal: %r" % text)
            body = s[1:-1]
            return self.from_vector([_number(c) for c in body.split(",")] if body else [])
        return self.element(_number(s))

    def format(self, a):
        """The text '[c0,c1,...]' of a, low degree first."""
        return "[%s]" % ",".join(str(d) for d in self._digits[a])

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and (self.p, self.s, self.n) == (other.p, other.s, other.n))

    def __hash__(self):
        return hash((FieldTower, self.p, self.s, self.n))

    def __repr__(self):
        return "FieldTower(p=%d, s=%d, n=%d)" % (self.p, self.s, self.n)


def _layout(text):
    """Command-line text with its spaces dropped; ValueError if it holds any
    other whitespace, a control character or a non-ASCII character."""
    if text.isascii() and text.isprintable():
        return text.replace(" ", "")
    bad = next(c for c in text if not (c.isascii() and c.isprintable()))
    raise ValueError("character %r in %r is not printable ASCII" % (bad, text))


def _number(text):
    """The int that the ASCII digits text spell; ValueError for any other text."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected digits, got %s" % (repr(text) if text else "an empty entry"))
    return int(text)


@lru_cache(maxsize=None)
def build_tower(p, s, n):
    """The canonical tower F_p <= F_q <= L for q = p^s, |L| = q^n.

    Repeated calls return the identical cached object.
    """
    return FieldTower(_build_fq(p, s), n)


# ---------------------------------------------------------------------------
# Exact linear algebra over F_q on L itself: in the canonical power basis a
# vector of F_q^n is an element of L, its coordinates are its digits, and
# an F_q-linear map is a function on ints such as x -> phi_T(x).


def _echelon_insert(tower, rows, u, first=None, tag=None):
    """Reduce u in L against rows, (pivot, row, tag) triples with digit
    `pivot` of row 1 and every earlier pivot digit 0.  Returns (u, acc):
    the remainder, and acc = -sum c_i tag_i over rows[first:], where c_i
    is the multiple of rows[i] subtracted.  A nonzero remainder joins rows
    scaled to a leading digit 1, with tag + acc, scaled alike, as its tag.

    Tags are elements of L, updated by the same Zech step as the rows.
    With first None no tags are read, and tag None keeps none."""
    exp, log, zech, digits = tower._exp, tower._log, tower._zech, tower._digits
    neg = tower.fq.neg_table
    if first is None:
        first = len(rows)
    acc = 0
    for i, (p, row, row_tag) in enumerate(rows):
        c = digits[u][p]
        if c:  # u - c row, as u + (-c) row; c != 0 makes u != 0
            lc = log[neg[c]]
            lu = log[u]
            u = exp[lu + zech[lc + log[row] - lu]]
            if i >= first:  # acc + (-c) row_tag, the same step
                lv = lc + log[row_tag]
                if acc:
                    la = log[acc]
                    acc = exp[la + zech[lv - la]]
                else:
                    acc = exp[lv]
    if u:
        vec = digits[u]
        p = 0
        while not vec[p]:
            p += 1
        to_one = log[tower.fq.inv_table[vec[p]]]
        if tag is not None:
            tag = exp[to_one + log[tower.add(tag, acc)]]
        rows.append((p, exp[to_one + log[u]], tag))
    return u, acc


def _krylov_relation(tower, step, seed, rows):
    """Extend the basis `rows` (see _echelon_insert) by seed, M seed,
    M^2 seed, ..., M the F_q-linear map `step` on L, until M^d seed depends
    on what is there.  Returns the monic f of degree d, a kernel tuple, with
    f(M) seed in the span of the rows given.

    Each row added carries a tag, its coordinates over the powers of the
    seed modulo the rows given, as an element of L: M^k seed has the tag
    q^k, and the row it leaves has q^k + acc with acc below digit k.  The
    sequence has at most n rows, so every tag fits in L, and the relation
    is the digits of the last acc before its implicit leading 1."""
    first = len(rows)
    power, k = seed, 0
    while True:
        # at k = n the rows span L, so u is 0 and the tag q^n is never kept
        u, acc = _echelon_insert(tower, rows, power, first, tower.q ** k)
        if not u:
            return tower._digits[acc][:k] + (1,)
        power = step(power)
        k += 1


def char_and_min_poly(tower, step):
    """(chi, i1) for the F_q-linear map M = step on L: chi = det(T*I - M)
    and i1 the minimal polynomial of M, as kernel tuples, from one pass of
    Krylov sequences.

    The seeds are the basis elements q^j not yet in the span W of the
    earlier sequences.  A seed's sequence stops at its relative minimal
    polynomial f, with f(M) seed in W; in the basis the sequences build, M
    is block triangular with companion blocks, so chi is the product of
    the f.  The seeds generate L over F_q[T], so i1 is the lcm of their
    own minimal polynomials `own`: f for the first seed.

    A later seed needs its own sequence, from nothing, only when f shares
    a factor with the i1 so far.  That i1 kills W, and f(M) seed lies in
    W, so own divides i1 f; own(M) seed = 0 lies in W, so f divides own.
    When gcd(i1, f) = 1, i1 f divides lcm(i1, own), which divides i1 f,
    so the new i1 is i1 f.  tests/oracles.matrix_char_and_min_poly runs
    the own sequence of every seed.
    """
    kernel = tower.fq.kernel
    rows = []
    chi = i1 = _krylov_relation(tower, step, 1, rows)
    for j in range(1, tower.n):
        if len(rows) == tower.n:
            break
        f = _krylov_relation(tower, step, tower.q ** j, rows)
        if len(f) == 1:
            continue  # the seed already lies in W
        chi = kernel.mul(chi, f)
        if len(kernel.gcd(i1, f)) == 1:
            i1 = kernel.mul(i1, f)
            continue
        own = _krylov_relation(tower, step, tower.q ** j, [])
        i1 = kernel.divmod(kernel.mul(i1, own), kernel.gcd(i1, own))[0]
    return chi, i1


def second_invariant_factor(tower, step, chi, i1):
    """i2 = chi / i1 for the F_q[T]-module L on which T acts by the
    F_q-linear map step, given chi = det(T*I - step) and its minimal
    polynomial i1 (kernel tuples); L is then A/(i1) + A/(i2), i2 | i1.

    Raises RuntimeError when i1 does not divide chi, when i2 does not
    divide i1, or when the module has more than two invariant factors.  For
    the last: with factors e_1 | ... | e_k, i2 = e_1 ... e_(k-1) and an
    irreducible rho | e_1 has dim ker rho(step) = k deg rho, so
    dim ker rho(step) <= 2 deg rho for every irreducible rho | i2 proves
    k <= 2.  The rank of rho(step) is that of the images of the q^j.
    """
    if i1 == chi:  # cyclic, as 15,376 of the 15,500 modules at (5,1,3) are;
        return (1,)  # the two divisions below cost about 3 us a module (CPython 3.11)
    kernel = tower.fq.kernel
    i2, r = kernel.divmod(chi, i1)
    if r:
        raise RuntimeError("the minimal polynomial does not divide det(T*I - M)")
    if kernel.divmod(i1, i2)[1]:
        raise RuntimeError("invariant factors do not form a divisibility chain")
    for rho in kernel.irreducible_divisors(i2):
        rows = []
        for j in range(tower.n):
            value = basis = tower.q ** j  # Horner's rule for rho(step) basis, rho monic
            for c in reversed(rho[:-1]):
                value = tower.add(step(value), tower.mul(c, basis))
            _echelon_insert(tower, rows, value)
        if tower.n - len(rows) > 2 * (len(rho) - 1):
            raise RuntimeError("more than two invariant factors (at %s)" % (rho,))
    return i2
