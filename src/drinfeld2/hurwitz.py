"""Class numbers of quadratic orders over A = F_q[T], by brute force.

For an imaginary discriminant D (odd degree, or even degree with a
non-square leading coefficient) and q odd, the order of discriminant D
is O = A + A*w with w^2 = D.  Its class number h(D) counts proper
O-ideals up to the equivalence I ~ J iff alpha*I = beta*J for nonzero
alpha, beta in O.  The Hurwitz class number H(D) sums h(D/l^2) over the
monic l with l^2 | D.

Everything here is an independent enumeration: ideals are listed as
A-lattices (a, b + w) with a bounded degree, the equivalence is decided
by degree-bounded multipliers, and the multiplier bound is doubled until
the class partition stabilizes.  A partition that fails to stabilize at
the cap raises instead of guessing.

The inner loop works on raw coefficient tuples (low degree first, no
trailing zeros) through the field's PolyKernel, for speed; the public API
speaks UPoly.
"""

import itertools

from .charpoly import is_imaginary
from .polys import UPoly, monic_polys


class StabilizationError(RuntimeError):
    """The class partition did not stabilize within the multiplier cap."""


def proper_ideal_representatives(disc, fq):
    """Primitive (proper) ideals (a, b + w) with a monic of degree at most
    deg(disc)/2 + 1 and deg b < deg a; every ideal class of the order
    contains one of these."""
    if not is_imaginary(disc, fq):
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
                gcd = a
                for other in (b + b, quo):
                    if not gcd.is_one() and other:
                        gcd = gcd.gcd(other)
                if not gcd.is_one():
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
    multiples coincide as lattices."""
    kernel = fq.kernel
    tadd, tsub, tmul, tdivmod = kernel.add, kernel.sub, kernel.mul, kernel.divmod
    tmonic, tscale = kernel.monic, kernel.scale
    inv_t = fq.inv_table

    def canon(x1, y1, x2, y2):
        while y2:
            q, _ = tdivmod(y1, y2)
            x1 = tsub(x1, tmul(q, x2))
            y1 = tsub(y1, tmul(q, y2))
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

    multipliers = [(x, y, tmul(y, disc_t))
                   for x, y in _multiplier_pairs(fq, len(disc_t) - 1,
                                                 norm_degree_bound)]
    seen = {}
    for idx, (a, b) in enumerate(ideal_tuples):
        for x, y, y_disc in multipliers:
            # (x + y w) * a  and  (x + y w)(b + w), with w^2 = disc
            h1x = tmul(x, a)
            h1y = tmul(y, a)
            h2x = tadd(tmul(x, b), y_disc)
            h2y = tadd(x, tmul(y, b))
            key = canon(h1x, h1y, h2x, h2y)
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


_CLASS_NUMBER_CACHE = {}


def class_number(disc, fq, max_norm_degree=24):
    """Number of classes of proper ideals of the order of discriminant disc.

    The multiplier degree bound starts at deg(disc) + 2 and doubles until
    two consecutive partitions agree; failure to stabilize raises
    StabilizationError.  Returns (h, stabilized_at_bound).
    """
    key = (fq.p, fq.s, disc.coeffs)
    if key in _CLASS_NUMBER_CACHE:
        return _CLASS_NUMBER_CACHE[key]
    if fq.p == 2:
        raise ValueError("class numbers require odd q")
    ideals = proper_ideal_representatives(disc, fq)
    ideal_tuples = [(a.coeffs, b.coeffs) for a, b in ideals]
    disc_t = disc.coeffs
    bound = disc.degree() + 2
    part = _partition(ideal_tuples, disc_t, fq, bound)
    while True:
        nxt = 2 * bound
        if nxt > max_norm_degree:
            raise StabilizationError(
                "class partition for %s did not stabilize by bound %d"
                % (disc, bound))
        part2 = _partition(ideal_tuples, disc_t, fq, nxt)
        if part2 == part:
            result = (len(part), nxt)
            _CLASS_NUMBER_CACHE[key] = result
            return result
        part = part2
        bound = nxt


def hurwitz_class_number(disc, fq):
    """H(disc) = sum of h(disc / l^2) over monic l with l^2 | disc.

    Returns (H, details) where details lists the per-term data, including
    the bound at which each class count stabilized.
    """
    if fq.p == 2:
        raise ValueError("Hurwitz class numbers require odd q")
    if not is_imaginary(disc, fq):
        raise ValueError("%s is not an imaginary discriminant" % disc)
    ells = [UPoly.one(fq)]
    for k in range(1, disc.degree() // 2 + 1):
        for l in monic_polys(fq, k):
            if (disc % (l * l)).is_zero():
                ells.append(l)
    total = 0
    details = []
    for l in ells:
        sub = disc // (l * l)
        h, bound = class_number(sub, fq)
        total += h
        details.append({"l": str(l), "disc": str(sub), "h": h,
                        "stabilized_bound": bound})
    return total, details
