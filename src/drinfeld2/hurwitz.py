"""Class numbers of quadratic orders over A = F_q[T], from L-polynomials.

For an imaginary discriminant D (odd degree, or even degree with a
non-square leading coefficient) and q odd, the order of discriminant D
is O = A + A*w with w^2 = D.  Its class number h(D) counts proper
O-ideals up to the equivalence I ~ J iff alpha*I = beta*J for nonzero
alpha, beta in O.  The Hurwitz class number H(D) sums h(D/l^2) over the
monic l with l^2 | D.

Write D = f^2 D_K with f monic and D_K squarefree; O is the order of
conductor f in the maximal order O_K = A + A*sqrt(D_K).

* A constant D_K (a non-square in F_q) gives O_K = F_{q^2}[T], so h = 1.
* Otherwise K is the function field of y^2 = D_K, of genus
  g = (deg D_K - 1) // 2, and h(O_K) = d_inf L(1), with d_inf = 1 for odd
  and 2 for even deg D_K (the degree of the place at infinity) and L the
  numerator of the zeta function of K (Artin, Math. Z. 19, 1924; Rosen,
  Number Theory in Function Fields, GTM 210).  The point counts of
  y^2 = D_K over F_{q^k}, k <= g, give the power sums of the inverse roots
  of L; Newton's identities give a_1..a_g and the functional equation
  a_{2g-i} = q^(g-i) a_i gives the rest.
* h(O_f) = h(O_K) |f| prod_{l | f} (1 - chi(l)/|l|) / [O_K^* : O_f^*],
  with chi(l) the Legendre symbol of D_K mod l; the unit index is q + 1
  when D_K is constant and f != 1, and 1 otherwise.

The point counts need the field F_{q^g}, so q^g is bounded by
MAX_FIELD_ORDER.  An independent lattice enumeration of the ideal classes
serves as the test oracle for this route.
"""

import itertools

from .charpoly import is_imaginary
from .fields import MAX_FIELD_ORDER, SizeBoundError, build_tower
from .polys import UPoly, irreducible_divisors


def _check(disc):
    if disc.fq.p == 2:
        raise ValueError("class numbers require odd q")
    if not is_imaginary(disc):
        raise ValueError("%s is not an imaginary discriminant" % disc)


def _conductor(disc):
    """(D_K, [(l, e)]) with disc = f^2 D_K, f the product of the l^e and
    D_K squarefree.  A repeated factor of disc divides its derivative, so
    only gcd(disc, disc') is factored."""
    fq = disc.fq
    deriv = UPoly(fq, [fq.mul(i % fq.p, c) for i, c in enumerate(disc.coeffs)][1:])
    dk, primes = disc, []
    for l in irreducible_divisors(disc.gcd(deriv)):
        sq, e = l * l, 0
        while sq.divides(dk):
            dk, e = dk // sq, e + 1
        primes.append((l, e))
    return dk, primes


_MAXIMAL_ORDER_CACHE = {}


def _maximal_order(dk):
    """(h(O_K), g, [a_0, ..., a_2g]) for squarefree imaginary dk; memoized."""
    fq = dk.fq
    key = (fq.p, fq.s, dk.coeffs)
    hit = _MAXIMAL_ORDER_CACHE.get(key)
    if hit is not None:
        return hit
    deg, q = dk.degree(), fq.q
    if deg == 0:
        hit = (1, 0, [1])
    else:
        g = (deg - 1) // 2
        if q ** g > MAX_FIELD_ORDER:
            raise SizeBoundError("the L-polynomial of %s needs F_{q^%d}, above %d elements"
                                 % (dk, g, MAX_FIELD_ORDER))
        power_sums = []  # S_k = q^k + 1 - #points over F_{q^k}
        for k in range(1, g + 1):
            tower = build_tower(fq.p, fq.s, k)
            half = (tower.order - 1) // 2
            char_sum = 0
            for x in tower.elements():
                v = dk.eval_in_tower(tower, x)
                if v:  # Euler's criterion
                    char_sum += 1 if tower.pow(v, half) == 1 else -1
            at_infinity = 1 if deg % 2 else 1 + (-1) ** k
            power_sums.append(1 - at_infinity - char_sum)
        a = [1]
        for k in range(1, g + 1):
            ak, r = divmod(-sum(power_sums[j - 1] * a[k - j] for j in range(1, k + 1)), k)
            if r:
                raise RuntimeError("Newton's identities left a fraction for %s" % dk)
            a.append(ak)
        a += [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]
        hit = ((2 - deg % 2) * sum(a), g, a)
    _MAXIMAL_ORDER_CACHE[key] = hit
    return hit


def _legendre(dk, l):
    """chi(l): 0 if l | dk, else 1 or -1 as dk is a square mod l or not
    (Euler's criterion in A/l, a field of q^deg(l) elements)."""
    base = dk % l
    if base.is_zero():
        return 0
    acc, e = UPoly.one(dk.fq), (dk.fq.q ** l.degree() - 1) // 2
    while e:
        if e & 1:
            acc = acc * base % l
        base = base * base % l
        e >>= 1
    return 1 if acc.is_one() else -1


def _order_class_number(dk, primes):
    """h of the order of conductor prod l^e in O_K, by the conductor formula."""
    fq = dk.fq
    h = _maximal_order(dk)[0]
    for l, e in primes:
        norm = fq.q ** l.degree()
        h *= norm ** (e - 1) * (norm - _legendre(dk, l))
    units = fq.q + 1 if primes and dk.degree() == 0 else 1
    h, r = divmod(h, units)
    if r:
        raise RuntimeError("the conductor formula gave a fraction for %s" % dk)
    return h


def class_number(disc):
    """Number of classes of proper ideals of the order of discriminant disc."""
    _check(disc)
    return _order_class_number(*_conductor(disc))


def hurwitz_class_number(disc):
    """H(disc) = sum of h(disc / l^2) over monic l with l^2 | disc.

    Returns (H, details): one term per l, in increasing order of l, with
    h and the genus and L-polynomial coefficients of the maximal order.
    """
    _check(disc)
    dk, primes = _conductor(disc)
    _, genus, lpoly = _maximal_order(dk)
    terms = []
    for exps in itertools.product(*(range(e + 1) for _, e in primes)):
        l = UPoly.one(disc.fq)
        for (p, _), x in zip(primes, exps):
            l = l * p.pow(x)
        rest = [(p, e - x) for (p, e), x in zip(primes, exps) if e > x]
        terms.append((l, _order_class_number(dk, rest)))
    terms.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    details = [{"l": str(l), "disc": str(disc // (l * l)), "h": h,
                "genus": genus, "L": list(lpoly)} for l, h in terms]
    return sum(h for _, h in terms), details
