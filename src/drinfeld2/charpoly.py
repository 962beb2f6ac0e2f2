"""Characteristic polynomial of the Frobenius F = tau^n of a rank-2 module.

P(X) = X^2 - trace*X + unit*prime^m with trace in A, deg trace <= m*d/2,
and unit in F_q^*.  FrobeniusCharPoly alone derives the facts of this
Weil pair: chi, disc, ordinary (prime does not divide trace) and
trace - 2.  Both trace and unit come from the action of T on L:

- unit = (-1)^n N(delta)^(-1), with N(delta) = delta^((q^n-1)/(q-1)) the
  norm from L to F_q of the tau^2 coefficient;
- P(1) = unit * chi, where chi = det(T*I - M) is the characteristic
  polynomial of the action matrix M of phi_T, so
  trace = 1 + unit*prime^m - unit*chi.

The result is accepted only when it satisfies the annihilation identity

    tau^(2n) - phi(trace)*tau^n + phi(unit*prime^m) = 0   in L{tau}.
"""

from functools import lru_cache

from .drinfeld import phi_into
from .polys import UPoly, _Value


@lru_cache(maxsize=None)
def _prime_power(prime, m):
    """prime^m, computed once per (prime, m)."""
    return prime.pow(m)


def _weil_trace(prime, m, unit, chi):
    """The trace of the Weil pair (trace, unit) with P(1) = unit*chi:
    P(1) = 1 - trace + unit*prime^m gives trace = 1 + unit*(prime^m - chi)."""
    return UPoly.one(chi.fq) + (_prime_power(prime, m) - chi).scale(unit)


class FrobeniusCharPoly(_Value):
    """X^2 - trace*X + unit*prime^m, the characteristic polynomial of tau^n.

    Equal and hashed on (trace, unit, prime, ext_degree).  The invariants
    read off it are derived from these once, by the constructor, which
    does not accept them:

    - norm = unit*prime^m, the constant coefficient P(0);
    - neg_trace = (-trace).coeffs;
    - chi, the monic normalization of P(1) = 1 - trace + norm;
    - disc = trace^2 - 4*norm, which degenerates to trace^2 for q even,
      where is_imaginary gives None;
    - ordinary, True when prime does not divide trace;
    - c_minus_2 = trace - 2, which i2 divides in an ordinary class.

    Raises RuntimeError when P(1) = 0, which no module gives: there
    P(1) = unit*chi with deg chi = n >= 1.
    """

    _fields = ("trace", "unit", "prime", "ext_degree")
    __slots__ = _fields + ("norm", "neg_trace", "chi", "disc", "ordinary", "c_minus_2")

    def __init__(self, trace, unit, prime, ext_degree):
        fq = trace.fq
        norm = _prime_power(prime, ext_degree).scale(unit)
        at_one = UPoly.one(fq) - trace + norm
        if at_one.is_zero():
            raise RuntimeError("P(1) = 0; the Frobenius cannot fix a nonzero point")
        four, two = UPoly.constant(fq, 4 % fq.p), UPoly.constant(fq, 2 % fq.p)
        for name, value in (("trace", trace), ("unit", unit), ("prime", prime),
                            ("ext_degree", ext_degree), ("norm", norm),
                            ("neg_trace", (-trace).coeffs), ("chi", at_one.monic()),
                            ("disc", trace * trace - four * norm),
                            ("ordinary", not (trace % prime).is_zero()),
                            ("c_minus_2", trace - two)):
            object.__setattr__(self, name, value)

    def trace_degree_ok(self):
        """Hasse-Weil analogue: 2*deg(trace) <= m*deg(prime)."""
        return 2 * self.trace.degree() <= self.ext_degree * self.prime.degree()


def frobenius_charpoly(mod):
    """The characteristic polynomial of tau^n acting on the module.

    Raises RuntimeError unless the trace bound and the annihilation
    identity hold for it.
    """
    chi = mod.action_invariants()[0]
    unit = frobenius_unit(mod.tower, mod.delta)
    trace = _weil_trace(mod.prime, mod.m, unit, chi)
    cp = FrobeniusCharPoly(trace, unit, mod.prime, mod.m)
    if not cp.trace_degree_ok():
        raise RuntimeError("trace degree violates the half-degree bound")
    if not annihilation_holds(mod, cp):
        raise RuntimeError("the annihilation identity fails for (c, mu) = (%s, %d)"
                           % (trace, unit))
    return cp


def frobenius_unit(tower, delta):
    """The unit (-1)^n N(delta)^(-1) of P, N(delta) = delta^((q^n-1)/(q-1))
    the norm from L to F_q; one table pow."""
    fq = tower.fq
    unit = fq.inv(tower.pow(delta, (tower.order - 1) // (tower.q - 1)))
    return fq.neg(unit) if tower.n % 2 else unit


def annihilation_holds(mod, cp):
    """Exact check of tau^(2n) - phi(trace) tau^n + phi(unit prime^m) = 0."""
    return not any(_annihilation_residue(mod.tower, mod.gamma_t, mod.g, mod.delta, cp))


def _annihilation_residue(tower, gamma, g, delta, cp):
    """The coefficients, low degree first, of tau^(2n) - phi(trace) tau^n
    + phi(unit prime^m) in L{tau}, phi_T = gamma + g tau + delta tau^2."""
    n = tower.n
    out = [0] * max(2 * n + 1, n + 2 * len(cp.neg_trace), 2 * len(cp.norm.coeffs))
    out[2 * n] = 1
    phi_into(tower, gamma, g, delta, out, (cp.neg_trace, n), (cp.norm.coeffs, 0))
    return out


def is_imaginary(disc):
    """True if the place at infinity does not split in K(sqrt(disc)):
    deg odd, or deg even with a non-square leading coefficient.  None in
    characteristic 2, where disc = trace^2 decides nothing."""
    if disc.fq.p == 2:
        return None
    if disc.is_zero():
        return False
    if disc.degree() % 2 == 1:
        return True
    return not disc.fq.is_square(disc.lc())

