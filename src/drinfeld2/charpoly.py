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

(trace, unit) depends on (chi, unit) alone, so class_charpoly builds the
charpoly of an isogeny class from them, with its trace bound, and each
module runs only its own annihilation residue against it:
frobenius_charpoly does both for one module, and a census builds one
charpoly per isogeny class and runs the residue once per sigma-orbit
head, on kernel tuples, with no module built.
"""

from functools import lru_cache

from .drinfeld import phi_into
from .polys import _Value, _wrap


@lru_cache(maxsize=None)
def _prime_power(prime, m):
    """prime^m, computed once per (prime, m)."""
    return prime.pow(m)


def _weil_trace(prime, m, unit, chi):
    """The trace of the Weil pair (trace, unit) with P(1) = unit*chi, chi a
    kernel tuple: P(1) = 1 - trace + unit*prime^m gives
    trace = 1 + unit*(prime^m - chi)."""
    kernel = prime.fq.kernel
    return _wrap(prime.fq, kernel.add((1,), kernel.scale(
        kernel.sub(_prime_power(prime, m).coeffs, chi), unit)))


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
        fq = trace._check(prime).fq  # ValueError over another field
        kernel, c = fq.kernel, trace.coeffs
        norm = kernel.scale(_prime_power(prime, ext_degree).coeffs, unit)
        at_one = kernel.add(kernel.sub((1,), c), norm)
        if not at_one:
            raise RuntimeError("P(1) = 0; the Frobenius cannot fix a nonzero point")
        for name, value in (("trace", trace), ("unit", unit), ("prime", prime),
                            ("ext_degree", ext_degree), ("norm", _wrap(fq, norm)),
                            ("neg_trace", kernel.neg(c)), ("chi", _wrap(fq, kernel.monic(at_one))),
                            ("disc", _wrap(fq, kernel.sub(kernel.mul(c, c),
                                                          kernel.scale(norm, 4 % fq.p)))),
                            ("ordinary", bool(kernel.divmod(c, prime.coeffs)[1])),
                            ("c_minus_2", _wrap(fq, kernel.sub(c, (2 % fq.p,))))):
            object.__setattr__(self, name, value)

    def trace_degree_ok(self):
        """Hasse-Weil analogue: 2*deg(trace) <= m*deg(prime)."""
        return 2 * self.trace.degree() <= self.ext_degree * self.prime.degree()


def frobenius_charpoly(mod):
    """The characteristic polynomial of tau^n acting on the module: the
    class charpoly of its chi and unit, accepted once the module's own
    annihilation identity holds.

    Raises RuntimeError unless the trace bound and the annihilation
    identity hold for it.
    """
    cp = class_charpoly(mod.prime, mod.m, mod.action_invariants()[0].coeffs,
                        frobenius_unit(mod.tower, mod.delta))
    require_annihilation(annihilation_holds(mod, cp), cp)
    return cp


def class_charpoly(prime, m, chi, unit):
    """The FrobeniusCharPoly of the isogeny class with P(1) = unit*chi, chi
    the monic kernel tuple det(T*I - M) of any of its modules; raises
    RuntimeError unless the trace bound holds.  It depends on (chi, unit)
    alone, so a census builds it once per class."""
    cp = FrobeniusCharPoly(_weil_trace(prime, m, unit, chi), unit, prime, m)
    if not cp.trace_degree_ok():
        raise RuntimeError("trace degree violates the half-degree bound")
    return cp


def require_annihilation(holds, cp):
    """Raise RuntimeError unless holds, the verdict of one module's
    annihilation identity for cp."""
    if not holds:
        raise RuntimeError("the annihilation identity fails for (c, mu) = (%s, %d)"
                           % (cp.trace, cp.unit))


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

