"""Characteristic polynomial of the Frobenius F = tau^n of a rank-2 module.

P(X) = X^2 - trace*X + unit*prime^m with trace in A, deg trace <= m*d/2,
and unit in F_q^*.  Both come from the action of T on L:

- unit = (-1)^n N(delta)^(-1), with N(delta) = delta^((q^n-1)/(q-1)) the
  norm from L to F_q of the tau^2 coefficient;
- P(1) = unit * chi, where chi = det(T*I - M) is the characteristic
  polynomial of the action matrix M of phi_T, so
  trace = 1 + unit*prime^m - unit*chi.

The result is accepted only when it satisfies the annihilation identity

    tau^(2n) - phi(trace)*tau^n + phi(unit*prime^m) = 0   in L{tau}.

When the discriminant vanishes, F may lie in the image of phi; the only
possible witness a with phi(a) = tau^n is read off from P = (X - a)^2
in closed form and checked.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .polys import MonicIdeal, UPoly


@lru_cache(maxsize=None)
def _prime_power(prime, m):
    """prime^m, computed once per (prime, m)."""
    return prime.pow(m)


def _weil_trace(prime, m, unit, chi):
    """The trace of the Weil pair (trace, unit) with P(1) = unit*chi:
    P(1) = 1 - trace + unit*prime^m gives trace = 1 + unit*(prime^m - chi)."""
    return UPoly.one(chi.fq) + (_prime_power(prime, m) - chi).scale(unit)


@dataclass(frozen=True)
class FrobeniusCharPoly:
    """X^2 - trace*X + unit*prime^m, the characteristic polynomial of tau^n.

    The invariants read off it are derived once from the fields, and
    replace() derives them anew:

    - norm = unit*prime^m, the constant coefficient P(0);
    - chi, the monic normalization of P(1) = 1 - trace + norm, which
      generates the Euler-Poincare characteristic;
    - disc = trace^2 - 4*norm, which degenerates to trace^2 for q even;
      callers flag that case.

    Raises RuntimeError when P(1) = 0, which no module gives: there
    P(1) = unit*chi with deg chi = n >= 1.
    """

    trace: UPoly
    unit: int
    prime: UPoly
    ext_degree: int
    # when tau^n = phi(a) for some a in A (so the minimal polynomial is
    # X - a and this polynomial is its square), that witness; else None
    frobenius_in_image: UPoly = None
    norm: UPoly = field(init=False, compare=False, repr=False)  # unit * prime^m
    neg_trace: tuple = field(init=False, compare=False, repr=False)  # (-trace).coeffs
    chi: UPoly = field(init=False, compare=False, repr=False)  # monic P(1)
    disc: UPoly = field(init=False, compare=False, repr=False)  # trace^2 - 4*norm

    def __post_init__(self):
        fq = self.trace.fq
        norm = _prime_power(self.prime, self.ext_degree).scale(self.unit)
        at_one = UPoly.one(fq) - self.trace + norm
        if at_one.is_zero():
            raise RuntimeError("P(1) = 0; the Frobenius cannot fix a nonzero point")
        four = UPoly.constant(fq, 4 % fq.p)
        for name, value in (("norm", norm), ("neg_trace", (-self.trace).coeffs),
                            ("chi", at_one.monic()),
                            ("disc", self.trace * self.trace - four * norm)):
            object.__setattr__(self, name, value)

    def key(self):
        """Hashable identity of the isogeny class."""
        return (self.trace.coeffs, self.unit)

    def trace_degree_ok(self):
        """Hasse-Weil analogue: 2*deg(trace) <= m*deg(prime)."""
        return 2 * self.trace.degree() <= self.ext_degree * self.prime.degree()


def _frobenius_witness(mod, cp):
    """The a in A with phi(a) = tau^n, or None; called when the
    discriminant of cp is 0.

    Such an a makes P = (X - a)^2, so 2a = trace and a^2 = unit*prime^m,
    which leave one candidate: a = trace/2 for q odd.  For q even,
    unit = (unit^(q/2))^2 and the separable prime is not a square, so
    unit*prime^m has the square root unit^(q/2) prime^(m/2) when m is
    even and none when m is odd.  The candidate is accepted only if
    phi(a) = tau^n.
    """
    fq = mod.tower.fq
    if fq.p != 2:
        a = cp.trace.scale(fq.inv(2))
    elif mod.m % 2 == 0:
        a = mod.prime.pow(mod.m // 2).scale(fq.pow(cp.unit, fq.q // 2))
    else:
        return None
    return a if mod.phi(a) == mod.frobenius() else None


def frobenius_charpoly(mod):
    """The characteristic polynomial of tau^n acting on the module.

    Raises RuntimeError unless the annihilation identity holds for it.
    Results are cached on the module instance.
    """
    if mod._charpoly is not None:
        return mod._charpoly
    chi, _ = mod.action_invariants()
    unit = frobenius_unit(mod.tower, mod.delta)
    trace = _weil_trace(mod.prime, mod.m, unit, chi)
    cp = FrobeniusCharPoly(trace, unit, mod.prime, mod.m)
    if cp.disc.is_zero():
        a = _frobenius_witness(mod, cp)
        if a is not None:
            cp = replace(cp, frobenius_in_image=a)
    if not cp.trace_degree_ok():
        raise RuntimeError("trace degree violates the half-degree bound")
    if not annihilation_holds(mod, cp):
        raise RuntimeError("the annihilation identity fails for (c, mu) = (%s, %d)"
                           % (trace, unit))
    mod._charpoly = cp
    return cp


def frobenius_unit(tower, delta):
    """The unit (-1)^n N(delta)^(-1) of P, N(delta) = delta^((q^n-1)/(q-1))
    the norm from L to F_q; one table pow."""
    fq = tower.fq
    unit = fq.inv(tower.pow(delta, (tower.order - 1) // (tower.q - 1)))
    return fq.neg(unit) if tower.n % 2 else unit


def annihilation_holds(mod, cp=None):
    """Exact check of tau^(2n) - phi(trace) tau^n + phi(unit prime^m) = 0."""
    return not any(_annihilation_residue(mod, cp or frobenius_charpoly(mod)))


def _annihilation_residue(mod, cp):
    """The coefficients, low degree first, of tau^(2n) - phi(trace) tau^n
    + phi(unit prime^m) in L{tau}."""
    n = mod.n
    out = [0] * max(2 * n + 1, n + 2 * len(cp.trace.coeffs), 2 * len(cp.norm.coeffs))
    out[2 * n] = 1
    mod._phi_into(out, cp.neg_trace, n)
    mod._phi_into(out, cp.norm.coeffs)
    return out


def euler_characteristic(mod):
    """The ideal generated by P(1); its degree equals n."""
    chi = frobenius_charpoly(mod).chi
    if chi.degree() != mod.n:
        raise RuntimeError("deg P(1) = %d differs from n = %d" % (chi.degree(), mod.n))
    return MonicIdeal(chi)


def is_imaginary(disc):
    """True if the place at infinity does not split in K(sqrt(disc)):
    deg odd, or deg even with a non-square leading coefficient."""
    if disc.is_zero():
        return False
    if disc.degree() % 2 == 1:
        return True
    return not disc.fq.is_square(disc.lc())

