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

When the discriminant vanishes, F may lie in the image of phi (which
forces m even); a linear solve over F_q looks for the witness a with
phi(a) = tau^n, and P is then (X - a)^2.
"""

from dataclasses import dataclass

from .fields import gauss_solve
from .ore import OrePoly
from .polys import MonicIdeal, UPoly


@dataclass(frozen=True)
class FrobeniusCharPoly:
    """X^2 - trace*X + unit*prime^m, the characteristic polynomial of tau^n."""

    trace: UPoly
    unit: int
    prime: UPoly
    ext_degree: int
    # when tau^n = phi(a) for some a in A (so the minimal polynomial is
    # X - a and this polynomial is its square), that witness; else None
    frobenius_in_image: UPoly = None

    def norm_term(self):
        """The constant coefficient unit * prime^m, an element of A."""
        return self.prime.pow(self.ext_degree).scale(self.unit)

    def chi_poly(self):
        """Monic generator of the Euler-Poincare characteristic: the monic
        normalization of P(1) = 1 - trace + unit*prime^m."""
        val = UPoly.one(self.trace.fq) - self.trace + self.norm_term()
        if val.is_zero():
            raise RuntimeError("P(1) = 0; the Frobenius cannot fix a nonzero point")
        return val.monic()

    def disc_poly(self):
        """The discriminant trace^2 - 4*unit*prime^m as an element of A."""
        four = UPoly.constant(self.trace.fq, 4 % self.trace.fq.p)
        return self.trace * self.trace - four * self.norm_term()

    def key(self):
        """Hashable identity of the isogeny class."""
        return (self.trace.coeffs, self.unit)

    def eval_at(self, a):
        """P(a) for a in A."""
        return a * a - self.trace * a + self.norm_term()

    def trace_degree_ok(self):
        """Hasse-Weil analogue: 2*deg(trace) <= m*deg(prime)."""
        return 2 * self.trace.degree() <= self.ext_degree * self.prime.degree()


def _ore_columns_to_rows(tower, columns, rhs_poly, width):
    """Flatten Ore coefficient vectors into F_q rows (one per (tau-power,
    digit) pair) for a linear solve."""
    rows = []
    rhs = []
    n = tower.n
    for k in range(width):
        digs = []
        for col in columns:
            c = col.coeffs[k] if k < len(col.coeffs) else 0
            digs.append(tower.vector(c))
        r = rhs_poly.coeffs[k] if k < len(rhs_poly.coeffs) else 0
        rv = tower.vector(r)
        for t in range(n):
            rows.append([digs[j][t] for j in range(len(columns))])
            rhs.append(rv[t])
    return rows, rhs


def _solve_frobenius_in_image(mod):
    """Look for a in A with phi(a) = tau^n; only possible when n is even.

    Returns the witness polynomial or None.
    """
    n = mod.n
    if n % 2 != 0:
        return None
    tower = mod.tower
    half = n // 2
    columns = [mod._t_power(j) for j in range(half + 1)]
    rhs = mod.frobenius()
    rows, rhs_v = _ore_columns_to_rows(tower, columns, rhs, n + 1)
    status, sol = gauss_solve(tower.fq, rows, rhs_v)
    if status == "none":
        return None
    if status != "unique":
        raise RuntimeError("phi is not injective on the search space")
    return UPoly(tower.fq, sol)


def frobenius_charpoly(mod):
    """The characteristic polynomial of tau^n acting on the module.

    Raises RuntimeError unless the annihilation identity holds for it.
    Results are cached on the module instance.
    """
    if mod._charpoly is not None:
        return mod._charpoly
    tower = mod.tower
    fq = tower.fq
    _, chi, _ = mod.action_invariants()
    norm = tower.pow(mod.delta, (tower.order - 1) // (tower.q - 1))
    unit = fq.inv(norm)
    if mod.n % 2:
        unit = fq.neg(unit)
    norm_term = mod.prime.pow(mod.m).scale(unit)
    trace = UPoly.one(fq) + norm_term - chi.scale(unit)
    cp = FrobeniusCharPoly(trace, unit, mod.prime, mod.m)
    if cp.disc_poly().is_zero():
        a = _solve_frobenius_in_image(mod)
        if a is not None:
            if a + a != trace or a * a != norm_term:
                raise RuntimeError("tau^n = phi(%s) but (X - %s)^2 is not the "
                                   "characteristic polynomial" % (a, a))
            cp = FrobeniusCharPoly(trace, unit, mod.prime, mod.m, frobenius_in_image=a)
    if not cp.trace_degree_ok():
        raise RuntimeError("trace degree violates the half-degree bound")
    if not annihilation_holds(mod, cp):
        raise RuntimeError("the annihilation identity fails for (c, mu) = (%s, %d)"
                           % (trace, unit))
    mod._charpoly = cp
    return cp


def annihilation_holds(mod, cp=None):
    """Exact check of tau^(2n) - phi(trace) tau^n + phi(unit prime^m) = 0."""
    if cp is None:
        cp = frobenius_charpoly(mod)
    tw = mod.tower
    lhs = OrePoly.tau_power(tw, 2 * mod.n)
    lhs = lhs - mod.phi(cp.trace).shift(mod.n)
    lhs = lhs + mod.phi(cp.norm_term())
    return lhs.is_zero()


def euler_characteristic(mod):
    """The ideal generated by P(1); its degree equals n."""
    chi = frobenius_charpoly(mod).chi_poly()
    if chi.degree() != mod.n:
        raise RuntimeError("deg P(1) = %d differs from n = %d" % (chi.degree(), mod.n))
    return MonicIdeal(chi)


def discriminant(cp):
    """The discriminant of the characteristic polynomial, as an element of A.

    For q even this degenerates to trace^2; callers flag that case.
    """
    return cp.disc_poly()


def is_imaginary(disc, fq):
    """True if the place at infinity does not split in K(sqrt(disc)):
    deg odd, or deg even with a non-square leading coefficient."""
    if disc.is_zero():
        return False
    if disc.degree() % 2 == 1:
        return True
    return not fq.is_square(disc.lc())


def is_isogenous(mod_a, mod_b):
    """True iff the two modules have equal characteristic polynomials."""
    if not mod_a.same_category(mod_b):
        raise ValueError("modules are not comparable (different tower, prime or m)")
    return frobenius_charpoly(mod_a).key() == frobenius_charpoly(mod_b).key()


def minimal_polynomial(mod):
    """The monic minimal polynomial of F = tau^n over the fraction field,
    as a list of A-coefficients, constant term first.

    Degree 1 exactly when tau^n lies in the image of phi; otherwise it is
    the characteristic polynomial.  In both cases it divides the
    characteristic polynomial.
    """
    cp = frobenius_charpoly(mod)
    fq = cp.trace.fq
    if cp.frobenius_in_image is not None:
        a = cp.frobenius_in_image
        return [-a, UPoly.one(fq)]
    return [cp.norm_term(), -cp.trace, UPoly.one(fq)]


def minimal_polynomial_annihilates(mod):
    """Exact check that M(F) = 0 in L{tau}."""
    coeffs = minimal_polynomial(mod)
    tw = mod.tower
    acc = OrePoly.zero(tw)
    for k, a in enumerate(coeffs):
        if not a.is_zero():
            acc = acc + mod.phi(a).shift(mod.n * k)
    return acc.is_zero()
