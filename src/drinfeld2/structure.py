"""The A-module structure induced on L: invariant factors from the action
of phi_T on L, the divisibility criteria they satisfy, the
right-division test for rational plane torsion, and the realization
search that produces a module with a prescribed structure.
"""

from .charpoly import FrobeniusCharPoly, _weil_trace, frobenius_charpoly, frobenius_unit
from .drinfeld import DrinfeldModule, invariants, phi_into, sigma_orbits, twist_orbits
from .polys import _Value, residue_root


class InvariantFactors(_Value):
    """L as an A-module is A/(i1) + A/(i2) with i2 | i1 (i2 = 1 when cyclic)."""

    __slots__ = _fields = ("i1", "i2")

    def __init__(self, i1, i2):
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)

    def is_cyclic(self):
        return self.i2.is_one()

    def as_pair(self):
        return (self.i1.coeffs, self.i2.coeffs)


def module_structure(mod):
    """Invariant factors of L as an A-module via phi.

    i1 is the minimal polynomial of M: x -> phi_T(x) on L and
    i2 = det(T*I - M) / i1.  Raises RuntimeError when i1 does not divide
    det(T*I - M), when i2 does not divide i1, or when the rank check finds
    more than two invariant factors, which the rank-2 theory forbids.
    """
    _, i1, i2 = mod.action_invariants()
    return InvariantFactors(i1, i2)


CRITERIA = ("i2_divides_i1", "product_is_chi", "i2_divides_c_minus_2", "i_sq_divides_chi")


def check_criteria(cp, inv):
    """Divisibility facts the structure inv must satisfy in the isogeny
    class of the characteristic polynomial cp; returns flags named as in
    CRITERIA, does not raise.  The trace clause is only a theorem for
    ordinary classes, the caller decides what to assert."""
    i1, i2 = cp.chi._check(inv.i1), cp.chi._check(inv.i2)  # ValueError over another field
    return dict(zip(CRITERIA, criteria(cp.chi.fq.kernel, cp.chi.coeffs, cp.c_minus_2.coeffs,
                                       i1.coeffs, i2.coeffs)))


def criteria(kernel, chi, c_minus_2, i1, i2):
    """The flags of check_criteria, in the order of CRITERIA, for kernel
    tuples: i2 | i1, monic(i1 i2) = chi, i2 | c - 2 and i2^2 | chi."""
    product = kernel.mul(i1, i2)
    divides_i1 = not kernel.divmod(i1, i2)[1]  # ZeroDivisionError for i2 = 0
    if not product:
        raise ValueError("the zero polynomial has no monic normalization")
    return (divides_i1, kernel.monic(product) == chi, not kernel.divmod(c_minus_2, i2)[1],
            not kernel.divmod(chi, kernel.mul(i2, i2))[1])


def plane_torsion_rational(mod, rho):
    """True iff the full rho-torsion plane (A/rho)^2 sits inside L; see
    plane_torsion.  Raises ValueError unless rho is a monic irreducible
    other than the characteristic prime, over the tower's base field."""
    if not rho.is_monic() or not rho.is_irreducible():
        raise ValueError("rho must be monic irreducible")
    if rho == mod.prime:
        raise ValueError("rho must differ from the characteristic prime")
    if rho.fq != mod.tower.fq:
        raise ValueError("phi takes a polynomial over the tower's base field")
    return plane_torsion(mod.tower, mod.gamma_t, mod.g, mod.delta, rho.coeffs)


def plane_torsion(tower, gamma, g, delta, rho):
    """True iff the full rho-torsion plane (A/rho)^2 sits inside L, for
    phi_T = gamma + g tau + delta tau^2 and rho the kernel tuple of a
    monic irreducible other than the prime, which is not checked here.

    Operationally: tau^n - 1 is right-divisible by phi(rho), i.e. the
    kernel of phi(rho) lies in the kernel of F - 1, which is L itself.
    Cross-validated against the invariant factors (equivalent to
    rho | i2)."""
    phi_rho = [0] * (2 * len(rho) - 1)
    phi_into(tower, gamma, g, delta, phi_rho, (rho, 0))
    return not _right_remainder(tower, [tower.neg(1)] + [0] * (tower.n - 1) + [1], phi_rho)


def _right_remainder(tower, r, g):
    """Reduce the list r in place to its remainder on right division by
    g in L{tau}, r = q*g + rem with deg rem < deg g, and return it with
    no trailing zeros; both hold coefficients, low tau-degree first, and
    g ends in a nonzero entry.  No quotient is kept.  Each step cancels
    the leading term of r with (c tau^k) g, whose leading coefficient is
    c lc(g)^(q^k), so no root is extracted."""
    dg = len(g) - 1
    neg_inv_lc = tower.neg(tower.inv(g[-1]))
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) <= dg:
            return r
        k = len(r) - 1 - dg
        tower.add_scaled(r, k, tower.mul(r[-1], tower.frob(neg_inv_lc, k)), g, k)


# ---------------------------------------------------------------------------
# Realization: produce a module with prescribed invariant factors.


class NotRealizable(_Value):
    """Negative result of realize_structure, naming the violated condition."""

    __slots__ = _fields = ("reason",)

    def __init__(self, reason):
        object.__setattr__(self, "reason", reason)

    def __bool__(self):
        return False


def _candidate_isogeny_keys(tower, prime, m, i1, i2):
    """The ordinary (trace, unit) with P(1) = unit*i1*i2 and i2 | trace - 2,
    sorted by (trace coefficients, unit).  deg trace <= m*d/2 < n makes
    unit the leading coefficient of P(1), so each unit fixes the trace."""
    chi = (i1 * i2).coeffs
    out = []
    for unit in tower.fq.units():
        cp = FrobeniusCharPoly(_weil_trace(prime, m, unit, chi), unit, prime, m)
        if cp.trace_degree_ok() and cp.ordinary and (cp.c_minus_2 % i2).is_zero():
            out.append((cp.trace, unit))
    return sorted(out, key=lambda key: (key[0].coeffs, key[1]))


def realize_structure(tower, prime, m, i1, i2):
    """Search for an ordinary module whose A-module structure is exactly
    A/(i1) + A/(i2), on any tower build_tower accepts.

    Candidate isogeny classes, at most one per unit, are visited in
    lexicographic (trace, unit) order and for each one the pairs
    (g, delta) in lexicographic order; the first witness wins.  Only
    sigma-heads (drinfeld.sigma_orbits) are tried: twists and x -> x^(q^d)
    keep class and structure, so the least witness of a class is a head.
    A head of structure (i1, i2) has chi = i1*i2, so its unit names its
    class: heads of another unit are skipped, the others are classified by
    the kernel drinfeld.invariants, and only the witness becomes a module
    and runs frobenius_charpoly, whose annihilation check guards the answer.
    Returns a DrinfeldModule or a NotRealizable naming the failed
    condition.  A prime that is not monic irreducible with
    m * deg(prime) = n, invariant factors over another field and a zero
    invariant factor raise ValueError before any condition is read.
    """
    gamma = residue_root(tower, prime)  # ValueError unless monic irreducible, deg | n
    if tower.n != m * prime.degree():
        raise ValueError("tower degree differs from m * deg(prime)")
    if i1.fq != tower.fq or i2.fq != tower.fq:
        raise ValueError("invariant factors must be polynomials over the tower's base field")
    if i1.is_zero() or i2.is_zero():
        raise ValueError("invariant factors must be nonzero")
    if not (i1.is_monic() and i2.is_monic()):
        return NotRealizable("invariant factors must be monic")
    if i1.degree() + i2.degree() != tower.n:
        return NotRealizable("degree: deg(i1) + deg(i2) must equal n")
    if not (i1 % i2).is_zero():
        return NotRealizable("divisibility: i2 must divide i1")
    candidates = _candidate_isogeny_keys(tower, prime, m, i1, i2)
    if not candidates:
        return NotRealizable(
            "no ordinary isogeny class matches (needs P(1) = i1*i2 up to a "
            "unit and i2 | trace - 2)")
    want = (i1.coeffs, i2.coeffs)
    orbits = twist_orbits(tower)
    heads = [orbits[group[0]][0] for group in sigma_orbits(tower, prime.degree(), orbits)]
    for trace, unit in candidates:
        for g, delta in heads:
            if frobenius_unit(tower, delta) != unit:
                continue
            found = invariants(tower, gamma, g, delta)
            if found[1:] == want:
                mod = DrinfeldModule(tower, prime, g, delta)
                mod._invariants = found  # so frobenius_charpoly runs no second Krylov pass
                cp = frobenius_charpoly(mod)
                if (cp.trace, cp.unit) != (trace, unit):
                    raise RuntimeError("the witness lies outside its candidate class")
                return mod
    return NotRealizable("no witness found in any matching isogeny class")
