"""Rank-2 Drinfeld F_q[T]-modules over the finite field L.

A module is the data Phi_T = gamma(T) + g*tau + delta*tau^2 with
delta != 0, where gamma(T) is the canonical root in L of the monic
irreducible `prime` (the kernel of the structure map A -> L) and
n = m * deg(prime).  Phi extends to a ring homomorphism A -> L{tau};
its image endows L, and every extension of L, with an A-module
structure.
"""

from dataclasses import dataclass
from math import gcd

from .fields import FieldElement, FieldEmbedding, build_tower, nullspace, gauss_solve
from .fields import (MAX_FIELD_ORDER, SizeBoundError, char_and_min_poly,
                     second_invariant_factor)
from .ore import OrePoly
from .polys import MonicIdeal, UPoly, _wrap, embed_residue_field


class SplittingBoundError(SizeBoundError):
    """The splitting field of a torsion polynomial exceeds the search bound."""


class DrinfeldModule:
    """The rank-2 module determined by (tower, prime, g, delta)."""

    def __init__(self, tower, prime, g, delta):
        if not isinstance(prime, UPoly) or prime.fq != tower.fq:
            raise ValueError("prime must be a polynomial over the tower's base field")
        if not prime.is_monic() or not prime.is_irreducible():
            raise ValueError("prime must be monic irreducible")
        d = prime.degree()
        if tower.n % d != 0:
            raise ValueError("deg(prime) = %d must divide n = %d" % (d, tower.n))
        g = tower.element(g).value
        delta = tower.element(delta).value
        if delta == 0:
            raise ValueError("the tau^2 coefficient delta must be nonzero")
        self.tower = tower
        self.prime = prime
        self.d = d
        self.m = tower.n // d
        self.n = tower.n
        self.gamma_t = embed_residue_field(tower, prime).value
        self.g = g
        self.delta = delta
        self.phi_t = OrePoly(tower, (self.gamma_t, g, delta))
        self._t_powers = [OrePoly.one(tower), self.phi_t]
        self._charpoly = None
        self._action = None

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule)
                and self.tower == other.tower and self.prime == other.prime
                and self.m == other.m
                and (self.g, self.delta) == (other.g, other.delta))

    def __hash__(self):
        return hash((self.tower, self.prime, self.g, self.delta))

    def __repr__(self):
        return ("DrinfeldModule(q=%d, n=%d, prime=%s, g=%s, delta=%s)"
                % (self.tower.q, self.n, self.prime,
                   self.g_element(), self.delta_element()))

    def g_element(self):
        return FieldElement(self.tower, self.g)

    def delta_element(self):
        return FieldElement(self.tower, self.delta)

    def same_category(self, other):
        """True if other is defined over the same tower with the same prime
        and extension degree, so the two can be compared up to isogeny."""
        return (self.tower == other.tower and self.prime == other.prime
                and self.m == other.m)

    # -- the homomorphism ------------------------------------------------------

    def _t_power(self, k):
        powers = self._t_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.phi_t)
        return powers[k]

    def phi(self, a):
        """The image of a in L{tau}; additive and multiplicative in a."""
        if isinstance(a, int):
            a = UPoly.constant(self.tower.fq, a)
        if a.fq != self.tower.fq:
            raise ValueError("argument lives over a different base field")
        tw = self.tower
        acc = OrePoly.zero(tw)
        for k, c in enumerate(a.coeffs):
            if c:
                acc = acc + self._t_power(k).scale_left(c)
        return acc

    def phi_ideal(self, ideal):
        """Monic generator of the left ideal generated by the image of the
        ideal; A is a principal ideal domain so this is the monic
        normalization of phi of the generator."""
        if isinstance(ideal, UPoly):
            ideal = MonicIdeal(ideal)
        if ideal.is_unit():
            return OrePoly.one(self.tower)
        return self.phi(ideal.gen).monic()

    def phi_ideal_two_generators(self, a, b):
        """Same result computed from two generators of the ideal (a, b) by a
        right gcd; kept as a cross-check of the principal-generator path."""
        return self.phi(a).right_gcd(self.phi(b))

    def gamma(self, a):
        """The structure map A -> L (constant term of phi(a))."""
        return a.eval_in_tower(self.tower, self.gamma_t)

    def frobenius(self):
        """F = tau^n as an element of L{tau}."""
        return OrePoly.tau_power(self.tower, self.n)

    def action_invariants(self):
        """(M, chi, i1): M = action_matrix(self), chi = det(T*I - M) and i1
        the minimal polynomial of M, from one Krylov pass over F_q; cached.
        The characteristic polynomial and the invariant factors both start
        from it."""
        if self._action is None:
            mat = action_matrix(self)
            chi, i1 = char_and_min_poly(self.tower.fq, mat)
            self._action = (mat, _wrap(self.tower.fq, chi), _wrap(self.tower.fq, i1))
        return self._action

    # -- height and supersingularity -------------------------------------------

    def height(self):
        """The height h in {1, 2}: the least tau-power in phi(prime),
        divided by deg(prime)."""
        ht = self.phi(self.prime).height()
        if ht % self.d != 0:
            raise RuntimeError(
                "height %d of phi(prime) is not a multiple of deg(prime) = %d"
                % (ht, self.d))
        h = ht // self.d
        if h not in (1, 2):
            raise RuntimeError("height %d outside the rank-2 range" % h)
        return h

    def is_supersingular(self):
        return self.height() == 2

    def is_ordinary(self):
        return self.height() == 1

    # -- torsion ----------------------------------------------------------------

    def torsion_structure(self, ideal, max_splitting_degree=10):
        """Invariant factors of the kernel of phi_I over a splitting extension.

        Counts the roots of the additive polynomial phi_I in extensions
        L_e of L of increasing degree e until the separable kernel is
        complete, then reads off the A-module structure of the root space
        from the action of T on it.
        """
        if isinstance(ideal, UPoly):
            ideal = MonicIdeal(ideal)
        tw = self.tower
        f = self.phi_ideal(ideal)
        if f.degree() == 0:
            return TorsionStructure(ideal, (), 1, 1)
        want = f.degree() - f.height()  # F_q-dimension of the kernel
        if want == 0:
            # purely inseparable: the torsion module is trivial
            return TorsionStructure(ideal, (), 1, 1)
        fq = tw.fq
        for e in range(1, max_splitting_degree + 1):
            if tw.q ** (tw.n * e) > MAX_FIELD_ORDER:
                break
            big = build_tower(tw.p, tw.s, tw.n * e)
            emb = FieldEmbedding(tw, big)
            dim = big.n
            basis = [big.q ** j for j in range(dim)]
            cols = [big.vector(f.apply(b, embedding=emb)) for b in basis]
            rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
            null = nullspace(fq, rows)
            if len(null) < want:
                continue
            if len(null) > want:
                raise RuntimeError("kernel larger than the separable degree")
            kernel = [big.from_vector(v) for v in null]
            # matrix of T acting on the kernel, in the nullspace basis
            kcols = [list(v) for v in null]
            kmat_rows = [[kcols[j][i] for j in range(len(null))] for i in range(dim)]
            tmat = []
            for v in kernel:
                img = self.phi_t.apply(v, embedding=emb)
                status, coords = gauss_solve(fq, kmat_rows, list(big.vector(img)))
                if status == "none":
                    raise RuntimeError("kernel is not stable under T")
                tmat.append(coords)
            # columns of the action matrix are the coordinate vectors
            k = len(null)
            act = [[tmat[j][i] for j in range(k)] for i in range(k)]
            chi, i1 = char_and_min_poly(fq, act)
            i2 = second_invariant_factor(fq, act, chi, i1)
            factors = tuple(_wrap(fq, f) for f in (i2, i1) if len(f) > 1)
            return TorsionStructure(ideal, factors, tw.q ** len(null), e)
        raise SplittingBoundError(
            "splitting field of %s-torsion not found within degree %d"
            % (ideal, max_splitting_degree))


def action_matrix(mod):
    """Matrix over F_q of x -> phi_T(x) on L in the canonical power basis;
    column j holds the coordinates of the image of the j-th basis vector."""
    tw = mod.tower
    n = tw.n
    cols = [tw.vector(mod.phi_t.apply(tw.q ** j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def twist_orbits(tower):
    """Isomorphism classes of rank-2 modules over L: the orbits of L x L^*
    under u: (g, delta) -> (u^(q-1) g, u^(q^2-1) delta), u in L^*.

    Returns (rep, orbit_size, aut_count) in increasing order of rep, with
    rep the lexicographically least pair of its orbit and aut_count the
    order of its stabilizer.  Both come from the group structure:

    - g = 0: the orbits are the cosets of (L^*)^(q^2-1) in L^*, and the
      stabilizer is {u : u^(q^2-1) = 1}, of order
      e = gcd(q^2-1, q^n-1) = q^gcd(2,n) - 1.  One orbit (0, d) for each
      d least in its coset; its size is (q^n-1)/e.
    - g != 0: u fixes g iff u^(q-1) = 1, i.e. u in F_q^*, and then
      u^(q^2-1) = (u^(q-1))^(q+1) = 1 fixes delta, so aut_count = q-1.
      g moves through its coset of (L^*)^(q-1); for the least element
      g_min of that coset the u with u^(q-1) g = g_min is unique up to
      F_q^*, so the orbit holds exactly one pair (g_min, d), and every
      d in L^* occurs.  One orbit (g_min, d) per coset minimum and d.

    Cosets: with gamma = tower.generator, (L^*)^k = <gamma^step> for
    step = gcd(k, q^n-1), so the coset of gamma^i is
    {gamma^(i + j*step)}, the slice powers[i::step] of
    powers = [gamma^0, ..., gamma^(q^n-2)].  O(|L|) time and memory.
    """
    q = tower.q
    units = tower.order - 1
    powers = [tower.pow(tower.generator, k) for k in range(units)]

    def coset_minima(k):
        step = gcd(k, units)
        return sorted(min(powers[i::step]) for i in range(step))

    e = gcd(q * q - 1, units)
    orbits = [((0, d), units // e, e) for d in coset_minima(q * q - 1)]
    for g in coset_minima(q - 1):
        orbits.extend(((g, d), units // (q - 1), q - 1) for d in tower.units())
    return orbits


def orbit_members(tower, rep):
    """The members of the twist orbit of rep = (g, delta), sorted."""
    q = tower.q
    g, delta = rep
    return sorted({(tower.mul(tower.pow(u, q - 1), g),
                    tower.mul(tower.pow(u, q * q - 1), delta))
                   for u in tower.units()})


@dataclass(frozen=True)
class TorsionStructure:
    """Invariant factors of the kernel of phi_I in a splitting extension."""

    ideal: MonicIdeal
    invariant_factors: tuple
    root_count: int
    splitting_degree: int

    def factor_multiset(self):
        return tuple(sorted(f.coeffs for f in self.invariant_factors))
