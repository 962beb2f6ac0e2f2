"""Rank-2 Drinfeld F_q[T]-modules over the finite field L.

A module is the data Phi_T = gamma(T) + g*tau + delta*tau^2 with
delta != 0, where gamma(T) is the canonical root in L of the monic
irreducible `prime` (the kernel of the structure map A -> L) and
n = m * deg(prime).  Phi extends to a ring homomorphism A -> L{tau};
its image endows L, and every extension of L, with an A-module
structure.
"""

from dataclasses import dataclass

from .fields import FieldElement, FieldEmbedding, build_tower, nullspace, gauss_solve
from .fields import MAX_FIELD_ORDER, SizeBoundError
from .ore import OrePoly
from .polys import MonicIdeal, UPoly, embed_residue_field


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
            from .structure import nonunit_invariant_factors

            factors = nonunit_invariant_factors(act, fq)
            return TorsionStructure(ideal, tuple(factors), tw.q ** len(null), e)
        raise SplittingBoundError(
            "splitting field of %s-torsion not found within degree %d"
            % (ideal, max_splitting_degree))


@dataclass(frozen=True)
class TorsionStructure:
    """Invariant factors of the kernel of phi_I in a splitting extension."""

    ideal: MonicIdeal
    invariant_factors: tuple
    root_count: int
    splitting_degree: int

    def factor_multiset(self):
        return tuple(sorted(f.coeffs for f in self.invariant_factors))
