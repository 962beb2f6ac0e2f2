"""Rank-2 Drinfeld F_q[T]-modules over the finite field L.

A module is the data Phi_T = gamma(T) + g*tau + delta*tau^2 with
delta != 0, where gamma(T) is the canonical root in L of the monic
irreducible `prime` (the kernel of the structure map A -> L) and
n = m * deg(prime).  Phi extends to a ring homomorphism A -> L{tau};
its image endows L, and every extension of L, with an A-module
structure.

An element of L{tau} is its tuple of coefficients, low tau-degree
first: phi_t is (gamma(T), g, delta) and phi(a) is such a tuple.  The
per-module work runs on plain ints, from (tower, gamma, g, delta)
alone: phi_step is the map x -> phi_T(x) on L, invariants classifies
L under it with one Krylov pass, phi_into adds phi(a) tau^at into a
coefficient list by Horner's rule, and phi_height reads the height off
phi(prime).  structure.classify combines them into the one
classification of a module, for a census head, the CLI and realize's
witness alike; a census checks the members of a twist orbit with
invariants and the annihilation residue directly, and realize filters
heads with invariants, without building a module per head or member.
DrinfeldModule holds validated data, and its phi is a view of phi_into;
a module's height and ordinarity come from structure.classify_module,
behind its guards.
"""

from math import gcd

from .fields import char_and_min_poly, second_invariant_factor
from .polys import UPoly, residue_root


class DrinfeldModule:
    """The rank-2 module determined by (tower, prime, g, delta)."""

    def __init__(self, tower, prime, g, delta):
        # raises ValueError unless prime is monic irreducible over tower.fq
        # with deg(prime) | n; memoized, so each prime is checked once
        self.gamma_t = residue_root(tower, prime)
        g, delta = tower.element(g), tower.element(delta)
        if delta == 0:
            raise ValueError("the tau^2 coefficient delta must be nonzero")
        self.tower = tower
        self.prime = prime
        self.d = prime.degree()
        self.m = tower.n // self.d
        self.n = tower.n
        self.g = g
        self.delta = delta
        self.phi_t = (self.gamma_t, g, delta)

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule)
                and self.tower == other.tower and self.prime == other.prime
                and (self.g, self.delta) == (other.g, other.delta))

    def __hash__(self):
        return hash((self.tower, self.prime, self.g, self.delta))

    def __repr__(self):
        return ("DrinfeldModule(q=%d, n=%d, prime=%s, g=%s, delta=%s)"
                % (self.tower.q, self.n, self.prime,
                   self.tower.format(self.g), self.tower.format(self.delta)))

    # -- the homomorphism ------------------------------------------------------

    def phi(self, a):
        """The coefficients of phi(a) in L{tau}, low tau-degree first, for a
        in A; additive and multiplicative in a.  phi(a) has degree 2 deg a
        (delta != 0), so the tuple ends in a nonzero entry."""
        if not isinstance(a, UPoly) or a.fq != self.tower.fq:
            raise ValueError("phi takes a polynomial over the tower's base field")
        out = [0] * max(0, 2 * len(a.coeffs) - 1)
        phi_into(self.tower, self.gamma_t, self.g, self.delta, out, (a.coeffs, 0))
        return tuple(out)


def phi_step(tower, gamma, g, delta):
    """The F_q-linear map x -> phi_T(x) = delta x^(q^2) + g x^q + gamma x
    on L, in log space with the logs of the coefficients bound once; each
    sum is a Zech lookup.  The Krylov step of invariants."""
    exp, log, zech, frob = tower._exp, tower._log, tower._zech, tower._frob
    l0, l1, l2 = log[gamma], log[g], log[delta]
    f1, f2 = frob[1 % tower.n], frob[2 % tower.n]

    def step(x):
        if not x:
            return 0
        out = exp[l2 + log[f2[x]]]  # nonzero: delta != 0
        if g:
            lv = l1 + log[f1[x]]
            out = exp[log[out] + zech[lv - log[out]]]
        if gamma:
            lv = l0 + log[x]
            out = exp[log[out] + zech[lv - log[out]]] if out else exp[lv]
        return out

    return step


def invariants(tower, gamma, g, delta):
    """(chi, i1, i2) as kernel tuples for L under phi_T = gamma + g tau +
    delta tau^2: one phi_step, one Krylov pass (char_and_min_poly) for
    chi and i1, and second_invariant_factor for i2 and its checks, which
    raise RuntimeError."""
    step = phi_step(tower, gamma, g, delta)
    chi, i1 = char_and_min_poly(tower, step)
    return chi, i1, second_invariant_factor(tower, step, chi, i1)


def phi_height(tower, gamma, g, delta, prime):
    """The height h in {1, 2} of phi_T = gamma + g tau + delta tau^2 at
    its characteristic prime: the least tau-power in phi(prime), divided
    by deg(prime).  Raises RuntimeError for any other value."""
    coeffs = prime.coeffs
    out = [0] * (2 * len(coeffs) - 1)
    phi_into(tower, gamma, g, delta, out, (coeffs, 0))
    ht = next(k for k, c in enumerate(out) if c)
    d = len(coeffs) - 1
    if ht % d != 0:
        raise RuntimeError(
            "height %d of phi(prime) is not a multiple of deg(prime) = %d" % (ht, d))
    h = ht // d
    if h not in (1, 2):
        raise RuntimeError("height %d outside the rank-2 range" % h)
    return h


def phi_into(tower, gamma, g, delta, out, *parts):
    """Add phi(a) tau^at into the coefficient list out for each (a, at)
    in parts, a the coefficient tuple of an element of A; out must reach
    degree at + 2 deg a.

    Horner's rule, phi(a) = a_0 + phi_T (a_1 + phi_T (a_2 + ...)): each
    step left-multiplies by phi_T, which sends y tau^j to gamma y tau^j +
    g y^q tau^(j+1) + delta y^(q^2) tau^(j+2), and the last step adds
    into out at tau^at.  Sums are Zech lookups, as in phi_step; the three
    terms are written out, which takes a quarter off a loop over them."""
    exp, log, zech, frob = tower._exp, tower._log, tower._zech, tower._frob
    l0, l1, l2 = log[gamma], log[g], log[delta]
    f1, f2 = frob[1 % tower.n], frob[2 % tower.n]
    for a, at in parts:
        acc = ()
        for i in range(len(a) - 1, -1, -1):  # acc <- phi_T acc + a_i
            if i:
                base, dst = 0, [0] * (len(acc) + 2)
            else:
                base, dst = at, out
            for j, y in enumerate(acc, base):
                if not y:
                    continue
                if gamma:
                    lv, o = l0 + log[y], dst[j]
                    dst[j] = exp[log[o] + zech[lv - log[o]]] if o else exp[lv]
                if g:
                    lv, o = l1 + log[f1[y]], dst[j + 1]
                    dst[j + 1] = exp[log[o] + zech[lv - log[o]]] if o else exp[lv]
                lv, o = l2 + log[f2[y]], dst[j + 2]
                dst[j + 2] = exp[log[o] + zech[lv - log[o]]] if o else exp[lv]
            c, o = a[i], dst[base]
            if c:  # c in F_q is the same int in L
                dst[base] = exp[log[o] + zech[log[c] - log[o]]] if o else c
            acc = dst


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
    {gamma^(i + j*step)}; see _coset_minima.  O(|L|) time and memory.
    """
    q = tower.q
    units = tower.order - 1
    e = gcd(q * q - 1, units)
    orbits = [((0, d), units // e, e) for d in sorted(_coset_minima(tower, q * q - 1))]
    for g in sorted(_coset_minima(tower, q - 1)):
        orbits.extend(((g, d), units // (q - 1), q - 1) for d in tower.units())
    return orbits


def _coset_minima(tower, k):
    """The least element of each coset of (L^*)^k = <gamma^step>,
    step = gcd(k, |L| - 1), indexed by the common residue of its logs
    mod step: the coset of gamma^i is the slice powers[i::step]."""
    units = tower.order - 1
    step = gcd(k, units)
    powers = tower._exp[:units]
    return [min(powers[i::step]) for i in range(step)]


def sigma_orbits(tower, d, orbits):
    """The orbits of sigma: x -> x^(q^d) on the twist orbits, for orbits
    as listed by twist_orbits(tower) and d = deg(prime).

    sigma fixes F_{q^d}, which holds gamma(T), so it is an isomorphism of
    A-modules from L^phi to L^(phi^sigma), with phi^sigma_T = gamma +
    sigma(g) tau + sigma(delta) tau^2: the two share (c, mu), chi, the
    invariant factors, the height and the rational planes.
    sigma(u . (g, delta)) = sigma(u) . sigma(g, delta), so sigma permutes
    the twist orbits, and sigma^m is the identity on L.

    Returns lists of indices into orbits, one per sigma-orbit in order of
    its least index, each starting there and following sigma.  The image
    of a pair is found from discrete logs, log sigma(x) = q^d log x: a pair
    (0, delta) lies in the orbit of (0, least of the coset of delta mod
    (L^*)^(q^2-1)); for g != 0, u = gamma^k with u^(q-1) g = g_min, the
    least of the coset of g mod (L^*)^(q-1), sends (g, delta) to
    (g_min, u^(q^2-1) delta).  O(#orbits) after two O(|L|) tables.
    """
    q = tower.q
    units = tower.order - 1
    exp, log = tower._exp, tower._log
    qd = q ** d
    min_g, min_d = _coset_minima(tower, q - 1), _coset_minima(tower, q * q - 1)
    index = {rep: i for i, (rep, _, _) in enumerate(orbits)}

    def image(i):
        g, delta = orbits[i][0]
        ld = log[delta] * qd
        if g:
            lg = log[g] * qd
            g_min = min_g[lg % len(min_g)]
            k = (log[g_min] - lg) // (q - 1)  # exact: q - 1 = len(min_g)
            rep = (g_min, exp[(ld + k * (q * q - 1)) % units])
        else:
            rep = (0, min_d[ld % len(min_d)])
        if rep not in index:
            raise RuntimeError("the sigma-image %r of orbit %r is not a listed "
                               "representative" % (rep, orbits[i][0]))
        return index[rep]

    groups, seen = [], set()
    for i in range(len(orbits)):
        if i in seen:
            continue
        group, j = [i], image(i)
        while j != i and len(group) < len(orbits):  # bounded if sigma is no permutation
            group.append(j)
            j = image(j)
        seen.update(group)
        groups.append(group)
    return groups


def orbit_members(tower, rep):
    """The members of the twist orbit of rep = (g, delta), sorted.  u =
    gamma^k, gamma = tower.generator, sends rep to
    (gamma^(log g + k(q-1)), gamma^(log delta + k(q^2-1))), g = 0 to 0;
    the walk k = 1, 2, ... returns to rep after the orbit size, the index
    of the stabilizer, so it takes that many steps."""
    q = tower.q
    exp, log = tower._exp, tower._log
    units = tower.order - 1
    g, delta = rep
    lg, ld = log[g], log[delta]
    members = [rep]
    for _ in range(units):  # the orbit size divides |L| - 1
        lg, ld = (lg + q - 1) % units, (ld + q * q - 1) % units
        member = (exp[lg] if g else 0, exp[ld])
        if member == rep:
            break
        members.append(member)
    return sorted(members)
