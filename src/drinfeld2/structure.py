"""The A-module structure induced on L: invariant factors via Smith normal
form over A = F_q[T], the divisibility criteria it satisfies, the
right-division test for rational plane torsion, and the realization
search that produces a module with a prescribed structure.
"""

import itertools
from dataclasses import dataclass

from .charpoly import frobenius_charpoly, euler_characteristic
from .drinfeld import DrinfeldModule
from .ore import OrePoly
from .polys import UPoly

# ---------------------------------------------------------------------------
# Matrices over A (lists of lists of UPoly).


def poly_identity(fq, n):
    one = UPoly.one(fq)
    zero = UPoly.zero(fq)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def poly_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    fq = a[0][0].fq
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = UPoly.zero(fq)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def poly_mat_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    fq = m[0][0].fq
    acc = UPoly.zero(fq)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * poly_mat_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def smith_normal_form(matrix):
    """Smith normal form over A.

    Returns (U, D, V) with U * matrix * V = D, U and V unimodular, and D
    diagonal with monic entries d_k | d_(k+1).  Pivoting is deterministic:
    the candidate of minimal degree wins, ties broken by row-major
    position.
    """
    rows = len(matrix)
    cols = len(matrix[0])
    fq = matrix[0][0].fq
    d = [row[:] for row in matrix]
    u = poly_identity(fq, rows)
    v = poly_identity(fq, cols)

    def row_op(target, source, factor):
        # row_target -= factor * row_source
        for j in range(cols):
            d[target][j] = d[target][j] - factor * d[source][j]
        for j in range(rows):
            u[target][j] = u[target][j] - factor * u[source][j]

    def col_op(target, source, factor):
        for i in range(rows):
            d[i][target] = d[i][target] - factor * d[i][source]
        for i in range(cols):
            v[i][target] = v[i][target] - factor * v[i][source]

    def swap_rows(i1, i2):
        if i1 != i2:
            d[i1], d[i2] = d[i2], d[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for r in d:
                r[j1], r[j2] = r[j2], r[j1]
            for r in v:
                r[j1], r[j2] = r[j2], r[j1]

    def min_entry(t):
        best = None
        best_deg = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    deg = d[i][j].degree()
                    if best is None or deg < best_deg:
                        best = (i, j)
                        best_deg = deg
        return best

    t = 0
    while t < min(rows, cols):
        pos = min_entry(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # reduce the pivot row and column
            reduced = True
            for i in range(t + 1, rows):
                if d[i][t]:
                    q, r = divmod(d[i][t], d[t][t])
                    row_op(i, t, q)
                    if r:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, cols):
                if d[t][j]:
                    q, r = divmod(d[t][j], d[t][t])
                    col_op(j, t, q)
                    if r:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # pivot now divides (and has cleared) its row and column;
            # make sure it divides the trailing block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] and not (d[i][j] % d[t][t]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into the pivot row and restart
            for j in range(cols):
                d[t][j] = d[t][j] + d[offender][j]
            for j in range(rows):
                u[t][j] = u[t][j] + u[offender][j]
        t += 1

    # monic normalization of the diagonal (scale rows of D and U)
    for k in range(min(rows, cols)):
        if d[k][k] and not d[k][k].is_monic():
            c = fq.inv(d[k][k].lc())
            d[k] = [x.scale(c) for x in d[k]]
            u[k] = [x.scale(c) for x in u[k]]
    return u, d, v


def invariant_factors_from_snf(diag):
    """The nonunit diagonal entries, in divisibility order."""
    out = []
    n = min(len(diag), len(diag[0]))
    for k in range(n):
        e = diag[k][k]
        if e.is_zero():
            raise ValueError("singular matrix has no finite cokernel")
        if e.degree() > 0:
            out.append(e)
    return out


def nonunit_invariant_factors(action, fq):
    """Invariant factors of the A-module defined by the F_q-matrix `action`
    of T on a finite-dimensional space: the nonunit entries of the Smith
    form of T*I - action."""
    n = len(action)
    tgen = UPoly.gen(fq)
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -UPoly.constant(fq, action[i][j])
            if i == j:
                entry = entry + tgen
            row.append(entry)
        mat.append(row)
    _, diag, _ = smith_normal_form(mat)
    return invariant_factors_from_snf(diag)


# ---------------------------------------------------------------------------


def action_matrix(mod):
    """Matrix over F_q of x -> phi_T(x) on L in the canonical power basis;
    column j holds the coordinates of the image of the j-th basis vector."""
    tw = mod.tower
    n = tw.n
    cols = [tw.vector(mod.phi_t.apply(tw.q ** j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class InvariantFactors:
    """L as an A-module is A/(i1) + A/(i2) with i2 | i1 (i2 = 1 when cyclic)."""

    i1: UPoly
    i2: UPoly

    def is_cyclic(self):
        return self.i2.is_one()

    def common_factor(self):
        """gcd(i1, i2); equals i2 under the divisibility convention."""
        return self.i2

    def as_pair(self):
        return (self.i1.coeffs, self.i2.coeffs)


def module_structure(mod):
    """Invariant factors of L as an A-module via phi.

    The rank-2 theory allows at most two nonunit factors; more is a hard
    failure.  The monic product of the factors is checked against the
    Euler-Poincare generator.
    """
    factors = nonunit_invariant_factors(action_matrix(mod), mod.tower.fq)
    if len(factors) > 2:
        raise RuntimeError(
            "more than two invariant factors: %s" % [str(f) for f in factors])
    one = UPoly.one(mod.tower.fq)
    if not factors:
        i1 = i2 = one  # impossible for n >= 1, kept for form
    elif len(factors) == 1:
        i1, i2 = factors[0], one
    else:
        i2, i1 = factors
    if not (i1 % i2).is_zero():
        raise RuntimeError("invariant factors do not form a divisibility chain")
    inv = InvariantFactors(i1, i2)
    chi = euler_characteristic(mod).gen
    if (i1 * i2).monic() != chi:
        raise RuntimeError(
            "product of invariant factors %s differs from the Euler-Poincare "
            "generator %s" % ((i1 * i2).monic(), chi))
    return inv


def check_criteria(mod, inv=None, cp=None):
    """Divisibility facts the structure must satisfy; returns flags, does not
    raise.  The trace clause is only a theorem for ordinary modules, the
    caller decides what to assert."""
    if inv is None:
        inv = module_structure(mod)
    if cp is None:
        cp = frobenius_charpoly(mod)
    fq = mod.tower.fq
    chi = cp.chi_poly()
    two = UPoly.constant(fq, 2 % fq.p)
    c_minus_2 = cp.trace - two
    i = inv.common_factor()
    flags = {
        "i2_divides_i1": (inv.i1 % inv.i2).is_zero(),
        "product_is_chi": (inv.i1 * inv.i2).monic() == chi,
        "i2_divides_c_minus_2": (c_minus_2 % inv.i2).is_zero(),
        "i_sq_divides_chi": (chi % (i * i)).is_zero(),
    }
    return flags


def plane_torsion_rational(mod, rho):
    """True iff the full rho-torsion plane (A/rho)^2 sits inside L.

    Operationally: tau^n - 1 is right-divisible by phi(rho), i.e. the
    kernel of phi(rho) lies in the kernel of F - 1, which is L itself.
    Cross-validated against the invariant factors (equivalent to
    rho | i2).
    """
    if not rho.is_monic() or not rho.is_irreducible():
        raise ValueError("rho must be monic irreducible")
    if rho == mod.prime:
        raise ValueError("rho must differ from the characteristic prime")
    tw = mod.tower
    f_minus_1 = OrePoly(tw, (tw.neg(1),) + (0,) * (mod.n - 1) + (1,))
    rem = f_minus_1.right_divmod(mod.phi(rho))[1]
    return rem.is_zero()


def suborder_contained(mod, rho):
    """Whether the quadratic suborder of conductor rho lies in the
    endomorphism ring; by the order-containment equivalence this is the
    rational-plane-torsion test, which is how it is computed.

    Preconditions: mod ordinary, rho != prime, rho^2 | P(1), rho | trace-2.
    """
    if not mod.is_ordinary():
        raise ValueError("order containment is only meaningful for ordinary modules")
    cp = frobenius_charpoly(mod)
    fq = mod.tower.fq
    chi = cp.chi_poly()
    if not ((chi % (rho * rho)).is_zero()):
        raise ValueError("rho^2 must divide P(1)")
    two = UPoly.constant(fq, 2 % fq.p)
    if not (((cp.trace - two) % rho).is_zero()):
        raise ValueError("rho must divide trace - 2")
    return plane_torsion_rational(mod, rho)


# ---------------------------------------------------------------------------
# Realization: produce a module with prescribed invariant factors.


@dataclass(frozen=True)
class NotRealizable:
    """Negative result of realize_structure, naming the violated condition."""

    reason: str

    def __bool__(self):
        return False


def _candidate_isogeny_keys(tower, prime, m, i1, i2):
    """All (trace, unit) with deg trace <= m*d/2, unit != 0, prime not
    dividing trace, monic(1 - trace + unit*prime^m) = monic(i1*i2) and
    i2 | trace - 2, in lexicographic order of (trace coefficients, unit)."""
    fq = tower.fq
    target = (i1 * i2).monic()
    pm = prime.pow(m)
    bound = (m * prime.degree()) // 2
    two = UPoly.constant(fq, 2 % fq.p)
    out = []
    for coeffs in itertools.product(range(fq.q), repeat=bound + 1):
        trace = UPoly(fq, coeffs)
        for unit in fq.units():
            val = UPoly.one(fq) - trace + pm.scale(unit)
            if val.is_zero() or val.monic() != target:
                continue
            if (trace % prime).is_zero():
                continue  # supersingular class
            if not ((trace - two) % i2).is_zero():
                continue
            out.append((trace, unit))
    return out


def realize_structure(tower, prime, m, i1, i2):
    """Search for an ordinary module whose A-module structure is exactly
    A/(i1) + A/(i2).

    Candidate isogeny classes are scanned in lexicographic (trace, unit)
    order and for each one the pairs (g, delta) in lexicographic order;
    the first witness wins, so the result is deterministic.  Returns a
    DrinfeldModule or a NotRealizable naming the failed condition.
    """
    fq = tower.fq
    if not (i1.is_monic() and i2.is_monic()):
        return NotRealizable("invariant factors must be monic")
    if tower.n != m * prime.degree():
        raise ValueError("tower degree differs from m * deg(prime)")
    if i1.degree() + i2.degree() != tower.n:
        return NotRealizable("degree: deg(i1) + deg(i2) must equal n")
    if not (i1 % i2).is_zero():
        return NotRealizable("divisibility: i2 must divide i1")
    candidates = _candidate_isogeny_keys(tower, prime, m, i1, i2)
    if not candidates:
        return NotRealizable(
            "no ordinary isogeny class matches (needs P(1) = i1*i2 up to a "
            "unit and i2 | trace - 2)")
    want = (i1, i2)
    by_class = {}
    for g in tower.elements():
        for delta in tower.units():
            mod = DrinfeldModule(tower, prime, g, delta)
            key = frobenius_charpoly(mod).key()
            by_class.setdefault(key, []).append(mod)
    for trace, unit in candidates:
        for mod in by_class.get((trace.coeffs, unit), ()):
            inv = module_structure(mod)
            if (inv.i1, inv.i2) == want:
                return mod
    return NotRealizable("no witness found in any matching isogeny class")
