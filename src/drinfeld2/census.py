"""Exhaustive census of rank-2 modules for a fixed (q, prime, m).

Modules (g, delta) in L x L^* are grouped into isomorphism classes
(orbits of the twist action u: (g, delta) -> (u^(q-1) g, u^(q^2-1) delta)
for u in L^*, listed by representative in `drinfeld.twist_orbits`) and
aggregated into isogeny classes keyed by the Frobenius characteristic
polynomial.  One representative is classified per orbit of
sigma: x -> x^(q^d) on the twist orbits (`drinfeld.sigma_orbits`):
sigma fixes gamma(T), so it is an isomorphism of A-modules from L^phi
to L^(phi^sigma), and the two share (c, mu), chi, the invariant factors,
the height and the rational planes.  The head's classification is the
sigma-orbit's one result, and each twist orbit's row is built once from
it, with the orbit's own size and automorphism count; those and its
unit, recomputed from its own delta, are checked against the head's.  Heads
are classified by structure.classify, with no module built, and each
isogeny class gets one characteristic polynomial.  All
statistics are exact rationals; closed-form counting formulas are
evaluated alongside and reported with match flags, never silently
assumed.  Reports serialize deterministically: identical inputs give
byte-identical JSON.
"""

import json
import os
from fractions import Fraction
from math import gcd

from .charpoly import FrobeniusCharPoly, _annihilation_residue, frobenius_unit, is_imaginary
from .drinfeld import invariants, orbit_members, sigma_orbits, twist_orbits
from .fields import SizeBoundError, build_tower
from .polys import UPoly, _Value, enumerate_monic_irreducibles, residue_root
from .structure import classify, criteria

SCHEMA_VERSION = "3"

# Largest |L| for which a census re-verifies every member of every orbit
# (verify_members): that visits all |L|(|L| - 1) modules, not one per orbit.
MEMBER_VERIFICATION_MAX_ORDER = 1024


def default_prime(fq, d):
    """The lexicographically first monic irreducible of degree d."""
    return enumerate_monic_irreducibles(fq, d)[0]


def _process_orbit(tower, prime, group, verify_members, classes):
    """(found, members_ok) for one sigma-orbit of isomorphism classes,
    group a list of (rep, orbit_size, aut_count) with the head first:
    found is structure.classify's (cp, i1, i2, height, torsion_ok) for
    the head, against classes, the census's table of class charpolys, and
    sigma carries it to every twist orbit of group.  Raises RuntimeError
    unless each carried orbit's size, automorphism count and unit, the
    last recomputed from its own delta, equal the head's.

    With verify_members, every other member of each twist orbit gets its
    own annihilation residue against the class's charpoly and its own
    Krylov pass against the head's invariant factors, from the same
    kernels with the head's gamma; members_ok is False when one fails,
    and True without verify_members."""
    rep, size, aut = group[0]
    found = classify(tower, prime, *rep, classes)
    cp, pair = found[0], found[1:3]
    for orbit_rep, orbit_size, orbit_aut in group[1:]:
        for key, value, want in (("orbit_size", orbit_size, size), ("aut_count", orbit_aut, aut),
                                 ("unit", frobenius_unit(tower, orbit_rep[1]), cp.unit)):
            if value != want:
                raise RuntimeError("twist orbit %r differs from its sigma-orbit head %r in %s"
                                   % (orbit_rep, rep, key))
    if verify_members:
        gamma = residue_root(tower, prime)
        for orbit_rep, orbit_size, _ in group:
            members = orbit_members(tower, orbit_rep)
            if len(members) != orbit_size:
                return found, False
            for member in members:  # each module gets its own residue and Krylov pass
                if member != rep and (any(_annihilation_residue(tower, gamma, *member, cp))
                                      or invariants(tower, gamma, *member)[1:] != pair):
                    return found, False
    return found, True


_WORKER = {}


def _fork_available():
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _pool_work(group):
    tower, prime, verify_members, classes = _WORKER["args"]
    return _process_orbit(tower, prime, group, verify_members, classes)


def counting_formulas(q, d, m):
    """Closed-form counts evaluated literally; exponents that are negative
    or fractional make a formula undefined and are annotated, with the
    in-text substitute emitted separately where one exists.  The corrected
    forms, with their domains, are the oracles in tests/oracles.py."""
    n = m * d
    out = {}
    if n % 2 == 1:
        out["iso_class_total"] = (q - 1) * q ** n
    else:
        out["iso_class_total"] = q ** (n + 1) - q ** n + q * q - q
    out["supersingular_iso_classes"] = q ** gcd(2, n) - 1
    out["ordinary_aut_count"] = q - 1

    ordinary_isogeny = {"value": None, "undefined": False, "substitute": None}
    if m % 2 == 1 and d % 2 == 1:
        e1 = (m * d) // 2 + 1
        e2 = ((m - 2) * d) // 2 + 1
        if e1 >= 0 and e2 >= 0:
            ordinary_isogeny["value"] = (q - 1) * (q ** e1 - q ** e2 + 1)
        else:
            ordinary_isogeny["undefined"] = True
    else:
        e1 = (m * d) // 2
        num = (m - 2) * d
        if q % 2 == 1 and num % 2 == 0 and num // 2 >= 0:
            ordinary_isogeny["value"] = (q - 1) * (
                (q - 1) // 2 * q ** e1 - q ** (num // 2) + 1)
        else:
            ordinary_isogeny["undefined"] = True
    if ordinary_isogeny["undefined"] and q % 2 == 1 and n % 2 == 0:
        ordinary_isogeny["substitute"] = (q - 1) * ((q - 1) // 2 * q ** ((m * d) // 2) - 1)
    out["ordinary_isogeny_classes"] = ordinary_isogeny

    c0 = None
    if (d, m) == (1, 1):
        c0 = Fraction(1)
    elif (d, m) == (2, 1) and q % 2 == 1:
        c0 = Fraction(q * (q - 1) - 5, q * (q - 1) - 2)
    elif (d, m) == (1, 2) and q % 2 == 1:
        c0 = Fraction((q - 1) * q - 4, (q - 1) * q - 2)
    out["C0_closed_form"] = c0
    return out


def _fraction_dict(x):
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


def compute_statistics(totals):
    """Exact cyclic proportions from census counts.

    C and N are over ordinary isomorphism classes, C0 and N0 over
    ordinary isogeny classes (an isogeny class counts as cyclic when all
    its members are).  C + N = 1 and C0 + N0 = 1 identically.  With no
    ordinary classes the statistics are undefined and flagged as such.
    """
    if not totals["ordinary_iso_classes"]:
        return {"defined": False, "C": None, "C0": None, "N": None, "N0": None}
    C = Fraction(totals["cyclic_ordinary_iso_classes"], totals["ordinary_iso_classes"])
    N = Fraction(totals["ordinary_iso_classes"] - totals["cyclic_ordinary_iso_classes"],
                 totals["ordinary_iso_classes"])
    C0 = Fraction(totals["cyclic_ordinary_isogeny_classes"],
                  totals["ordinary_isogeny_classes"])
    N0 = Fraction(totals["ordinary_isogeny_classes"]
                  - totals["cyclic_ordinary_isogeny_classes"],
                  totals["ordinary_isogeny_classes"])
    if C + N != 1 or C0 + N0 != 1:
        raise RuntimeError("statistics do not sum to one")
    return {"defined": True, "C": C, "C0": C0, "N": N, "N0": N0}


class CensusReport(_Value):
    """Everything the census learned, in plain data.  Unlike the other
    values it is mutable, since attach_class_number_checks sets hurwitz,
    and so it is not hashable."""

    _fields = ("p", "s", "q", "d", "m", "n", "prime", "totals", "statistics",
               "iso_classes", "isogeny_classes", "checks", "formula_comparison",
               "q_even_caveat", "hurwitz")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, p, s, q, d, m, n, prime, totals, statistics, iso_classes,
                 isogeny_classes, checks, formula_comparison, q_even_caveat,
                 hurwitz=None):
        self.p, self.s, self.q, self.d, self.m, self.n = p, s, q, d, m, n
        self.prime, self.totals, self.statistics = prime, totals, statistics
        self.iso_classes, self.isogeny_classes = iso_classes, isogeny_classes
        self.checks, self.formula_comparison = checks, formula_comparison
        self.q_even_caveat, self.hurwitz = q_even_caveat, hurwitz

    def to_dict(self):
        """The report as plain JSON data.  Only the statistics are converted;
        every other value, the rows included, is the report's own, shared."""
        stats = dict(self.statistics)
        for k in ("C", "C0", "N", "N0"):
            stats[k] = _fraction_dict(stats[k])
        return {
            "schema_version": SCHEMA_VERSION,
            "p": self.p, "s": self.s, "q": self.q,
            "d": self.d, "m": self.m, "n": self.n,
            "prime": self.prime,
            "totals": self.totals,
            "statistics": stats,
            "iso_classes": self.iso_classes,
            "isogeny_classes": self.isogeny_classes,
            "checks": self.checks,
            "formula_comparison": self.formula_comparison,
            "q_even_caveat": self.q_even_caveat,
            "hurwitz": self.hurwitz,
        }

    def to_json_bytes(self):
        return (json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode()

    def to_csv(self):
        """One line per isomorphism class under a header line; a cell that
        holds a comma, such as g = [0, 1], is quoted as RFC 4180 does."""
        cols = ["g", "delta", "orbit_size", "aut_count", "ordinary", "c", "mu",
                "chi", "i1", "i2", "cyclic", "height"]
        lines = [",".join(cols)]
        for r in self.iso_classes:
            cells = [str(r[c]) for c in cols]
            lines.append(",".join('"%s"' % v if "," in v else v for v in cells))
        return "\n".join(lines) + "\n"

    def ordinary_isogeny_classes(self):
        return [c for c in self.isogeny_classes if c["ordinary"]]


def _classify_orbits(tower, prime, m, orbits, jobs, verify_members):
    """(groups, done): the sigma-orbits of orbits as lists of indices into
    it, head first (see drinfeld.sigma_orbits), and _process_orbit's
    (found, members_ok) for each, in the same order.  Raises RuntimeError
    unless the sigma-orbits partition the twist orbits, each has a length
    dividing m, and each carried orbit's size, automorphism count and
    unit equal its head's."""
    groups = sigma_orbits(tower, prime.degree(), orbits)
    if sorted(i for group in groups for i in group) != list(range(len(orbits))):
        raise RuntimeError("the sigma-orbits do not partition the twist orbits")
    for group in groups:
        if m % len(group):
            raise RuntimeError("a sigma-orbit of length %d does not divide m = %d"
                               % (len(group), m))
    work = [[orbits[i] for i in group] for group in groups]

    workers = min(jobs, os.cpu_count() or 1, len(work))
    if workers > 1 and _fork_available():
        import multiprocessing

        # forked workers inherit the tower and prime from _WORKER, and each
        # its own copy of the empty class table
        _WORKER["args"] = (tower, prime, verify_members, {})
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                done = pool.map(_pool_work, work)
        finally:
            _WORKER.clear()
    else:
        classes = {}
        done = [_process_orbit(tower, prime, group, verify_members, classes) for group in work]
    return groups, done


def run_census(tower, prime, m, jobs=1, verify_members=False):
    """Classify every module (g, delta) over the tower for the given prime.

    One module is classified per sigma-orbit of twist orbits, and each
    twist orbit's row is built once from that result and its own rep,
    size and automorphism count.  jobs > 1 distributes the
    per-sigma-orbit work over worker processes, at most one per CPU and
    one per sigma-orbit; rows are placed by orbit index, so reports are
    identical regardless of the job count.  Each process builds one
    charpoly per isogeny class it meets (see _process_orbit), and the
    class pass reuses the one its first sigma-orbit carries; the four
    divisibility criteria run on kernel tuples once per (class,
    structure).  jobs < 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    fq = tower.fq
    d = prime.degree()
    if m * d != tower.n:
        raise ValueError("m * deg(prime) = %d differs from n = %d" % (m * d, tower.n))
    if verify_members and tower.order > MEMBER_VERIFICATION_MAX_ORDER:
        raise SizeBoundError(
            "member verification over a field of order %d exceeds the bound %d"
            % (tower.order, MEMBER_VERIFICATION_MAX_ORDER))
    q = tower.q
    n = tower.n

    orbits = twist_orbits(tower)
    total_pairs = sum(size for _, size, _ in orbits)
    if total_pairs != tower.order * (tower.order - 1):
        raise RuntimeError("orbits do not partition the module space")
    groups, done = _classify_orbits(tower, prime, m, orbits, jobs, verify_members)
    one = (1,)  # i2 = 1: L is cyclic
    kernel = fq.kernel
    texts = {}  # the heads of a class repeat its polynomials

    def text(coeffs):
        hit = texts.get(coeffs)
        if hit is None:
            hit = texts[coeffs] = str(UPoly(fq, coeffs))
        return hit

    # ---- per isomorphism class rows (serialized form), and their (i1, i2,
    # aut_count) by isogeny class: (c, mu) fixes chi, disc and ordinarity ----
    iso_rows = [None] * len(orbits)
    by_key = {}
    for group, ((cp, i1, i2, h, _), _) in zip(groups, done):
        shared = {"ordinary": cp.ordinary, "c": text(cp.trace.coeffs), "mu": cp.unit,
                  "chi": text(cp.chi.coeffs), "i1": text(i1), "i2": text(i2),
                  "cyclic": i2 == one, "height": h}
        members = by_key.setdefault((cp.trace.coeffs, cp.unit), (cp, []))[1]
        for i in group:
            (g, delta), size, aut = orbits[i]
            members.append((i1, i2, aut))
            iso_rows[i] = dict(shared, g=list(tower.vector(g)),
                               delta=list(tower.vector(delta)), orbit_size=size,
                               aut_count=aut)

    isogeny_rows = []
    flags = []  # (ordinary, criteria flags) per (class, structure)
    for key in sorted(by_key):
        cp, group = by_key[key]
        chi, c_minus_2 = cp.chi.coeffs, cp.c_minus_2.coeffs
        structures, auts = {}, {}
        for i1, i2, aut in group:
            structures[i1, i2] = structures.get((i1, i2), 0) + 1
            auts[aut] = auts.get(aut, 0) + 1
        counted = sorted(structures.items())
        i2_counts = [(i2, cnt) for (_, i2), cnt in counted]
        struct_rows = []
        for (i1, i2), cnt in counted:
            flags.append((cp.ordinary, criteria(kernel, chi, c_minus_2, i1, i2)))
            struct_rows.append({"i1": text(i1), "i2": text(i2), "count": cnt,
                                "cumulative": _members_with_plane(kernel, i2_counts, i2)})
        weighted = sum(Fraction((q - 1) * cnt, aut) for aut, cnt in auts.items())
        row = {
            "c": text(key[0]),
            "mu": cp.unit,
            "ordinary": cp.ordinary,
            "chi": text(chi),
            "disc": str(cp.disc),
            "disc_imaginary": is_imaginary(cp.disc),
            "W": len(group),
            "weighted_W": _fraction_dict(weighted),
            "weighted_equals_count": weighted == len(group),
            "cyclic": all(i2 == one for i2, _ in i2_counts),
            "structures": struct_rows,
        }
        isogeny_rows.append(row)

    # ---- totals and statistics ----
    ord_iso = [r for r in iso_rows if r["ordinary"]]
    ss_iso = [r for r in iso_rows if not r["ordinary"]]
    ord_isg = [r for r in isogeny_rows if r["ordinary"]]
    ss_isg = [r for r in isogeny_rows if not r["ordinary"]]
    totals = {
        "modules": total_pairs,
        "iso_classes": len(iso_rows),
        "isogeny_classes": len(isogeny_rows),
        "ordinary_iso_classes": len(ord_iso),
        "supersingular_iso_classes": len(ss_iso),
        "ordinary_isogeny_classes": len(ord_isg),
        "supersingular_isogeny_classes": len(ss_isg),
        "cyclic_ordinary_iso_classes": sum(1 for r in ord_iso if r["cyclic"]),
        "cyclic_ordinary_isogeny_classes": sum(1 for r in ord_isg if r["cyclic"]),
    }

    statistics = compute_statistics(totals)

    # ---- checks ----
    # flags in the order of structure.CRITERIA: i2 | i1, i1 i2 = chi, i2 | c - 2, i2^2 | chi
    checks = {
        "structure_product_all": all(f[0] and f[1] for _, f in flags),
        "ordinary_trace_divisibility_all": all(f[2] for ordinary_class, f in flags
                                               if ordinary_class),
        "i_sq_divides_chi_all": all(f[3] for _, f in flags),
        "torsion_equiv_all": all(found[4] for found, _ in done),
        "members_verified": verify_members,
        "aut_orbit_product_all": all(aut * size == tower.order - 1 for _, size, aut in orbits),
    }
    if verify_members:
        checks["members_all_ok"] = all(ok for _, ok in done)

    # ---- formula comparisons ----
    formulas = counting_formulas(q, d, m)
    aut_mismatches = [r for r in ord_iso if r["aut_count"] != q - 1]
    fc = {
        "iso_class_total": {
            "formula": formulas["iso_class_total"],
            "census": totals["iso_classes"],
            "match": formulas["iso_class_total"] == totals["iso_classes"],
        },
        "supersingular_iso_classes": {
            "formula": formulas["supersingular_iso_classes"],
            "census": totals["supersingular_iso_classes"],
            "match": (formulas["supersingular_iso_classes"]
                      == totals["supersingular_iso_classes"]),
        },
        "ordinary_aut_count": {
            "formula": formulas["ordinary_aut_count"],
            "mismatching_classes": [
                {"g": r["g"], "delta": r["delta"], "aut_count": r["aut_count"]}
                for r in aut_mismatches],
            "match": not aut_mismatches,
        },
        "ordinary_isogeny_classes": {
            "formula": formulas["ordinary_isogeny_classes"]["value"],
            "formula_undefined": formulas["ordinary_isogeny_classes"]["undefined"],
            "substitute": formulas["ordinary_isogeny_classes"]["substitute"],
            "census": totals["ordinary_isogeny_classes"],
            "match": (formulas["ordinary_isogeny_classes"]["value"]
                      == totals["ordinary_isogeny_classes"]),
        },
        "C0_closed_form": {
            "formula": _fraction_dict(formulas["C0_closed_form"]),
            "census": _fraction_dict(statistics["C0"]),
            "match": (formulas["C0_closed_form"] is not None
                      and statistics["C0"] is not None
                      and formulas["C0_closed_form"] == statistics["C0"]),
        },
    }

    return CensusReport(
        p=tower.p, s=tower.s, q=q, d=d, m=m, n=n, prime=str(prime),
        totals=totals, statistics=statistics, iso_classes=iso_rows,
        isogeny_classes=isogeny_rows, checks=checks, formula_comparison=fc,
        q_even_caveat=q % 2 == 0)


def _admissible_i2(kernel, chi, c_minus_2):
    """The monic i2 != 1 with i2^2 | chi and i2 | c - 2, kernel tuples, in
    the order of monic_polys (degree, then coefficients): the products of
    rho^e over the irreducible rho | gcd(chi, c - 2), with rho^(2e) | chi
    and rho^e | c - 2."""
    one = (1,)
    out = [one]
    for rho in kernel.irreducible_divisors(kernel.gcd(chi, c_minus_2)):
        powers = [one]
        nxt = rho
        while (not kernel.divmod(chi, kernel.mul(nxt, nxt))[1]
               and not kernel.divmod(c_minus_2, nxt)[1]):
            powers.append(nxt)
            nxt = kernel.mul(nxt, rho)
        out = [kernel.mul(f, r) for f in out for r in powers]
    return sorted((f for f in out if f != one), key=lambda f: (len(f), f))


def _members_with_plane(kernel, i2_counts, i2):
    """The number of members of an isogeny class whose L contains the
    full i2-plane, from (second invariant factor, member count) pairs of
    kernel tuples: those whose second invariant factor i2 divides."""
    return sum(cnt for j2, cnt in i2_counts if not kernel.divmod(j2, i2)[1])


def attach_class_number_checks(report, tower):
    """Compare census class sizes with independently computed Hurwitz class
    numbers, per ordinary isogeny class: the class size W against H(disc),
    and for each admissible i2 the number of members whose structure
    contains the full i2-plane against H(disc / i2^2).

    Each class's chi, disc, ordinarity, discriminant sign and c - 2 are
    read off the charpoly of its (c, mu), and ValueError is raised when the
    report's chi, disc, ordinary or disc_imaginary differs.  Mutates
    report.hurwitz; requires odd q and the report's field.
    """
    from .hurwitz import hurwitz_class_number

    fq = tower.fq
    if (tower.p, tower.s) != (report.p, report.s):
        raise ValueError("the tower is over F_%d, the report over F_%d" % (tower.q, report.q))
    if report.q % 2 == 0:
        raise ValueError("class-number checks require odd q")
    prime = UPoly.parse(fq, report.prime)
    rows = []
    all_match = True
    for cls in report.isogeny_classes:
        cp = FrobeniusCharPoly(UPoly.parse(fq, cls["c"]), cls["mu"], prime, report.m)
        imaginary = is_imaginary(cp.disc)
        derived = (str(cp.chi), str(cp.disc), cp.ordinary, imaginary)
        given = tuple(cls[k] for k in ("chi", "disc", "ordinary", "disc_imaginary"))
        if derived != given:
            raise ValueError("class (%s, %d) has (chi, disc, ordinary, disc_imaginary) = %r, "
                             "not the report's %r" % (cls["c"], cls["mu"], derived, given))
        if not cp.ordinary:
            continue
        H, details = hurwitz_class_number(cp.disc)
        w_match = H == cls["W"]
        all_match = all_match and w_match and imaginary
        i2_counts = [(UPoly.parse(fq, srow["i2"]).coeffs, srow["count"])
                     for srow in cls["structures"]]
        sub_rows = []
        for i2 in _admissible_i2(fq.kernel, cp.chi.coeffs, cp.c_minus_2.coeffs):
            cumulative = _members_with_plane(fq.kernel, i2_counts, i2)
            i2 = UPoly(fq, i2)
            sub_disc, rem = divmod(cp.disc, i2 * i2)
            if not rem.is_zero():
                raise RuntimeError(
                    "i2^2 divides P(1) and i2 divides c - 2, so it must "
                    "divide the discriminant; got remainder %s" % rem)
            H_sub, sub_details = hurwitz_class_number(sub_disc)
            sub_match = H_sub == cumulative
            all_match = all_match and sub_match
            sub_rows.append({
                "i2": str(i2), "census_members_with_plane": cumulative,
                "H": H_sub, "match": sub_match, "terms": sub_details,
            })
        rows.append({
            "c": cls["c"], "mu": cls["mu"], "disc": cls["disc"],
            "imaginary": imaginary, "W": cls["W"], "H": H, "match": w_match,
            "terms": details, "admissible_i2": sub_rows,
        })
    report.hurwitz = {"classes": rows, "all_match": all_match}
    return report


def cyclicity_trend(q_list, d, m, jobs=1):
    """C and C0 across a list of prime powers q, with the literal C0 closed
    form and its match flag taken from each census's formula_comparison;
    a report of the trend, no limit is asserted."""
    from .fields import MAX_BASE_ORDER, prime_factors

    rows = []
    for q in q_list:
        if q > MAX_BASE_ORDER:  # before factoring, which is slow for huge q
            raise SizeBoundError("base field order %d exceeds %d" % (q, MAX_BASE_ORDER))
        ps = prime_factors(q)
        if len(ps) != 1:
            raise ValueError("%d is not a prime power" % q)
        p = ps[0]
        s = 0
        qq = q
        while qq > 1:
            qq //= p
            s += 1
        tower = build_tower(p, s, d * m)
        prime = default_prime(tower.fq, d)
        report = run_census(tower, prime, m, jobs=jobs)
        c0_form = report.formula_comparison["C0_closed_form"]
        rows.append({
            "q": q,
            "C": _fraction_dict(report.statistics["C"]),
            "C0": _fraction_dict(report.statistics["C0"]),
            "C0_closed_form": c0_form["formula"],
            "C0_closed_form_match": c0_form["match"],
            "ordinary_isogeny_classes": report.totals["ordinary_isogeny_classes"],
            "ordinary_iso_classes": report.totals["ordinary_iso_classes"],
        })
    return {"d": d, "m": m, "rows": rows}
