"""Exhaustive census of rank-2 modules for a fixed (q, prime, m).

Modules (g, delta) in L x L^* are grouped into isomorphism classes
(orbits of the twist action u: (g, delta) -> (u^(q-1) g, u^(q^2-1) delta)
for u in L^*), classified per orbit representative, and aggregated into
isogeny classes keyed by the Frobenius characteristic polynomial.  All
statistics are exact rationals; closed-form counting formulas are
evaluated alongside and reported with match flags, never silently
assumed.  Reports serialize deterministically: identical inputs give
byte-identical JSON.
"""

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .charpoly import (annihilation_holds, frobenius_charpoly, is_imaginary)
from .drinfeld import DrinfeldModule
from .fields import SizeBoundError, build_tower
from .polys import UPoly, enumerate_monic_irreducibles, monic_polys
from .structure import check_criteria, module_structure, plane_torsion_rational

# The census scans q^n (q^n - 1) pairs; this keeps that quadratic loop sane.
CENSUS_MAX_ORDER = 1024

SCHEMA_VERSION = "1"


def default_prime(fq, d):
    """The lexicographically first monic irreducible of degree d."""
    return enumerate_monic_irreducibles(fq, d)[0]


def twist_orbits(tower):
    """Orbits of L x L^* under (g, delta) -> (u^(q-1) g, u^(q^2-1) delta).

    Returns a list of (rep, members, aut_count) with rep the
    lexicographically least pair, members sorted, and aut_count the
    stabilizer size.  The scan order makes the first-seen pair of each
    orbit its representative, which is also the lex-least one.
    """
    q = tower.q
    order = tower.order
    units = range(1, order)
    pairs = sorted({(tower.pow(u, q - 1), tower.pow(u, q * q - 1)) for u in units})
    seen = bytearray(order * order)
    orbits = []
    for g in range(order):
        base = g * order
        for delta in range(1, order):
            if seen[base + delta]:
                continue
            members = sorted({(tower.mul(a, g), tower.mul(b, delta)) for a, b in pairs})
            for gg, dd in members:
                seen[gg * order + dd] = 1
            aut = (order - 1) // len(members)
            orbits.append(((g, delta), members, aut))
    return orbits


def _irreducible_divisors_of(poly, irreducibles_by_degree):
    out = []
    for d in range(1, poly.degree() + 1):
        for rho in irreducibles_by_degree.get(d, ()):
            if (poly % rho).is_zero():
                out.append(rho)
    return out


def _process_orbit(tower, prime, m, rep, members, aut, verify_members,
                   irreducibles_by_degree):
    """Classify one isomorphism class; returns a plain-data record."""
    fq = tower.fq
    mod = DrinfeldModule(tower, prime, rep[0], rep[1])
    cp = frobenius_charpoly(mod)
    inv = module_structure(mod)
    h = mod.height()
    ss = h == 2
    chi = cp.chi_poly()
    flags = check_criteria(mod, inv, cp)

    prime_divides_trace = (cp.trace % prime).is_zero()
    if prime_divides_trace != ss:
        raise RuntimeError(
            "supersingularity criteria disagree for (g, delta) = %r over %r: "
            "height gives %s but prime %s trace %s"
            % (rep, tower, ss, "divides" if prime_divides_trace else "does not divide",
               cp.trace))

    annihilates = annihilation_holds(mod, cp)

    # right-division test against the invariant factors, for every monic
    # irreducible divisor of chi other than the prime
    torsion_equiv_ok = True
    for rho in _irreducible_divisors_of(chi, irreducibles_by_degree):
        if rho == prime:
            continue
        via_division = plane_torsion_rational(mod, rho)
        via_factors = (inv.i2 % rho).is_zero()
        if via_division != via_factors:
            torsion_equiv_ok = False
            break

    members_ok = True
    if verify_members:
        for g, delta in members:
            if (g, delta) == rep:
                continue
            other = DrinfeldModule(tower, prime, g, delta)
            if not annihilation_holds(other, cp):
                members_ok = False
                break
            oinv = module_structure(other)
            if (oinv.i1, oinv.i2) != (inv.i1, inv.i2):
                members_ok = False
                break

    return {
        "g": rep[0],
        "delta": rep[1],
        "orbit_size": len(members),
        "aut_count": aut,
        "trace": cp.trace.coeffs,
        "unit": cp.unit,
        "chi": chi.coeffs,
        "i1": inv.i1.coeffs,
        "i2": inv.i2.coeffs,
        "cyclic": inv.is_cyclic(),
        "height": h,
        "supersingular": ss,
        "ordinary": not ss,
        "annihilation_ok": annihilates,
        "trace_bound_ok": cp.trace_degree_ok(),
        "criteria": flags,
        "torsion_equiv_ok": torsion_equiv_ok,
        "members_ok": members_ok,
        "frobenius_in_image": (cp.frobenius_in_image.coeffs
                               if cp.frobenius_in_image is not None else None),
    }


_WORKER = {}


def _fork_available():
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _pool_init(p, s, n, prime_coeffs, m, verify_members):
    tower = build_tower(p, s, n)
    prime = UPoly(tower.fq, prime_coeffs)
    irr = {d: enumerate_monic_irreducibles(tower.fq, d) for d in range(1, n + 1)}
    _WORKER["args"] = (tower, prime, m, verify_members, irr)


def _pool_work(item):
    rep, members, aut = item
    tower, prime, m, verify_members, irr = _WORKER["args"]
    return _process_orbit(tower, prime, m, rep, members, aut, verify_members, irr)


def _conjecture_probe(fq, trace, unit, prime, m, chi):
    """Trace and determinant of the candidate Frobenius matrix
    [[trace-1, i1], [i2, -1]] modulo chi; recorded, not asserted."""
    one = UPoly.one(fq)
    norm = prime.pow(m).scale(unit)
    det = (one - trace) % chi  # -(trace-1) - i1*i2 = 1 - trace mod chi
    tr = (trace - (one + one)) % chi
    unit_match = None
    for u in fq.units():
        if (norm.scale(u) - det) % chi == UPoly.zero(fq):
            unit_match = u
            break
    return {
        "det_mod_chi": str(det),
        "det_is_unit_times_norm": unit_match,
        "trace_mod_chi": str(tr),
        "trace_matches_c": ((trace - tr) % chi).is_zero(),
        "trace_matches_c_minus_2": True,
    }


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


@dataclass
class CensusReport:
    """Everything the census learned, in plain data."""

    p: int
    s: int
    q: int
    d: int
    m: int
    n: int
    prime: str
    totals: dict
    statistics: dict
    iso_classes: list
    isogeny_classes: list
    checks: dict
    formula_comparison: dict
    q_even_caveat: bool
    hurwitz: dict = field(default=None)

    def to_dict(self):
        stats = dict(self.statistics)
        for k in ("C", "C0", "N", "N0"):
            stats[k] = _fraction_dict(stats[k])
        iso = []
        for r in self.iso_classes:
            iso.append(dict(r))
        return {
            "schema_version": SCHEMA_VERSION,
            "p": self.p, "s": self.s, "q": self.q,
            "d": self.d, "m": self.m, "n": self.n,
            "prime": self.prime,
            "totals": self.totals,
            "statistics": stats,
            "iso_classes": iso,
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
        cols = ["g", "delta", "orbit_size", "aut_count", "ordinary", "c", "mu",
                "chi", "i1", "i2", "cyclic", "height"]
        lines = [",".join(cols)]
        for r in self.iso_classes:
            lines.append(",".join(str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def ordinary_isogeny_classes(self):
        return [c for c in self.isogeny_classes if c["ordinary"]]


def run_census(tower, prime, m, jobs=1, verify_members=False):
    """Classify every module (g, delta) over the tower for the given prime.

    jobs > 1 distributes the per-orbit work over worker processes, at most
    one per CPU and one per orbit; the merge order is the orbit order, so
    reports are identical regardless of the job count.  jobs < 1 raises
    ValueError.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    fq = tower.fq
    d = prime.degree()
    if m * d != tower.n:
        raise ValueError("m * deg(prime) = %d differs from n = %d" % (m * d, tower.n))
    if tower.order > CENSUS_MAX_ORDER:
        raise SizeBoundError(
            "census over a field of order %d exceeds the bound %d"
            % (tower.order, CENSUS_MAX_ORDER))
    q = tower.q
    n = tower.n

    orbits = twist_orbits(tower)
    total_pairs = sum(len(mem) for _, mem, _ in orbits)
    if total_pairs != tower.order * (tower.order - 1):
        raise RuntimeError("orbits do not partition the module space")

    irr = {k: enumerate_monic_irreducibles(fq, k) for k in range(1, n + 1)}

    workers = min(jobs, os.cpu_count() or 1, len(orbits))
    if workers > 1 and _fork_available():
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_pool_init,
                      initargs=(tower.p, tower.s, n, prime.coeffs, m,
                                verify_members)) as pool:
            records = pool.map(_pool_work, orbits)
    else:
        records = [
            _process_orbit(tower, prime, m, rep, mem, aut, verify_members, irr)
            for rep, mem, aut in orbits]

    # ---- per isomorphism class rows (serialized form) ----
    iso_rows = []
    for r in records:
        iso_rows.append({
            "g": list(tower.vector(r["g"])),
            "delta": list(tower.vector(r["delta"])),
            "orbit_size": r["orbit_size"],
            "aut_count": r["aut_count"],
            "ordinary": r["ordinary"],
            "c": str(UPoly(fq, r["trace"])),
            "mu": r["unit"],
            "chi": str(UPoly(fq, r["chi"])),
            "i1": str(UPoly(fq, r["i1"])),
            "i2": str(UPoly(fq, r["i2"])),
            "cyclic": r["cyclic"],
            "height": r["height"],
        })

    # ---- isogeny classes ----
    by_key = {}
    for r in records:
        by_key.setdefault((r["trace"], r["unit"]), []).append(r)
    isogeny_rows = []
    q_even = q % 2 == 0
    for key in sorted(by_key):
        group = by_key[key]
        trace = UPoly(fq, key[0])
        unit = key[1]
        ordinary = group[0]["ordinary"]
        if any(r["ordinary"] != ordinary for r in group):
            raise RuntimeError("isogeny class mixes ordinary and supersingular")
        chi = UPoly(fq, group[0]["chi"])
        if any(r["chi"] != group[0]["chi"] for r in group):
            raise RuntimeError("isogeny class members disagree on P(1)")
        cp_norm = prime.pow(m).scale(unit)
        disc = trace * trace - cp_norm.scale(4 % fq.p)
        structures = {}
        for r in group:
            key2 = (r["i1"], r["i2"])
            structures[key2] = structures.get(key2, 0) + 1
        struct_rows = []
        for (i1c, i2c) in sorted(structures):
            i2 = UPoly(fq, i2c)
            cumulative = sum(
                cnt for (j1c, j2c), cnt in structures.items()
                if (UPoly(fq, j2c) % i2).is_zero()) if i2c != (1,) else len(group)
            struct_rows.append({
                "i1": str(UPoly(fq, i1c)),
                "i2": str(i2),
                "count": structures[(i1c, i2c)],
                "cumulative": cumulative,
            })
        weighted = sum(Fraction(q - 1, r["aut_count"]) for r in group)
        row = {
            "c": str(trace),
            "mu": unit,
            "ordinary": ordinary,
            "chi": str(chi),
            "disc": str(disc),
            "disc_imaginary": (None if q_even else is_imaginary(disc, fq)),
            "W": len(group),
            "weighted_W": _fraction_dict(weighted),
            "weighted_equals_count": weighted == len(group),
            "cyclic": all(r["cyclic"] for r in group),
            "structures": struct_rows,
            "conjecture_probe": (_conjecture_probe(fq, trace, unit, prime, m, chi)
                                 if ordinary else None),
        }
        isogeny_rows.append(row)

    # ---- totals and statistics ----
    ord_iso = [r for r in records if r["ordinary"]]
    ss_iso = [r for r in records if not r["ordinary"]]
    ord_isg = [r for r in isogeny_rows if r["ordinary"]]
    ss_isg = [r for r in isogeny_rows if not r["ordinary"]]
    totals = {
        "modules": total_pairs,
        "iso_classes": len(records),
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
    checks = {
        "annihilation_all": all(r["annihilation_ok"] for r in records),
        "structure_product_all": all(r["criteria"]["product_is_chi"]
                                     and r["criteria"]["i2_divides_i1"]
                                     for r in records),
        "ordinary_trace_divisibility_all": all(
            r["criteria"]["i2_divides_c_minus_2"] for r in ord_iso),
        "i_sq_divides_chi_all": all(r["criteria"]["i_sq_divides_chi"]
                                    for r in records),
        "trace_bound_all": all(r["trace_bound_ok"] for r in records),
        "torsion_equiv_all": all(r["torsion_equiv_ok"] for r in records),
        "members_verified": verify_members,
        "members_all_ok": all(r["members_ok"] for r in records),
        "aut_orbit_product_all": all(
            r["aut_count"] * r["orbit_size"] == tower.order - 1 for r in records),
    }

    # ---- formula comparisons ----
    formulas = counting_formulas(q, d, m)
    aut_mismatches = [iso_rows[i] for i, r in enumerate(records)
                      if r["ordinary"] and r["aut_count"] != q - 1]
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
        q_even_caveat=q_even)


def attach_class_number_checks(report, tower):
    """Compare census class sizes with independently computed Hurwitz class
    numbers, per ordinary isogeny class: the class size W against H(disc),
    and for each admissible i2 the number of members whose structure
    contains the full i2-plane against H(disc / i2^2).

    Mutates report.hurwitz; requires odd q.
    """
    from .hurwitz import hurwitz_class_number

    fq = tower.fq
    if report.q % 2 == 0:
        raise ValueError("class-number checks require odd q")
    rows = []
    all_match = True
    for cls in report.ordinary_isogeny_classes():
        disc = UPoly.parse(fq, cls["disc"])
        chi = UPoly.parse(fq, cls["chi"])
        trace = UPoly.parse(fq, cls["c"])
        imaginary = is_imaginary(disc, fq)
        H, details = hurwitz_class_number(disc, fq)
        w_match = H == cls["W"]
        all_match = all_match and w_match and imaginary
        sub_rows = []
        two = UPoly.constant(fq, 2 % fq.p)
        half = chi.degree() // 2
        for k in range(1, half + 1):
            for i2 in monic_polys(fq, k):
                if not (chi % (i2 * i2)).is_zero():
                    continue
                if not ((trace - two) % i2).is_zero():
                    continue
                cumulative = 0
                for srow in cls["structures"]:
                    j2 = UPoly.parse(fq, srow["i2"])
                    if (j2 % i2).is_zero():
                        cumulative += srow["count"]
                sub_disc, rem = divmod(disc, i2 * i2)
                if not rem.is_zero():
                    raise RuntimeError(
                        "i2^2 divides P(1) and i2 divides c - 2, so it must "
                        "divide the discriminant; got remainder %s" % rem)
                H_sub, sub_details = hurwitz_class_number(sub_disc, fq)
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
