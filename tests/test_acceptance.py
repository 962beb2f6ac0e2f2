"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (integer and rational equality); nothing is
floating point.  Censuses are shared through the session-scoped cache,
with every orbit member re-verified, not only representatives.

Criteria 5 and 6 assert census counts against the closed forms in
oracles.py, each applied only inside the domain its docstring proves:
- 5b: supersingular classes [d odd](q^gcd(2,n) - 1) + (q - 1) J, for
  m even or d <= 3 (q odd at d = 3); the literal q^gcd(2,n) - 1 at d = 1;
- 5c: automorphism counts by g, q - 1 for g != 0 and q^gcd(2,n) - 1 for
  g = 0, with j = 0 ordinary exactly when d is even;
- 6b: C0 = 1 at (d, m) = (1, 2) and 1 - 2q/((q-1)(q^2+2q-1)) at (2, 1);
- 6c: C = C0 = 1 exactly when n = 1 or (d, m) = (1, 2).
The literal formulas, which disagree with the census outside those
cases, stay in every report's formula_comparison section with their
match flags.  5b, 5c and 6b also check q = 7 through unverified censuses.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import GRID, STRETCH, tower_for
from oracles import (OutsideDomainError, c0_closed_form, cyclic_proportions_are_one,
                     determinantal_divisors, j0_class_count, j0_is_supersingular,
                     l_polynomial_problems, point_scan_structure, poly_mat_det,
                     poly_mat_mul, smith_normal_form, supersingular_iso_class_count,
                     twist_automorphism_count)

from drinfeld2 import (DrinfeldModule, UPoly, build_tower, frobenius_charpoly,
                       module_structure, realize_structure)
from drinfeld2.census import attach_class_number_checks, default_prime, run_census
from drinfeld2.structure import NotRealizable

ALL_CASES = GRID + STRETCH


def report(criterion, ok, detail=""):
    print("CRITERION %s: %s%s" % (criterion, "PASS" if ok else "FAIL",
                                  " - " + detail if detail else ""))


def test_criterion_1_annihilation_identity(census_cache):
    t0 = time.time()
    failures = []
    modules = 0
    for q, d, m in ALL_CASES:
        r = census_cache(q, d, m)
        modules += r.totals["modules"]
        # a head's identity and trace bound hold, or structure.classify raises
        if not (r.checks["members_verified"] and r.checks["members_all_ok"]):
            failures.append((q, d, m, "orbit members"))
    elapsed = time.time() - t0
    report(1, not failures,
           "tau^(2n) - phi(c) tau^n + phi(mu P^m) = 0 for %d modules in %.1fs"
           % (modules, elapsed))
    assert not failures, failures


def test_criterion_2_structure_theorem(census_cache):
    failures = []
    for q, d, m in ALL_CASES:
        r = census_cache(q, d, m)
        if not r.checks["structure_product_all"]:
            failures.append((q, d, m, "monic(i1*i2) != monic(P(1)) or i2 does not divide i1"))
        if not r.checks["members_all_ok"]:
            failures.append((q, d, m, "member structure differs from representative"))
    report(2, not failures, "monic(i1*i2) = monic(P(1)) and i2 | i1, all censuses")
    assert not failures, failures


def test_criterion_3_trace_divisibility(census_cache):
    failures = []
    for q, d, m in ALL_CASES:
        r = census_cache(q, d, m)
        if not r.checks["ordinary_trace_divisibility_all"]:
            failures.append((q, d, m))
        if not r.checks["i_sq_divides_chi_all"]:
            failures.append((q, d, m, "i^2 does not divide P(1)"))
    report(3, not failures, "i2 | (c - 2) for every ordinary census module")
    assert not failures, failures


def test_criterion_4_torsion_divisibility_equivalence(census_cache):
    failures = []
    for q, d, m in ALL_CASES:
        r = census_cache(q, d, m)
        if not r.checks["torsion_equiv_all"]:
            failures.append((q, d, m))
    report(4, not failures,
           "right-division test agrees with rho | i2 for every rho | chi, rho != P")
    assert not failures, failures


REQUIRED_COUNT_CASES = [(q, d, m) for q, d, m in GRID if q in (3, 5)]
# a field size no census_cache case uses; censused without member
# re-verification, so criterion 1's cost does not grow
Q7_CASES = [(7, 1, 2), (7, 2, 1)]


def _censuses(cases, census_cache, unverified_census):
    for q, d, m in cases:
        get = unverified_census if (q, d, m) in Q7_CASES else census_cache
        yield q, d, m, get(q, d, m)


def test_criterion_5a_iso_class_totals(census_cache):
    failures = []
    for q, d, m in REQUIRED_COUNT_CASES:
        fc = census_cache(q, d, m).formula_comparison["iso_class_total"]
        if not fc["match"]:
            failures.append((q, d, m, fc))
    report("5a", not failures,
           "(q-1)q^n / q^(n+1)-q^n+q^2-q iso-class totals, q in {3,5}, n <= 3")
    assert not failures, failures


def test_criterion_5b_supersingular_counts(census_cache, unverified_census):
    failures = []
    outside = []
    cases = REQUIRED_COUNT_CASES + STRETCH + Q7_CASES
    for q, d, m, r in _censuses(cases, census_cache, unverified_census):
        got = r.totals["supersingular_iso_classes"]
        try:
            want = supersingular_iso_class_count(q, d, m)
        except OutsideDomainError:
            outside.append((q, d, m))
            continue
        if got != want:
            failures.append("q=%d d=%d m=%d: closed form %d but census has %d"
                            % (q, d, m, want, got))
        if d == 1 and not r.formula_comparison["supersingular_iso_classes"]["match"]:
            failures.append("q=%d d=%d m=%d: literal q^gcd(2,n)-1 = %d but census has %d"
                            % (q, d, m, r.formula_comparison[
                                "supersingular_iso_classes"]["formula"], got))
    if outside != [(3, 4, 1)]:
        failures.append("closed form outside its domain at %r, expected only (3, 4, 1)"
                        % outside)
    report("5b", not failures,
           "supersingular iso-classes = [d odd](q^gcd(2,n)-1) + (q-1)J for m even "
           "or d <= 3, q in {3,5,7}; literal q^gcd(2,n)-1 at d = 1"
           if not failures else "; ".join(failures))
    assert not failures, "\n".join(failures)


def test_criterion_5c_ordinary_aut_counts(census_cache, unverified_census):
    failures = []
    for q, d, m, r in _censuses(REQUIRED_COUNT_CASES + [(7, 2, 1)],
                                census_cache, unverified_census):
        n = d * m
        ordinary_j0 = 0
        for row in r.iso_classes:
            g_is_zero = not any(row["g"])
            want = twist_automorphism_count(q, n, g_is_zero)
            if row["aut_count"] != want:
                failures.append("q=%d d=%d m=%d: class g=%r delta=%r has aut %d, "
                                "closed form %d"
                                % (q, d, m, row["g"], row["delta"], row["aut_count"], want))
            if row["ordinary"] and not g_is_zero and row["aut_count"] != q - 1:
                failures.append("q=%d d=%d m=%d: ordinary class g=%r delta=%r with "
                                "g != 0 has aut %d != q-1"
                                % (q, d, m, row["g"], row["delta"], row["aut_count"]))
            if row["ordinary"] and g_is_zero:
                ordinary_j0 += 1
        want_j0 = 0 if j0_is_supersingular(d) else j0_class_count(q, n)
        if ordinary_j0 != want_j0:
            failures.append("q=%d d=%d m=%d: %d ordinary classes with g = 0, expected %d"
                            % (q, d, m, ordinary_j0, want_j0))
        literal = r.formula_comparison["ordinary_aut_count"]["mismatching_classes"]
        if any(any(row["g"]) for row in literal):
            failures.append("q=%d d=%d m=%d: a class with g != 0 is recorded as a "
                            "mismatch of the literal q-1" % (q, d, m))
    report("5c", not failures,
           "aut = q-1 for g != 0 and q^gcd(2,n)-1 for g = 0; j = 0 ordinary "
           "exactly when d is even" if not failures else "; ".join(failures[:5]))
    assert not failures, "\n".join(failures)


def test_criterion_6a_trivial_extension_is_cyclic(census_cache):
    failures = []
    for q in (2, 3, 4, 5):
        st = census_cache(q, 1, 1).statistics
        c, c0 = Fraction(*st["C"]), Fraction(*st["C0"])
        if c != 1 or c0 != 1:
            failures.append((q, c, c0))
    report("6a", not failures, "C(1,1,q) = C0(1,1,q) = 1 for q in {2,3,4,5}")
    assert not failures, failures


def test_criterion_6b_cyclic_proportion_closed_forms(census_cache, unverified_census):
    cases = [(q, d, m) for q in (3, 5) for d, m in ((1, 2), (2, 1))] + Q7_CASES
    failures = []
    for q, d, m, r in _censuses(cases, census_cache, unverified_census):
        want = c0_closed_form(q, d, m)
        got = Fraction(*r.statistics["C0"])
        if got != want:
            failures.append("C0(d=%d,m=%d,q=%d): closed form %s but census has %s"
                            % (d, m, q, want, got))
    report("6b", not failures,
           "C0 = 1 at (d,m) = (1,2) and 1 - 2q/((q-1)(q^2+2q-1)) at (2,1), "
           "q in {3,5,7}" if not failures else "; ".join(failures))
    assert not failures, "\n".join(failures)


def test_criterion_6c_cyclicity_characterizes_trivial_extension(census_cache):
    failures = []
    for q, d, m in REQUIRED_COUNT_CASES:
        st = census_cache(q, d, m).statistics
        c, c0 = Fraction(*st["C"]), Fraction(*st["C0"])
        both_one = c == 1 and c0 == 1
        want = cyclic_proportions_are_one(q, d, m)
        if both_one != want:
            failures.append("q=%d d=%d m=%d: C=%s C0=%s but the closed form says %s"
                            % (q, d, m, c, c0,
                               "C = C0 = 1" if want else "C0 < 1"))
    report("6c", not failures,
           "C = C0 = 1 exactly when n = 1 or (d,m) = (1,2) over the censused grid"
           if not failures else "; ".join(failures))
    assert not failures, "\n".join(failures)


def _census_structures(report_obj, ordinary_only=True):
    out = set()
    for cls in report_obj.isogeny_classes:
        if ordinary_only and not cls["ordinary"]:
            continue
        for srow in cls["structures"]:
            out.add((srow["i1"], srow["i2"]))
    return out


def test_criterion_7_realization_matches_census(census_cache):
    failures = []
    for d, m in ((1, 1), (1, 2), (2, 1)):
        n = d * m
        tower = tower_for(3, n)
        fq = tower.fq
        prime = default_prime(fq, d)
        rep = census_cache(3, d, m)
        occurring = _census_structures(rep)
        # theorem-admissible: some ordinary class has matching chi and
        # i2 | c - 2
        two = UPoly.constant(fq, 2)
        admissible = set()
        candidate_pairs = []
        for d1 in range(0, n + 1):
            d2 = n - d1
            if d2 > d1:
                continue
            for i1 in (UPoly(fq, t + (1,)) for t in
                       itertools.product(range(fq.q), repeat=d1)):
                for i2 in (UPoly(fq, t + (1,)) for t in
                           itertools.product(range(fq.q), repeat=d2)):
                    candidate_pairs.append((i1, i2))
                    if not (i1 % i2).is_zero():
                        continue
                    chi = (i1 * i2).monic()
                    for cls in rep.isogeny_classes:
                        if not cls["ordinary"] or cls["chi"] != str(chi):
                            continue
                        c = UPoly.parse(fq, cls["c"])
                        if ((c - two) % i2).is_zero():
                            admissible.add((str(i1), str(i2)))
                            break
        if occurring != admissible:
            failures.append((3, d, m, "census structures differ from admissible set",
                             sorted(occurring ^ admissible)))
        realized = set()
        for i1, i2 in candidate_pairs:
            res = realize_structure(tower, prime, m, i1, i2)
            if isinstance(res, NotRealizable):
                continue
            inv = module_structure(res)
            if (inv.i1, inv.i2) != (i1, i2):
                failures.append((3, d, m, "witness has wrong structure", str(i1), str(i2)))
            if not frobenius_charpoly(res).ordinary:
                failures.append((3, d, m, "witness not ordinary", str(i1), str(i2)))
            realized.add((str(i1), str(i2)))
        if realized != admissible:
            failures.append((3, d, m, "realized set differs from admissible set",
                             sorted(realized ^ admissible)))
    report(7, not failures,
           "realize() succeeds exactly on the census-occurring structures, q=3, n <= 2")
    assert not failures, failures


def test_criterion_8_class_number_crosschecks(census_cache):
    import copy

    t0 = time.time()
    failures = []
    for d, m in ((1, 1), (1, 2), (2, 1)):
        rep = copy.deepcopy(census_cache(3, d, m))
        attach_class_number_checks(rep, tower_for(3, d * m))
        for cls in rep.hurwitz["classes"]:
            if not cls["imaginary"]:
                failures.append((d, m, cls["c"], cls["mu"], "disc not imaginary"))
            if not cls["match"]:
                failures.append((d, m, cls["c"], cls["mu"],
                                 "W = %d but H(disc) = %d" % (cls["W"], cls["H"])))
            terms = cls["terms"] + [t for sub in cls["admissible_i2"] for t in sub["terms"]]
            for term in terms:
                for problem in l_polynomial_problems(term["genus"], term["L"], 3):
                    failures.append((d, m, cls["c"], term["disc"], problem))
            for sub in cls["admissible_i2"]:
                if not sub["match"]:
                    failures.append((d, m, cls["c"], cls["mu"], sub["i2"],
                                     "n(P,i2) = %d but H = %d"
                                     % (sub["census_members_with_plane"], sub["H"])))
    elapsed = time.time() - t0
    report(8, not failures,
           "W(F) = H(disc) and n(P,i2) = H(disc/i2^2) for all ordinary classes, "
           "q=3, n <= 2, L-polynomials checked (%.0fs)" % elapsed)
    assert not failures, failures
    assert elapsed < 300


def test_criterion_9_snf_and_point_scan_oracles(census_cache):
    fq = build_tower(3, 1, 1).fq
    rng = random.Random(20240301)
    bad = 0
    for _ in range(1000):
        n = rng.randrange(1, 4)
        mat = [[UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(0, 4))])
                for _ in range(n)] for _ in range(n)]
        u, dd, v = smith_normal_form(mat)
        if poly_mat_mul(poly_mat_mul(u, mat), v) != dd:
            bad += 1
            continue
        if int(poly_mat_det(u).degree()) != 0 or int(poly_mat_det(v).degree()) != 0:
            bad += 1
            continue
        divisors = determinantal_divisors(mat)
        acc = UPoly.one(fq)
        for k in range(n):
            if dd[k][k].is_zero():
                if divisors[k] is not None:
                    bad += 1
                break
            acc = acc * dd[k][k]
            if divisors[k] != acc.monic():
                bad += 1
                break
    scan_bad = []
    for d, m, ptxt in ((1, 1, "T"), (1, 2, "T"), (2, 1, "T^2+1")):
        tower = tower_for(3, d * m)
        prime = UPoly.parse(tower.fq, ptxt)
        one = (1,)
        for g in range(tower.order):
            for delta in range(1, tower.order):
                mod = DrinfeldModule(tower, prime, g, delta)
                inv = module_structure(mod)
                expected = tuple(sorted(
                    f.coeffs for f in (inv.i1, inv.i2) if f.coeffs != one))
                if point_scan_structure(mod) != expected:
                    scan_bad.append((d, m, g, delta))
    ok = bad == 0 and not scan_bad
    report(9, ok,
           "1000 random Smith forms vs determinantal divisors; point-scan "
           "structure oracle on every module at q=3, n <= 2")
    assert bad == 0
    assert not scan_bad, scan_bad


def test_criterion_10_deterministic_reports():
    towers = [(3, 1, 1, 2), (3, 1, 2, 1)]
    failures = []
    for p, s, d, m in towers:
        tower = build_tower(p, s, d * m)
        prime = default_prime(tower.fq, d)
        one = run_census(tower, prime, m).to_json_bytes()
        two = run_census(tower, prime, m).to_json_bytes()
        par = run_census(tower, prime, m, jobs=3).to_json_bytes()
        if not (one == two == par):
            failures.append((p, s, d, m))
    report(10, not failures,
           "byte-identical reports across repeated and parallel runs")
    assert not failures, failures
