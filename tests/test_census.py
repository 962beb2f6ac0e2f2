import json
import multiprocessing
import os
import time
from fractions import Fraction

import pytest

from drinfeld2 import (DrinfeldModule, FrobeniusCharPoly, UPoly,
                       build_tower, census, drinfeld, frobenius_charpoly, structure)
from drinfeld2.census import (attach_class_number_checks, compute_statistics,
                              counting_formulas, cyclicity_trend, default_prime, run_census,
                              twist_orbits)
from drinfeld2.drinfeld import orbit_members, sigma_orbits
from drinfeld2.fields import Fq, SizeBoundError
from drinfeld2.polys import enumerate_monic_irreducibles, irreducible_divisors
from oracles import (SplittingBoundError, action_matrix, census_heads_without_descent,
                     charpoly_by_solve, l_polynomial_problems, matrix_char_and_min_poly,
                     matrix_second_invariant_factor, phi_by_ore, torsion_structure,
                     twist_orbits_by_sweep)

from conftest import GRID, Q_TO_PS, STRETCH, tower_for


def test_twist_orbits_partition_and_sizes():
    for p, s, n in ((3, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        tw = build_tower(p, s, n)
        orbits = twist_orbits(tw)
        total = sum(size for _, size, _ in orbits)
        assert total == tw.order * (tw.order - 1)
        seen = set()
        for rep, size, aut in orbits:
            members = orbit_members(tw, rep)
            assert len(members) == size
            assert rep == min(members)
            assert aut * len(members) == tw.order - 1
            assert not (seen & set(members))
            seen.update(members)


@pytest.mark.parametrize("p,s,n", [(5, 1, 3), (2, 1, 10)])
def test_orbit_members_match_the_pow_definition(p, s, n):
    # members from discrete logs against (u^(q-1) g, u^(q^2-1) delta) by
    # tower.pow, for u in L^*, on every orbit
    tw = build_tower(p, s, n)
    q = tw.q
    twists = [(tw.pow(u, q - 1), tw.pow(u, q * q - 1)) for u in tw.units()]
    for (g, delta), _, _ in twist_orbits(tw):
        assert orbit_members(tw, (g, delta)) == sorted(
            {(tw.mul(a, g), tw.mul(b, delta)) for a, b in twists})


def test_twist_orbits_n1_are_singletons():
    tw = build_tower(3, 1, 1)
    orbits = twist_orbits(tw)
    assert len(orbits) == 6
    assert all(len(orbit_members(tw, rep)) == size == 1 for rep, size, _ in orbits)


# (p, s, n) of every GRID and STRETCH tower, then four larger ones
SWEEP_TOWERS = sorted({Q_TO_PS[q] + (d * m,) for q, d, m in GRID + STRETCH}) + [
    (2, 1, 10), (3, 1, 6), (2, 3, 3), (3, 2, 3)]


@pytest.mark.parametrize("p,s,n", SWEEP_TOWERS, ids=lambda v: str(v))
def test_twist_orbits_match_sweep(p, s, n):
    # representatives, sizes and automorphism counts from the stabilizers
    # equal those of the marking sweep; members too where |L| <= 256
    tw = build_tower(p, s, n)
    sweep = twist_orbits_by_sweep(tw)
    assert twist_orbits(tw) == [(rep, len(mem), aut) for rep, mem, aut in sweep]
    if tw.order <= 256:
        for rep, members, _ in sweep:
            assert orbit_members(tw, rep) == members


def _cycles(image):
    """The cycles of the permutation i -> image[i], each from its least
    index, in order of that index."""
    cycles, seen = [], set()
    for i in range(len(image)):
        if i not in seen:
            cycle = [i]
            while image[cycle[-1]] != i:
                cycle.append(image[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


@pytest.mark.parametrize("q,d,m", GRID + STRETCH, ids=lambda v: str(v))
def test_sigma_orbits_match_the_frobenius_on_members(q, d, m):
    # x -> x^(q^d) applied to every member of every twist orbit lands in a
    # single orbit, permuting them; the helper's groups are its cycles
    tw = tower_for(q, d * m)
    orbits = twist_orbits(tw)
    where = {member: i for i, (rep, _, _) in enumerate(orbits)
             for member in orbit_members(tw, rep)}
    image = []
    for rep, _, _ in orbits:
        targets = {where[(tw.frob(g, d), tw.frob(delta, d))]
                   for g, delta in orbit_members(tw, rep)}
        assert len(targets) == 1
        image.append(targets.pop())
    assert sorted(image) == list(range(len(orbits)))
    groups = sigma_orbits(tw, d, orbits)
    assert groups == _cycles(image)
    assert all(m % len(group) == 0 for group in groups)
    if m == 1:  # e.g. (3, 2, 1) and (3, 4, 1): sigma fixes L
        assert groups == [[i] for i in range(len(orbits))]


@pytest.mark.parametrize("q,d,m", GRID + STRETCH + [(3, 1, 7), (2, 1, 10)],
                         ids=lambda v: str(v))
def test_descent_matches_classifying_every_orbit(monkeypatch, q, d, m):
    # the result sigma carries to each twist orbit equals that of
    # classifying the orbit on its own, flags included, and so do the
    # report bytes
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    orbits = twist_orbits(tw)
    want = census_heads_without_descent(tw, prime)
    groups, done = census._classify_orbits(tw, prime, m, orbits, 1, False)
    carried = [None] * len(orbits)
    for group, result in zip(groups, done):
        for i in group:
            carried[i] = result
    assert carried == want
    report = run_census(tw, prime, m).to_json_bytes()
    singles = [[i] for i in range(len(orbits))]
    monkeypatch.setattr(census, "_classify_orbits", lambda *args: (singles, want))
    assert run_census(tw, prime, m).to_json_bytes() == report


def _regroup(monkeypatch, groups):
    monkeypatch.setattr(census, "sigma_orbits", lambda tower, d, orbits: groups)


def test_descent_guards_raise(monkeypatch):
    # q = 3, n = 2, m = 2: orbits with g = 0 have size 1 and 8
    # automorphisms, those with g != 0 size 4 and 2
    tw = tower_for(3, 2)
    prime = default_prime(tw.fq, 1)
    orbits = twist_orbits(tw)
    heads = census_heads_without_descent(tw, prime)
    rest = [i for i, (rep, _, _) in enumerate(orbits) if rep[0]]
    by_unit = {}
    for i in rest:
        by_unit.setdefault(heads[i][0][0].unit, []).append(i)
    same, other = by_unit.values()
    singles = [[i] for i in range(len(orbits))]

    def apart(*taken):
        return [[i] for i in range(len(orbits)) if not any(i in t for t in taken)]

    cases = [
        (singles[1:], "partition"),
        (singles + [[0]], "partition"),
        ([same[:3]] + apart(same[:3]), "does not divide"),
        ([[0, rest[0]]] + apart([0, rest[0]]), "orbit_size"),
        ([[same[0], other[0]]] + apart([same[0], other[0]]), "unit"),
    ]
    for groups, match in cases:
        _regroup(monkeypatch, groups)
        with pytest.raises(RuntimeError, match=match):
            run_census(tw, prime, 2)
    # the carried-orbit guards run inside the workers, and the pool
    # raises what they raise
    _regroup(monkeypatch, cases[-1][0])
    with pytest.raises(RuntimeError, match="unit"):
        run_census(tw, prime, 2, jobs=2)


def test_descent_guard_on_automorphism_counts(monkeypatch):
    # sizes times automorphism counts are |L| - 1, so only an edited
    # listing can differ in the count alone: orbits 0 and 1 of q = 3, n = 2
    # are both (0, delta) orbits of size 1
    tw = tower_for(3, 2)
    prime = default_prime(tw.fq, 1)
    orbits = twist_orbits(tw)
    edited = [orbits[0], orbits[1][:2] + (orbits[1][2] + 1,)] + orbits[2:]
    monkeypatch.setattr(census, "twist_orbits", lambda tower: edited)
    _regroup(monkeypatch, [[0, 1]] + [[i] for i in range(2, len(orbits))])
    with pytest.raises(RuntimeError, match="aut_count"):
        run_census(tw, prime, 2)


def _count_constructions(monkeypatch, *classes):
    """Calls of each class's constructor, counted from now on."""
    built = {cls: 0 for cls in classes}
    for cls in classes:
        def counted(self, *args, cls=cls, real=cls.__init__):
            built[cls] += 1
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("case", [(3, 1, 2), (4, 2, 1), (3, 2, 2)],
                         ids=lambda c: "q%d-d%d-m%d" % c)
def test_census_builds_one_charpoly_per_isogeny_class(monkeypatch, case):
    # the first head of a class builds its charpoly, every later head and
    # the class pass reuse it, and no stage of the census builds a module
    q, d, m = case
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    heads = len(sigma_orbits(tw, d, twist_orbits(tw)))
    built = _count_constructions(monkeypatch, FrobeniusCharPoly, DrinfeldModule)
    report = run_census(tw, prime, m, jobs=1)
    assert built == {FrobeniusCharPoly: report.totals["isogeny_classes"], DrinfeldModule: 0}
    assert report.totals["isogeny_classes"] <= heads


def test_grid_builds_716_charpolys_and_no_module(monkeypatch):
    # the 23 GRID + STRETCH censuses have 1,722 sigma-orbit heads in 716
    # isogeny classes
    cases = []
    for q, d, m in GRID + STRETCH:
        tw = tower_for(q, d * m)
        cases.append((tw, default_prime(tw.fq, d), m))
    built = _count_constructions(monkeypatch, FrobeniusCharPoly, DrinfeldModule)
    heads = classes = 0
    for tw, prime, m in cases:
        heads += len(sigma_orbits(tw, prime.degree(), twist_orbits(tw)))
        classes += run_census(tw, prime, m).totals["isogeny_classes"]
    assert (heads, classes) == (1722, 716)
    assert built == {FrobeniusCharPoly: 716, DrinfeldModule: 0}


@pytest.mark.parametrize("q,d,m", GRID + STRETCH, ids=lambda v: str(v))
def test_heads_on_kernels_match_the_module_route(q, d, m):
    # every sigma-head classified as the census does it, with one class
    # table for the whole census, against the oracle routes on a module of
    # its own: (c, mu) by the linear solve, (chi, i1, i2) by the Krylov pass
    # over the action matrix, the height off phi(prime) as OrePoly products,
    # the rho it tests from chi, and each rho's plane from the torsion oracle
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    kernel = tw.fq.kernel
    orbits = twist_orbits(tw)
    classes = {}
    for group in sigma_orbits(tw, d, orbits):
        found, _ = census._process_orbit(tw, prime, [orbits[i] for i in group], False, classes)
        mod = DrinfeldModule(tw, prime, *orbits[group[0]][0])
        cp, mat = charpoly_by_solve(mod), action_matrix(mod)
        chi, i1 = matrix_char_and_min_poly(tw.fq, mat)
        i2 = matrix_second_invariant_factor(tw.fq, mat, chi, i1)
        assert found[:4] == (cp, i1, i2, phi_by_ore(mod, prime).height() // d)
        stored = classes[chi, cp.unit][1]
        assert set(stored) == {rho.coeffs for rho in irreducible_divisors(cp.chi)
                               if rho != prime}
        assert found[4]
        for rho in stored:
            try:
                torsion_structure(mod, UPoly(tw.fq, rho), max_splitting_degree=1)
                rational = True
            except SplittingBoundError:
                rational = False
            assert rational == (not kernel.divmod(i2, rho)[1])


def test_charpoly_decides_ordinarity_and_c_minus_2_on_every_class():
    # the constructor's two slots against the trace itself, and ordinarity
    # against the height, on every isogeny class of one GRID case
    tw = tower_for(5, 2)
    prime = default_prime(tw.fq, 1)
    two = UPoly.constant(tw.fq, 2)
    classes = {}
    for (cp, _, _, height, _), _ in census_heads_without_descent(tw, prime):
        classes.setdefault((cp.trace.coeffs, cp.unit), []).append((cp, height))
    assert any(group[0][0].ordinary for group in classes.values())
    assert not all(group[0][0].ordinary for group in classes.values())
    for (trace, unit), group in classes.items():
        cp = group[0][0]
        assert (cp.trace.coeffs, cp.unit) == (trace, unit)
        assert cp.ordinary == (not (UPoly(tw.fq, trace) % prime).is_zero())
        assert cp.c_minus_2 == UPoly(tw.fq, trace) - two
        assert all(other == cp and (height == 1) == cp.ordinary for other, height in group)


def test_members_of_carried_orbits_are_verified(monkeypatch):
    # every one of the |L|(|L| - 1) modules gets its own structure from one
    # call of the kernel, with one phi_step, and its own annihilation
    # residue: the classifier's for a sigma-orbit head, the census's for
    # every other member; no module object calls the kernel
    tw = tower_for(3, 3)
    prime = default_prime(tw.fq, 1)
    seams = ((census, "_annihilation_residue"), (census, "invariants"),
             (structure, "_annihilation_residue"), (structure, "invariants"),
             (drinfeld, "invariants"), (drinfeld, "phi_step"))
    calls = {}
    for owner, name in seams:
        real = getattr(owner, name)
        key = "%s.%s" % (owner.__name__.split(".")[-1], name)
        calls[key] = 0

        def counted(*args, key=key, real=real):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    report = run_census(tw, prime, 3, verify_members=True)
    assert report.checks["members_all_ok"]
    modules = tw.order * (tw.order - 1)
    heads = len(sigma_orbits(tw, 1, twist_orbits(tw)))
    assert calls == {"census._annihilation_residue": modules - heads,
                     "census.invariants": modules - heads,
                     "structure._annihilation_residue": heads, "structure.invariants": heads,
                     "drinfeld.invariants": 0, "drinfeld.phi_step": modules}


def test_carried_members_are_checked_against_the_head(monkeypatch):
    # regroup two orbits of equal unit but different class: only member
    # verification, which checks a carried orbit's members against its
    # head's charpoly and structure, notices
    tw = tower_for(3, 2)
    prime = default_prime(tw.fq, 1)
    orbits = twist_orbits(tw)
    cps = [found[0] for found, _ in census_heads_without_descent(tw, prime)]
    i, j = next((i, j) for i in range(len(orbits)) for j in range(i + 1, len(orbits))
                if orbits[i][1:] == orbits[j][1:]
                and cps[i].unit == cps[j].unit and cps[i].trace != cps[j].trace)
    _regroup(monkeypatch, [[i, j]] + [[k] for k in range(len(orbits)) if k not in (i, j)])
    assert "members_all_ok" not in run_census(tw, prime, 2).checks  # nothing was checked
    assert not run_census(tw, prime, 2, verify_members=True).checks["members_all_ok"]


def test_a_member_walk_of_the_wrong_size_fails_verification(monkeypatch):
    # each orbit's walk must list orbit_size members; one that stops short
    # is a failed member check, not a shorter one
    tw = tower_for(3, 2)
    prime = default_prime(tw.fq, 1)
    real = census.orbit_members
    monkeypatch.setattr(census, "orbit_members", lambda tower, rep: real(tower, rep)[1:])
    assert not run_census(tw, prime, 2, verify_members=True).checks["members_all_ok"]


@pytest.mark.parametrize("c_is_two", [True, False], ids=["c=2", "c!=2"])
def test_class_checks_catch_a_wrong_structure(monkeypatch, c_is_two):
    # one sigma-orbit head of an ordinary class reports (1, chi) as its
    # invariant factors: i2 does not divide i1 and i2^2 does not divide
    # chi, and i2 = chi divides c - 2 exactly when c = 2
    tw = tower_for(3, 2)
    prime = default_prime(tw.fq, 1)
    flags = ("structure_product_all", "i_sq_divides_chi_all",
             "ordinary_trace_divisibility_all")
    checks = run_census(tw, prime, 2).checks
    assert all(checks[k] for k in flags)
    orbits = twist_orbits(tw)
    two = UPoly.constant(tw.fq, 2)
    heads = (DrinfeldModule(tw, prime, *orbits[group[0]][0])
             for group in sigma_orbits(tw, 1, orbits))
    bad = next(mod for mod, cp in ((mod, frobenius_charpoly(mod)) for mod in heads)
               if cp.ordinary and (cp.trace == two) == c_is_two)
    real = structure.invariants

    def wrong(tower, gamma, g, delta):
        chi, i1, i2 = real(tower, gamma, g, delta)
        if (g, delta) == (bad.g, bad.delta):
            return chi, (1,), tower.fq.kernel.mul(i1, i2)
        return chi, i1, i2

    monkeypatch.setattr(structure, "invariants", wrong)
    checks = run_census(tw, prime, 2, jobs=1).checks
    assert [checks[k] for k in flags] == [False, False, c_is_two]


def direct_isomorphism_classes(tower, prime):
    """Classify all (g, delta) by testing u*Phi_T = Psi_T*u for u in L^*
    directly; an oracle for the twist-orbit machinery that never builds
    orbits."""

    def isomorphic(a, b):
        (g1, d1), (g2, d2) = a, b
        gt = tower  # the structure constant gamma(T) is shared
        for u in tower.units():
            # u*(gamma + g1 tau + d1 tau^2) = (gamma + g2 tau + d2 tau^2)*u
            if (gt.mul(u, g1) == gt.mul(g2, gt.frob(u))
                    and gt.mul(u, d1) == gt.mul(d2, gt.frob(u, 2))):
                return True
        return False

    pairs = [(g, d) for g in tower.elements() for d in tower.units()]
    classes = []
    for pair in pairs:
        for cls in classes:
            if isomorphic(pair, cls[0]):
                cls.append(pair)
                break
        else:
            classes.append([pair])
    return classes


def test_direct_isomorphism_scan_agrees_with_orbits():
    # an isomorphism u satisfies u Phi_a = Psi_a u for all a; testing it on
    # Phi_T suffices and makes no reference to the twist-orbit formulas
    for n, ptxt in ((2, "T"), (2, "T^2+1")):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, ptxt)
        classes = direct_isomorphism_classes(tw, prime)
        orbits = twist_orbits(tw)
        assert len(classes) == len(orbits) == 24
        assert sorted(tuple(sorted(c)) for c in classes) == sorted(
            tuple(orbit_members(tw, rep)) for rep, _, _ in orbits)
        ss = sum(1 for c in classes
                 if structure.classify_module(DrinfeldModule(tw, prime, *c[0]))[3] == 2)
        assert ss == (8 if ptxt == "T" else 2)


def test_twist_orbit_members_are_isomorphic_invariants():
    # char poly and structure agree across each orbit (q=3, n=2)
    from drinfeld2 import frobenius_charpoly, module_structure

    tw = build_tower(3, 1, 2)
    prime = UPoly.parse(tw.fq, "T")
    for rep, _, _ in twist_orbits(tw):
        mods = [DrinfeldModule(tw, prime, g, d) for g, d in orbit_members(tw, rep)]
        keys = {(cp.trace.coeffs, cp.unit) for cp in map(frobenius_charpoly, mods)}
        assert len(keys) == 1
        invs = {module_structure(m) for m in mods}
        assert len(invs) == 1


def test_census_311(census_cache):
    r = census_cache(3, 1, 1)
    assert r.totals["iso_classes"] == 6
    assert r.totals["supersingular_iso_classes"] == 2
    assert r.totals["ordinary_isogeny_classes"] == 4
    assert Fraction(*r.statistics["C"]) == Fraction(1)
    assert Fraction(*r.statistics["C0"]) == Fraction(1)
    assert all(v is not False for v in r.checks.values())
    assert r.formula_comparison["iso_class_total"]["match"]
    assert r.formula_comparison["supersingular_iso_classes"]["match"]


def test_census_312(census_cache):
    r = census_cache(3, 1, 2)
    assert r.totals["iso_classes"] == 24
    assert r.totals["supersingular_iso_classes"] == 8
    assert r.totals["ordinary_iso_classes"] == 16
    assert r.totals["ordinary_isogeny_classes"] == 10
    assert r.totals["supersingular_isogeny_classes"] == 5
    # every ordinary class here is cyclic (the non-cyclic modules are all
    # supersingular at d = 1, m = 2)
    assert Fraction(*r.statistics["C"]) == Fraction(1)
    assert Fraction(*r.statistics["C0"]) == Fraction(1)
    assert any(not row["cyclic"] for row in r.iso_classes)


def test_census_321(census_cache):
    r = census_cache(3, 2, 1)
    assert r.prime == "T^2+1"
    assert r.totals["iso_classes"] == 24
    assert r.totals["supersingular_iso_classes"] == 2
    assert r.totals["ordinary_iso_classes"] == 22
    assert r.totals["ordinary_isogeny_classes"] == 14
    assert Fraction(*r.statistics["C"]) == Fraction(19, 22)
    assert Fraction(*r.statistics["C0"]) == Fraction(11, 14)
    # the closed forms disagree with enumeration here; the report must
    # flag that rather than hide it
    assert not r.formula_comparison["supersingular_iso_classes"]["match"]
    assert r.formula_comparison["supersingular_iso_classes"]["census"] == 2
    assert not r.formula_comparison["ordinary_aut_count"]["match"]
    assert not r.formula_comparison["C0_closed_form"]["match"]
    # internally everything holds
    assert all(v is not False for v in r.checks.values())


def test_counting_formulas_values():
    f = counting_formulas(3, 1, 2)
    assert f["iso_class_total"] == 24
    assert f["supersingular_iso_classes"] == 8
    f2 = counting_formulas(3, 2, 1)
    assert f2["ordinary_isogeny_classes"]["undefined"]
    assert f2["ordinary_isogeny_classes"]["substitute"] == 4
    assert Fraction(*f2["C0_closed_form"]) == Fraction(1, 4)
    f3 = counting_formulas(3, 1, 1)
    assert f3["iso_class_total"] == 6
    assert f3["supersingular_iso_classes"] == 2
    assert Fraction(*f3["C0_closed_form"]) == Fraction(1)
    f4 = counting_formulas(5, 2, 1)
    assert Fraction(*f4["C0_closed_form"]) == Fraction(15, 18)


def test_weighted_class_sizes(census_cache):
    # with every automorphism group of order q-1 the weighted size is the
    # plain count; the d=2 census has ordinary classes of weight 1/4
    r = census_cache(3, 1, 2)
    assert all(c["weighted_equals_count"] for c in r.isogeny_classes if c["ordinary"])
    r2 = census_cache(3, 2, 1)
    assert any(not c["weighted_equals_count"] for c in r2.isogeny_classes if c["ordinary"])


def test_census_size_bound():
    # a census runs on every tower build_tower accepts; only member
    # verification, which visits all |L|(|L| - 1) modules, keeps a smaller bound
    tw = build_tower(3, 1, 8)
    with pytest.raises(SizeBoundError):
        run_census(tw, default_prime(tw.fq, 1), 8, verify_members=True)


def test_census_m_mismatch():
    tw = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        run_census(tw, default_prime(tw.fq, 1), 1)


def test_q_even_census_runs_with_caveat(census_cache):
    r = census_cache(2, 1, 2)
    assert r.q_even_caveat
    assert r.statistics["defined"]
    assert all(c["disc_imaginary"] is None for c in r.isogeny_classes)
    with pytest.raises(ValueError):
        attach_class_number_checks(r, build_tower(2, 1, 2))


def test_hurwitz_crosscheck_census_311(census_cache):
    import copy

    r = census_cache(3, 1, 1)
    r = copy.deepcopy(r)
    attach_class_number_checks(r, build_tower(3, 1, 1))
    assert r.hurwitz["all_match"]
    # smallest instance: W = 1 = H(T+1) for the class with disc T+1
    discs = {c["disc"]: c for c in r.hurwitz["classes"]}
    assert discs["T+1"]["H"] == 1 and discs["T+1"]["W"] == 1


def test_class_number_checks_refuse_a_tower_over_another_field(census_cache):
    import copy

    r = copy.deepcopy(census_cache(3, 1, 1))
    for tower in (build_tower(5, 1, 1), build_tower(3, 2, 1)):
        with pytest.raises(ValueError):
            attach_class_number_checks(r, tower)
    assert r.hurwitz is None


def _bump(fq, text):
    return str(UPoly.parse(fq, text) + UPoly.one(fq))


@pytest.mark.parametrize("ordinary, key, edit", [
    (True, "disc", _bump),
    (True, "chi", _bump),
    (True, "ordinary", lambda fq, v: not v),
    (False, "ordinary", lambda fq, v: not v),
    (True, "disc_imaginary", lambda fq, v: not v),
], ids=["disc", "chi", "ordinary-cleared", "ordinary-set", "disc_imaginary"])
def test_class_number_checks_refuse_an_edited_class(census_cache, ordinary, key, edit):
    # chi, disc, ordinarity and the discriminant's sign are recomputed
    # from (c, mu), not read, so a report with one class edited is refused
    import copy

    r = copy.deepcopy(census_cache(3, 1, 2))
    tower = tower_for(3, 2)
    cls = next(c for c in r.isogeny_classes if c["ordinary"] == ordinary)
    cls[key] = edit(tower.fq, cls[key])
    with pytest.raises(ValueError, match="not the report's"):
        attach_class_number_checks(r, tower)
    assert r.hurwitz is None


def test_hurwitz_crosscheck_census_q5(census_cache):
    # a second field size for the class-number machinery
    import copy

    r = copy.deepcopy(census_cache(5, 1, 1))
    attach_class_number_checks(r, build_tower(5, 1, 1))
    assert r.hurwitz["all_match"]
    assert len(r.hurwitz["classes"]) == 16


@pytest.mark.parametrize("case", [(3, 1, 3), (5, 1, 3), (3, 1, 4)],
                         ids=lambda c: "q%d-d%d-m%d" % c)
def test_hurwitz_crosscheck_census_n_at_least_3(census_cache, case):
    # discriminants of degree 3 and 4 bring squarefree parts of genus 1
    import copy

    q, d, m = case
    r = copy.deepcopy(census_cache(q, d, m))
    attach_class_number_checks(r, tower_for(q, d * m))
    assert r.hurwitz["all_match"]
    classes = r.hurwitz["classes"]
    assert len(classes) == r.totals["ordinary_isogeny_classes"]
    terms = [t for c in classes
             for t in c["terms"] + [t for sub in c["admissible_i2"] for t in sub["terms"]]]
    assert any(t["genus"] == 1 for t in terms)
    assert any(c["admissible_i2"] for c in classes)
    for t in terms:
        assert not l_polynomial_problems(t["genus"], t["L"], q), t


def test_hurwitz_crosscheck_constant_squarefree_part(census_cache):
    # 2*T^4+2*T^2+2 = 2(T^2+2)^2: D_K = 2 is a constant non-square, so
    # O_K = F_9[T] with h = 1; 2 is a non-square mod T+1 and mod T+2, so
    # the order of conductor T^2+2 = (T+1)(T+2) has
    # h = 1 * (3 + 1)(3 + 1) / (q + 1) = 4, and H = 4 + 1 + 1 + 1
    import copy

    r = copy.deepcopy(census_cache(3, 2, 2))
    attach_class_number_checks(r, tower_for(3, 4))
    assert r.hurwitz["all_match"]
    rows = [c for c in r.hurwitz["classes"] if c["disc"] == "2*T^4+2*T^2+2"]
    assert len(rows) == 2
    for row in rows:
        assert row["W"] == row["H"] == 7
        assert [(t["l"], t["h"]) for t in row["terms"]] == [
            ("1", 4), ("T+1", 1), ("T+2", 1), ("T^2+2", 1)]
        assert [sub["H"] for sub in row["admissible_i2"]] == [2]


def test_admissible_i2_match_the_monic_scan():
    # every monic i2 of degree <= deg(chi)/2 with i2^2 | chi and i2 | c - 2,
    # in monic_polys order, as attach_class_number_checks once scanned them
    from drinfeld2.census import _admissible_i2
    from drinfeld2.polys import monic_polys

    fq = build_tower(3, 1, 1).fq
    t, one = UPoly.gen(fq), UPoly.one(fq)
    u, v = t + one, t * t + one  # T + 1 and the irreducible T^2 + 1
    cases = [(t.pow(4) * u.pow(2) * v, t * u.pow(2) * v),  # T^2 fails i2 | c - 2
             (t.pow(4) * v.pow(2), t.pow(3) * v),
             (t.pow(6), UPoly.zero(fq)),  # c = 2
             (t.pow(2) * u, u),  # gcd T + 1, but (T + 1)^2 does not divide chi
             (v.pow(2) * u, one)]
    for chi, c_minus_2 in cases:
        scan = [f for k in range(1, chi.degree() // 2 + 1) for f in monic_polys(fq, k)
                if (chi % (f * f)).is_zero() and (c_minus_2 % f).is_zero()]
        assert _admissible_i2(fq.kernel, chi.coeffs, c_minus_2.coeffs) == [f.coeffs for f in scan]


def test_report_serialization_deterministic(census_cache):
    tw = build_tower(3, 1, 1)
    prime = default_prime(tw.fq, 1)
    a = run_census(tw, prime, 1).to_json_bytes()
    b = run_census(tw, prime, 1).to_json_bytes()
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == "3"
    assert payload["statistics"]["C"] == {"num": "1", "den": "1"}


def test_report_parallel_identical():
    # at (3, 2, 2) sigma-orbits of length 2 carry a second twist orbit, and
    # each worker builds the charpoly of a class once for all its heads
    for q, d, m in ((3, 1, 2), (3, 2, 2)):
        tw = tower_for(q, d * m)
        prime = default_prime(tw.fq, d)
        groups = sigma_orbits(tw, d, twist_orbits(tw))
        serial = run_census(tw, prime, m)
        if d == 2:
            assert any(len(group) > 1 for group in groups)
            assert serial.totals["isogeny_classes"] < len(groups)
        assert run_census(tw, prime, m, jobs=2).to_json_bytes() == serial.to_json_bytes()
    # (3, 2, 2) with verify_members: the workers check every member too
    verified = run_census(tw, prime, m, verify_members=True)
    assert verified.checks["members_all_ok"]
    assert (run_census(tw, prime, m, jobs=2, verify_members=True).to_json_bytes()
            == verified.to_json_bytes())


def test_pool_size_capped(monkeypatch):
    # the pool gets min(jobs, CPU count, orbits) workers; a stand-in
    # context records the size and runs the work here, starting no process
    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class RecordingContext:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext)
    monkeypatch.setattr(census, "_fork_available", lambda: True)
    monkeypatch.setattr(census, "_WORKER", {})
    tw = build_tower(3, 1, 1)  # 6 orbits
    prime = default_prime(tw.fq, 1)
    serial = run_census(tw, prime, 1).to_json_bytes()
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_census(tw, prime, 1, jobs=100).to_json_bytes() == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_census(tw, prime, 1, jobs=100)
    run_census(tw, prime, 1, jobs=3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_census(tw, prime, 1, jobs=100)  # one worker: no pool
    assert sizes == [4, 6, 3]
    assert census._WORKER == {}  # the pool's state goes when the pool closes
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            run_census(tw, prime, 1, jobs=jobs)


def test_csv_export(census_cache):
    r = census_cache(3, 1, 2)
    csv = r.to_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + 24
    assert lines[0].startswith("g,delta,orbit_size")


def test_csv_rows_parse_to_the_json_rows(census_cache):
    # at n = 2, g and delta are written [a, b]: quoted, each row of the
    # CSV reads back as 12 fields, the JSON row's values
    import csv

    r = census_cache(3, 1, 2)
    header, *rows = csv.reader(r.to_csv().splitlines())
    assert len(header) == 12
    payload = json.loads(r.to_json_bytes())
    assert len(rows) == len(payload["iso_classes"]) == 24
    for row, want in zip(rows, payload["iso_classes"]):
        assert row == [str(want[c]) for c in header]


def test_cyclicity_trend():
    table = cyclicity_trend([3, 5], 1, 1)
    assert [row["q"] for row in table["rows"]] == [3, 5]
    for row in table["rows"]:
        assert row["C"] == {"num": "1", "den": "1"}
        assert row["C0"] == {"num": "1", "den": "1"}
        assert row["C0_closed_form"] == {"num": "1", "den": "1"}
        assert row["C0_closed_form_match"] is True
    with pytest.raises(ValueError):
        cyclicity_trend([6], 1, 1)


def test_cyclicity_trend_increases_toward_one():
    # empirical trend only: the censused proportions at d=2, m=1 grow
    # with q (no limit is asserted anywhere)
    table = cyclicity_trend([3, 5], 2, 1)
    vals = [Fraction(int(r["C0"]["num"]), int(r["C0"]["den"]))
            for r in table["rows"]]
    assert vals[0] < vals[1] < 1
    assert vals == [Fraction(11, 14), Fraction(63, 68)]
    # the literal closed form (1/4 and 5/6 here) is refuted, and says so
    assert [r["C0_closed_form_match"] for r in table["rows"]] == [False, False]


def test_statistics_sum_to_one(census_cache):
    for key in ((3, 1, 2), (3, 2, 1), (5, 1, 2)):
        r = census_cache(*key)
        st = {k: Fraction(*r.statistics[k]) for k in ("C", "N", "C0", "N0")}
        assert st["C"] + st["N"] == 1
        assert st["C0"] + st["N0"] == 1
    # with no ordinary class there is nothing to divide by
    assert compute_statistics({"ordinary_iso_classes": 0}) == {
        "defined": False, "C": None, "C0": None, "N": None, "N0": None}


def test_statistics_are_the_fractions_of_the_counts(census_cache):
    # Fraction is the oracle for the library's reduced int pairs
    for case in GRID + STRETCH:
        r = census_cache(*case)
        t = r.totals
        iso, isg = t["ordinary_iso_classes"], t["ordinary_isogeny_classes"]
        cyclic_iso, cyclic_isg = (t["cyclic_ordinary_iso_classes"],
                                  t["cyclic_ordinary_isogeny_classes"])
        want = {"C": Fraction(cyclic_iso, iso), "N": Fraction(iso - cyclic_iso, iso),
                "C0": Fraction(cyclic_isg, isg), "N0": Fraction(isg - cyclic_isg, isg)}
        for k, fr in want.items():
            assert r.statistics[k] == (fr.numerator, fr.denominator), (case, k)
        q = case[0]
        auts = {}
        for row in r.iso_classes:
            auts.setdefault((row["c"], row["mu"]), []).append(row["aut_count"])
        for cls in r.isogeny_classes:
            weighted = sum(Fraction(q - 1, aut) for aut in auts[cls["c"], cls["mu"]])
            assert cls["weighted_W"] == {"num": str(weighted.numerator),
                                         "den": str(weighted.denominator)}, case
            assert cls["weighted_equals_count"] == (weighted == cls["W"]), case


def test_default_prime_is_the_first_irreducible_without_listing_them():
    # a fresh field, so no cached irreducibility test speeds the search up;
    # listing all 3916 irreducibles of degree 2 over F_89 takes about a second
    fq = Fq(89, 1)
    start = time.perf_counter()
    prime = default_prime(fq, 2)
    assert time.perf_counter() - start < 0.2
    assert prime == enumerate_monic_irreducibles(fq, 2)[0]
    cases = {(q, d) for q, d, _ in GRID + STRETCH} | {(3, 8), (2, 13)}
    for q, d in sorted(cases):
        fq = Fq(*Q_TO_PS[q])
        assert default_prime(fq, d) == enumerate_monic_irreducibles(fq, d)[0], (q, d)


def test_terminal_summary_names_failing_criteria():
    from types import SimpleNamespace

    from conftest import pytest_terminal_summary

    class Reporter:
        def __init__(self, stats):
            self.stats = stats
            self.lines = []

        def write_sep(self, sep, title):
            self.lines.append(title)

        def write_line(self, line):
            self.lines.append(line)

    def rep(nodeid):
        return SimpleNamespace(nodeid=nodeid)

    quiet = Reporter({"passed": [rep("tests/test_acceptance.py::test_criterion_1_x")],
                      "failed": [rep("tests/test_census.py::test_other")]})
    pytest_terminal_summary(quiet)
    assert quiet.lines == []
    loud = Reporter({
        "failed": [rep("tests/test_acceptance.py::test_criterion_10_deterministic"),
                   rep("tests/test_acceptance.py::test_criterion_5b_supersingular"),
                   rep("tests/test_acceptance.py::test_criterion_9_snf")],
        "error": [rep("tests/test_acceptance.py::test_criterion_2_structure")]})
    pytest_terminal_summary(loud)
    assert loud.lines == ["failing acceptance criteria", "criteria 2, 5b, 9, 10"]
