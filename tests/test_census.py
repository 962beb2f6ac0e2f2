import json
import multiprocessing
import os
from fractions import Fraction

import pytest

from drinfeld2 import DrinfeldModule, UPoly, build_tower, census
from drinfeld2.census import (attach_class_number_checks, counting_formulas,
                              cyclicity_trend, default_prime, run_census,
                              twist_orbits)
from drinfeld2.fields import SizeBoundError


def test_twist_orbits_partition_and_sizes():
    for p, s, n in ((3, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        tw = build_tower(p, s, n)
        orbits = twist_orbits(tw)
        total = sum(len(mem) for _, mem, _ in orbits)
        assert total == tw.order * (tw.order - 1)
        seen = set()
        for rep, members, aut in orbits:
            assert rep == min(members)
            assert aut * len(members) == tw.order - 1
            assert not (seen & set(members))
            seen.update(members)


def test_twist_orbits_n1_are_singletons():
    tw = build_tower(3, 1, 1)
    orbits = twist_orbits(tw)
    assert len(orbits) == 6
    assert all(len(mem) == 1 for _, mem, _ in orbits)


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
            tuple(mem) for _, mem, _ in orbits)
        ss = sum(1 for c in classes
                 if DrinfeldModule(tw, prime, *c[0]).is_supersingular())
        assert ss == (8 if ptxt == "T" else 2)


def test_twist_orbit_members_are_isomorphic_invariants():
    # char poly and structure agree across each orbit (q=3, n=2)
    from drinfeld2 import frobenius_charpoly, module_structure

    tw = build_tower(3, 1, 2)
    prime = UPoly.parse(tw.fq, "T")
    for rep, members, _ in twist_orbits(tw):
        mods = [DrinfeldModule(tw, prime, g, d) for g, d in members]
        keys = {frobenius_charpoly(m).key() for m in mods}
        assert len(keys) == 1
        invs = {module_structure(m).as_pair() for m in mods}
        assert len(invs) == 1


def test_census_311(census_cache):
    r = census_cache(3, 1, 1)
    assert r.totals["iso_classes"] == 6
    assert r.totals["supersingular_iso_classes"] == 2
    assert r.totals["ordinary_isogeny_classes"] == 4
    assert r.statistics["C"] == Fraction(1)
    assert r.statistics["C0"] == Fraction(1)
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
    assert r.statistics["C"] == Fraction(1)
    assert r.statistics["C0"] == Fraction(1)
    assert any(not row["cyclic"] for row in r.iso_classes)


def test_census_321(census_cache):
    r = census_cache(3, 2, 1)
    assert r.prime == "T^2+1"
    assert r.totals["iso_classes"] == 24
    assert r.totals["supersingular_iso_classes"] == 2
    assert r.totals["ordinary_iso_classes"] == 22
    assert r.totals["ordinary_isogeny_classes"] == 14
    assert r.statistics["C"] == Fraction(19, 22)
    assert r.statistics["C0"] == Fraction(11, 14)
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
    assert f2["C0_closed_form"] == Fraction(1, 4)
    f3 = counting_formulas(3, 1, 1)
    assert f3["iso_class_total"] == 6
    assert f3["supersingular_iso_classes"] == 2
    assert f3["C0_closed_form"] == Fraction(1)
    f4 = counting_formulas(5, 2, 1)
    assert f4["C0_closed_form"] == Fraction(15, 18)


def test_conjecture_probe_recorded(census_cache):
    r = census_cache(3, 1, 2)
    for cls in r.ordinary_isogeny_classes():
        probe = cls["conjecture_probe"]
        assert probe is not None
        assert probe["det_is_unit_times_norm"] is not None
        assert probe["trace_matches_c_minus_2"]


def test_weighted_class_sizes(census_cache):
    # with every automorphism group of order q-1 the weighted size is the
    # plain count; the d=2 census has ordinary classes of weight 1/4
    r = census_cache(3, 1, 2)
    assert all(c["weighted_equals_count"] for c in r.ordinary_isogeny_classes())
    r2 = census_cache(3, 2, 1)
    assert any(not c["weighted_equals_count"] for c in r2.ordinary_isogeny_classes())


def test_census_size_bound():
    tw = build_tower(3, 1, 8)
    with pytest.raises(SizeBoundError):
        run_census(tw, default_prime(tw.fq, 1), 8)


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


def test_hurwitz_crosscheck_census_q5(census_cache):
    # a second field size for the class-number machinery; n = 1 keeps the
    # discriminant degrees (and hence the lattice searches) small
    import copy

    r = copy.deepcopy(census_cache(5, 1, 1))
    attach_class_number_checks(r, build_tower(5, 1, 1))
    assert r.hurwitz["all_match"]
    assert len(r.hurwitz["classes"]) == 16


def test_report_serialization_deterministic(census_cache):
    tw = build_tower(3, 1, 1)
    prime = default_prime(tw.fq, 1)
    a = run_census(tw, prime, 1).to_json_bytes()
    b = run_census(tw, prime, 1).to_json_bytes()
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == "1"
    assert payload["statistics"]["C"] == {"num": "1", "den": "1"}


def test_report_parallel_identical():
    tw = build_tower(3, 1, 2)
    prime = default_prime(tw.fq, 1)
    serial = run_census(tw, prime, 2).to_json_bytes()
    parallel = run_census(tw, prime, 2, jobs=2).to_json_bytes()
    assert serial == parallel


def test_pool_size_capped(monkeypatch):
    # the pool gets min(jobs, CPU count, orbits) workers; a stand-in
    # context records the size and runs the work here, starting no process
    sizes = []

    class RecordingPool:
        def __init__(self, size, initializer, initargs):
            sizes.append(size)
            initializer(*initargs)

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
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            run_census(tw, prime, 1, jobs=jobs)


def test_csv_export(census_cache):
    r = census_cache(3, 1, 2)
    csv = r.to_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + 24
    assert lines[0].startswith("g,delta,orbit_size")


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
        st = r.statistics
        assert st["C"] + st["N"] == 1
        assert st["C0"] + st["N0"] == 1
