import hashlib
import inspect
import random
from functools import lru_cache

import pytest

from drinfeld2 import (DrinfeldModule, FrobeniusCharPoly, InvariantFactors, UPoly,
                       build_tower, check_criteria, frobenius_charpoly, is_imaginary,
                       module_structure, plane_torsion_rational, realize_structure)
from drinfeld2 import structure
from drinfeld2.census import default_prime, twist_orbits
from drinfeld2.charpoly import frobenius_unit
from drinfeld2.drinfeld import sigma_orbits
from drinfeld2.polys import irreducible_divisors, monic_polys
from drinfeld2.structure import NotRealizable, _candidate_isogeny_keys
from oracles import (OrePoly, SplittingBoundError, action_matrix,
                     candidate_isogeny_keys_by_scan, determinantal_divisors,
                     point_scan_structure, poly_mat_det, poly_mat_mul, realize_by_scan,
                     smith_normal_form, suborder_contained, torsion_structure)

from conftest import GRID, STRETCH, tower_for


def fq3():
    return build_tower(3, 1, 1).fq


def random_poly_matrix(fq, n, maxdeg, rng):
    return [[UPoly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(0, maxdeg + 2))])
             for _ in range(n)] for _ in range(n)]


def test_snf_examples():
    fq = fq3()
    t = UPoly.gen(fq)
    zero = UPoly.zero(fq)
    u, d, v = smith_normal_form([[t, zero], [zero, t * t]])
    assert d[0][0] == t and d[1][1] == t * t
    u, d, v = smith_normal_form([[t, UPoly.one(fq)], [zero, t]])
    assert d[0][0].is_one() and d[1][1] == t * t


def test_snf_oracle_random():
    fq = fq3()
    rng = random.Random(12345)
    for trial in range(300):
        n = rng.randrange(1, 4)
        mat = random_poly_matrix(fq, n, 2, rng)
        u, d, v = smith_normal_form(mat)
        # exact transform
        assert poly_mat_mul(poly_mat_mul(u, mat), v) == d
        # unimodular
        assert int(poly_mat_det(u).degree()) == 0
        assert int(poly_mat_det(v).degree()) == 0
        # diagonal, monic, divisibility chain
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j].is_zero()
        prev = None
        for i in range(n):
            e = d[i][i]
            if e:
                assert e.is_monic() or e.is_one()
                if prev is not None and prev:
                    assert (e % prev).is_zero()
            else:
                assert prev is None or True
            prev = e
        # determinantal divisor oracle: d_1 * ... * d_k = gcd of k-minors
        divisors = determinantal_divisors(mat)
        acc = UPoly.one(fq)
        for k in range(n):
            if d[k][k].is_zero():
                assert divisors[k] is None
                acc = None
            else:
                acc = acc * d[k][k]
                assert divisors[k] == acc.monic()
            if acc is None:
                break


def test_action_matrix_example():
    tw = build_tower(3, 1, 1)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 1, 1)
    assert action_matrix(mod) == [[2]]  # x -> x^3 + x^9 = 2x on F_3


def test_action_matrix_is_linear():
    tw = build_tower(3, 1, 2)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 4, 7)
    mat = action_matrix(mod)
    rng = random.Random(5)
    fq = tw.fq
    for _ in range(40):
        x = rng.randrange(tw.order)
        vec = tw.vector(x)
        img = [0] * tw.n
        for i in range(tw.n):
            for j in range(tw.n):
                img[i] = fq.add(img[i], fq.mul(mat[i][j], vec[j]))
        assert tuple(img) == tw.vector(OrePoly(tw, mod.phi_t).apply(x))


def test_structure_example_and_cyclic_n1():
    tw = build_tower(3, 1, 1)
    prime = UPoly.parse(tw.fq, "T")
    inv = module_structure(DrinfeldModule(tw, prime, 1, 1))
    assert inv.i1 == UPoly.parse(tw.fq, "T+1")
    assert inv.i2.is_one() and inv.is_cyclic()
    for g in range(3):
        for delta in (1, 2):
            assert module_structure(DrinfeldModule(tw, prime, g, delta)).is_cyclic()


def test_noncyclic_instance_exists_n2():
    tw = build_tower(3, 1, 2)
    prime = UPoly.parse(tw.fq, "T")
    noncyclic = [(g, delta) for g in range(9) for delta in range(1, 9)
                 if not module_structure(DrinfeldModule(tw, prime, g, delta)).is_cyclic()]
    assert noncyclic
    g, delta = noncyclic[0]
    inv = module_structure(DrinfeldModule(tw, prime, g, delta))
    assert inv.i1 == inv.i2 and int(inv.i2.degree()) == 1


@pytest.mark.parametrize("n,ptxt", [(1, "T"), (2, "T"), (2, "T^2+1")])
def test_structure_matches_point_scan_oracle_all_modules(n, ptxt):
    tw = build_tower(3, 1, n)
    prime = UPoly.parse(tw.fq, ptxt)
    one = (1,)
    for g in range(tw.order):
        for delta in range(1, tw.order):
            mod = DrinfeldModule(tw, prime, g, delta)
            inv = module_structure(mod)
            expected = tuple(sorted(
                f.coeffs for f in (inv.i1, inv.i2) if f.coeffs != one))
            assert point_scan_structure(mod) == expected


def test_check_criteria_flags():
    tw = build_tower(3, 1, 1)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 1, 1)
    cp = frobenius_charpoly(mod)
    flags = check_criteria(cp, module_structure(mod))
    assert all(flags.values())
    assert list(inspect.signature(check_criteria).parameters) == ["cp", "inv"]

    def P(text):
        return UPoly.parse(tw.fq, text)

    # cp has c = 2 and chi = T + 1; the class (c, mu) = (1, 1) at P = T,
    # m = 2 has chi = T^2 and c - 2 = 2, a unit
    square = FrobeniusCharPoly(P("1"), 1, P("T"), 2)
    assert (cp.trace, cp.chi, square.chi) == (P("2"), P("T+1"), P("T^2"))
    cases = [
        (square, "T^2", "1", set()),
        (square, "T^3", "1", {"product_is_chi"}),
        (square, "T", "T", {"i2_divides_c_minus_2"}),
        # given i1*i2 = chi, i2^2 | chi exactly when i2 | i1: the two fail together
        (cp, "1", "T+1", {"i2_divides_i1", "i_sq_divides_chi"}),
    ]
    for charpoly, i1, i2, failing in cases:
        flags = check_criteria(charpoly, InvariantFactors(P(i1), P(i2)))
        assert {k for k, v in flags.items() if not v} == failing, (i1, i2)


def test_plane_torsion_rational_noncyclic_instance():
    tw = build_tower(3, 1, 2)
    fq = tw.fq
    prime = UPoly.parse(fq, "T")
    mod = DrinfeldModule(tw, prime, 0, 1)  # structure (T+2, T+2)
    inv = module_structure(mod)
    assert inv.i2 == UPoly.parse(fq, "T+2")
    assert plane_torsion_rational(mod, UPoly.parse(fq, "T+2"))
    assert not plane_torsion_rational(mod, UPoly.parse(fq, "T+1"))
    with pytest.raises(ValueError):
        plane_torsion_rational(mod, prime)
    with pytest.raises(ValueError):
        plane_torsion_rational(mod, UPoly.parse(fq, "T^2+2"))  # reducible


@pytest.mark.parametrize("n,ptxt", [(1, "T"), (2, "T"), (2, "T^2+1")])
def test_plane_torsion_equivalent_to_invariant_divisibility(n, ptxt):
    tw = build_tower(3, 1, n)
    prime = UPoly.parse(tw.fq, ptxt)
    for g in range(tw.order):
        for delta in range(1, tw.order):
            mod = DrinfeldModule(tw, prime, g, delta)
            inv = module_structure(mod)
            chi = frobenius_charpoly(mod).chi
            for rho in irreducible_divisors(chi):
                if rho == prime:
                    continue
                assert plane_torsion_rational(mod, rho) == (inv.i2 % rho).is_zero()


@pytest.mark.parametrize("q,d,m", [(3, 1, 2), (3, 2, 1), (2, 2, 2)])
def test_plane_torsion_rational_matches_the_torsion_oracle(q, d, m):
    # the full rho-plane lies in L exactly when the oracle finds the whole
    # kernel of phi(rho) without leaving L (splitting degree 1)
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    outcomes = set()
    for (g, delta), _, _ in twist_orbits(tw):
        mod = DrinfeldModule(tw, prime, g, delta)
        for rho in irreducible_divisors(frobenius_charpoly(mod).chi):
            if rho == prime:
                continue
            try:
                torsion_structure(mod, rho, max_splitting_degree=1)
                rational = True
            except SplittingBoundError:
                rational = False
            assert plane_torsion_rational(mod, rho) == rational
            outcomes.add(rational)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,s,n", [(2, 2, 2), (3, 1, 4), (2, 1, 13)])
def test_right_remainder_matches_the_ore_oracle(p, s, n):
    # random dividends (trailing zeros and exact multiples among them) and
    # divisors (non-monic, some of higher degree than the dividend), then
    # tau^n - 1 by phi(rho) for every sigma-head of the census at d = 1
    # and every rho of degree <= 2 but the prime
    tw = build_tower(p, s, n)
    rng = random.Random(11 * p + n)
    outcomes = set()

    def check(f, g):
        want = OrePoly(tw, f).right_divmod(OrePoly(tw, g))[1].coeffs
        assert tuple(structure._right_remainder(tw, list(f), g)) == want
        outcomes.add(not want)

    def draw(low, high):
        return [rng.randrange(tw.order) for _ in range(rng.randrange(low, high))]

    for _ in range(300):
        f, g = draw(0, 9), draw(0, 6) + [rng.randrange(1, tw.order)]
        check(f, g)
        check((OrePoly(tw, draw(0, 4)) * OrePoly(tw, g)).coeffs, g)
    check([1, 2], [0, 0, 3, 2])  # a non-monic divisor above the dividend leaves it
    prime = default_prime(tw.fq, 1)
    rhos = [rho for k in (1, 2) for rho in monic_polys(tw.fq, k)
            if rho.is_irreducible() and rho != prime]
    orbits = twist_orbits(tw)
    for group in sigma_orbits(tw, 1, orbits):
        mod = DrinfeldModule(tw, prime, *orbits[group[0]][0])
        for rho in rhos:
            check([tw.neg(1)] + [0] * (n - 1) + [1], mod.phi(rho))
    assert outcomes == {True, False}


def test_suborder_contained():
    tw = build_tower(3, 1, 2)
    fq = tw.fq
    prime = UPoly.parse(fq, "T^2+1")
    # the ordinary non-cyclic class at (d, m) = (2, 1) has trace 2, unit 1
    found = None
    for g in range(tw.order):
        for delta in range(1, tw.order):
            mod = DrinfeldModule(tw, prime, g, delta)
            if not mod.is_ordinary():
                continue
            inv = module_structure(mod)
            if not inv.is_cyclic():
                found = (mod, inv)
                break
        if found:
            break
    assert found is not None
    mod, inv = found
    rho = inv.i2
    assert suborder_contained(mod, rho)
    assert not inv.is_cyclic()  # containment implies non-cyclic
    # a cyclic module in the same isogeny class must fail the test
    cp = frobenius_charpoly(mod)
    for g in range(tw.order):
        for delta in range(1, tw.order):
            other = DrinfeldModule(tw, prime, g, delta)
            ocp = frobenius_charpoly(other)
            if (ocp.trace.coeffs, ocp.unit) != (cp.trace.coeffs, cp.unit):
                continue
            oinv = module_structure(other)
            if oinv.is_cyclic():
                assert not suborder_contained(other, rho)
    # precondition violations
    with pytest.raises(ValueError):
        suborder_contained(mod, UPoly.parse(fq, "T+1"))  # rho^2 does not divide chi


def test_realize_examples():
    tw = build_tower(3, 1, 1)
    fq = tw.fq
    prime = UPoly.parse(fq, "T")
    mod = realize_structure(tw, prime, 1, UPoly.parse(fq, "T+1"), UPoly.one(fq))
    assert isinstance(mod, DrinfeldModule)
    assert (mod.g, mod.delta) == (1, 1)  # the lexicographically least witness
    inv = module_structure(mod)
    assert inv.i1 == UPoly.parse(fq, "T+1") and inv.is_cyclic()

    res = realize_structure(tw, prime, 1, UPoly.parse(fq, "T+1"),
                            UPoly.parse(fq, "T+2"))
    assert isinstance(res, NotRealizable)
    assert "divisibility" in res.reason or "degree" in res.reason

    tw2 = build_tower(3, 1, 2)
    fq2 = tw2.fq
    res2 = realize_structure(tw2, UPoly.parse(fq2, "T"), 2,
                             UPoly.parse(fq2, "T^2+T"), UPoly.one(fq2))
    assert isinstance(res2, DrinfeldModule) or isinstance(res2, NotRealizable)


@pytest.mark.parametrize("n,prime,m,i1", [(2, "T^2", 1, "T"), (1, "2*T", 1, "T^2"),
                                          (1, "2*T", 1, "T+1"), (1, "0", -1, "T^2")])
def test_realize_rejects_an_invalid_prime(n, prime, m, i1):
    # reducible, not monic, zero, each with m deg(prime) = n: a ValueError,
    # never a NotRealizable
    tw = build_tower(3, 1, n)
    fq = tw.fq
    with pytest.raises(ValueError):
        realize_structure(tw, UPoly.parse(fq, prime), m, UPoly.parse(fq, i1), UPoly.one(fq))


def test_realize_rejects_invariant_factors_over_another_field():
    # F_5 factors on a tower over F_3: bad input, read before any condition
    tw = build_tower(3, 1, 2)
    prime, f5 = UPoly.parse(tw.fq, "T"), build_tower(5, 1, 1).fq
    for i1, i2 in (("2*T^2", "1"), ("T^3", "1"), ("T^2", "T"), ("T^2+1", "1")):
        with pytest.raises(ValueError, match="base field"):
            realize_structure(tw, prime, 2, UPoly.parse(f5, i1), UPoly.parse(f5, i2))


def test_realize_rejects_a_zero_invariant_factor():
    # 0 generates no ideal of finite index: bad input, while a nonzero
    # factor that is not monic stays a NotRealizable
    tw = build_tower(3, 1, 1)
    prime = UPoly.parse(tw.fq, "T")
    for i1, i2 in (("T+1", "0"), ("0", "0"), ("0", "1")):
        with pytest.raises(ValueError):
            realize_structure(tw, prime, 1, UPoly.parse(tw.fq, i1), UPoly.parse(tw.fq, i2))
    res = realize_structure(tw, prime, 1, UPoly.parse(tw.fq, "2*T+2"), UPoly.one(tw.fq))
    assert res == NotRealizable("invariant factors must be monic")


def _monic_structures(fq, n):
    """Every monic (i1, i2) with i2 | i1 and deg i1 + deg i2 = n."""
    for k in range(n // 2 + 1):
        for i2 in monic_polys(fq, k):
            for cofactor in monic_polys(fq, n - 2 * k):
                yield i2 * cofactor, i2


@pytest.mark.parametrize("case", GRID + STRETCH, ids=lambda c: "q%d-d%d-m%d" % c)
def test_candidate_classes_match_the_box_scan(case):
    # every monic (i1, i2) with i2 | i1 and deg i1 + deg i2 = n
    q, d, m = case
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    for i1, i2 in _monic_structures(tw.fq, tw.n):
        assert (_candidate_isogeny_keys(tw, prime, m, i1, i2)
                == candidate_isogeny_keys_by_scan(tw, prime, m, i1, i2)), (i1, i2)


@lru_cache(maxsize=None)
def _realize_answers(case):
    """(i1, i2, candidates, answer) for every monic structure of case, the
    answer a NotRealizable or the witness's (g, delta, charpoly)."""
    q, d, m = case
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    out = []
    for i1, i2 in _monic_structures(tw.fq, tw.n):
        got = realize_structure(tw, prime, m, i1, i2)
        if isinstance(got, DrinfeldModule):
            got = (got.g, got.delta, frobenius_charpoly(got))
        out.append((i1, i2, _candidate_isogeny_keys(tw, prime, m, i1, i2), got))
    return prime, out


def test_realize_follows_the_paper_theorem():
    # an ordinary imaginary Weil pair is an isogeny class, and with
    # P(1) = mu i1 i2 and i2 | c - 2 it holds a module with L = A/(i1) + A/(i2):
    # realize answers in the first imaginary candidate, or not at all
    inputs = 0
    for case in GRID + STRETCH:
        q, d, m = case
        if q % 2 == 0:
            continue  # no imaginary test in characteristic 2
        prime, answers = _realize_answers(case)
        for i1, i2, candidates, got in answers:
            if not candidates:
                continue
            inputs += 1
            imaginary = [(trace, unit) for trace, unit in candidates
                         if is_imaginary(FrobeniusCharPoly(trace, unit, prime, m).disc)]
            if isinstance(got, NotRealizable):
                assert not imaginary, (case, i1, i2)
            else:
                cp = got[2]
                assert imaginary and (cp.trace, cp.unit) == imaginary[0], (case, i1, i2)
    assert inputs == 269


def test_realize_answers_are_pinned():
    lines, realizable = [], 0
    for case in GRID + STRETCH:
        for i1, i2, _, got in _realize_answers(case)[1]:
            if isinstance(got, NotRealizable):
                answer = got.reason
            else:
                answer, realizable = "%d %d" % got[:2], realizable + 1
            lines.append("%d %d %d %s %s %s" % (case + (i1, i2, answer)))
    assert (len(lines), realizable) == (1057, 352)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "04504b2037c9480176ebf0d714b135f268f0bff5f6272a99d45d0e0c89f15a13")


def _count_calls(monkeypatch, name, pair):
    """The calls of structure.<name>, each recorded as pair(*args)."""
    calls = []
    real = getattr(structure, name)

    def counted(*args):
        calls.append(pair(*args))
        return real(*args)

    monkeypatch.setattr(structure, name, counted)
    return calls


def test_realize_classifies_only_heads_of_a_candidate_unit(monkeypatch):
    # a head's unit names its class, so heads of another unit are never
    # classified; the kernel classifies the others, and only the witness
    # becomes a module and runs frobenius_charpoly
    tw = build_tower(5, 1, 3)
    fq = tw.fq
    prime, i1, i2 = UPoly.parse(fq, "T"), UPoly.parse(fq, "T^2+3*T+2"), UPoly.parse(fq, "T+2")
    units = {unit for _, unit in _candidate_isogeny_keys(tw, prime, 3, i1, i2)}
    orbits = twist_orbits(tw)
    heads = [orbits[group[0]][0] for group in sigma_orbits(tw, 1, orbits)]
    in_units = [h for h in heads if frobenius_unit(tw, h[1]) in units]
    assert (len(heads), len(in_units)) == (180, 45)
    charpolys = _count_calls(monkeypatch, "frobenius_charpoly", lambda mod: (mod.g, mod.delta))
    kernels = _count_calls(monkeypatch, "invariants", lambda tower, gamma, g, delta: (g, delta))
    modules = _count_calls(monkeypatch, "DrinfeldModule", lambda tower, prime, g, delta: (g, delta))
    mod = realize_structure(tw, prime, 3, i1, i2)
    assert charpolys == modules == [(mod.g, mod.delta)]
    assert len(kernels) == 13 and set(kernels) <= set(in_units)
    # candidates exist but no head has the structure: no charpoly at all
    tw2 = build_tower(3, 1, 2)
    res = realize_structure(tw2, UPoly.parse(tw2.fq, "T"), 2,
                            UPoly.parse(tw2.fq, "T^2+1"), UPoly.one(tw2.fq))
    assert res == NotRealizable("no witness found in any matching isogeny class")
    assert len(charpolys) == len(modules) == 1


# (p, s, n, prime, m, i1, i2): witnesses with g = 0 and g != 0, cyclic and
# not, at q in {2, 3, 4, 5}, and each way of being unrealizable
REALIZE_CASES = [
    (3, 1, 1, "T", 1, "T+1", "1"),
    (3, 1, 1, "T", 1, "T+1", "T+2"),  # degree
    (3, 1, 2, "T", 2, "T+1", "T"),  # divisibility
    (3, 1, 2, "T", 2, "T^2+T", "1"),
    (3, 1, 2, "T", 2, "T^2+1", "1"),  # no witness in the matching class
    (3, 1, 2, "T^2+1", 1, "T+1", "T+1"),
    (2, 1, 2, "T", 2, "T^2+1", "1"),  # no matching isogeny class
    (2, 1, 3, "T", 3, "T^2+T", "T+1"),
    (2, 2, 2, "T", 2, "T^2+T", "1"),
    (5, 1, 3, "T", 3, "T^2+3*T+2", "T+2"),
]


@pytest.mark.parametrize("case", REALIZE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_realize_matches_scan_of_every_module(case):
    p, s, n, ptxt, m, i1, i2 = case
    tw = build_tower(p, s, n)
    args = (tw, UPoly.parse(tw.fq, ptxt), m,
            UPoly.parse(tw.fq, i1), UPoly.parse(tw.fq, i2))
    got, want = realize_structure(*args), realize_by_scan(*args)
    if isinstance(want, NotRealizable):
        assert got == want
    else:
        assert isinstance(got, DrinfeldModule)
        assert (got.g, got.delta) == (want.g, want.delta)


def test_realize_runs_above_1024():
    tw = build_tower(2, 1, 11)
    fq = tw.fq
    i1, i2 = UPoly.parse(fq, "T^11"), UPoly.one(fq)
    mod = realize_structure(tw, UPoly.parse(fq, "T"), 11, i1, i2)
    assert isinstance(mod, DrinfeldModule)
    inv = module_structure(mod)
    assert (inv.i1, inv.i2) == (i1, i2)


def test_realize_deterministic():
    tw = build_tower(3, 1, 2)
    fq = tw.fq
    prime = UPoly.parse(fq, "T^2+1")
    i1 = UPoly.parse(fq, "T")
    a = realize_structure(tw, prime, 1, i1, UPoly.parse(fq, "T"))
    b = realize_structure(tw, prime, 1, i1, UPoly.parse(fq, "T"))
    if isinstance(a, DrinfeldModule):
        assert (a.g, a.delta) == (b.g, b.delta)
    else:
        assert a == b
