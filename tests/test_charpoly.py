import pytest

from drinfeld2 import (DrinfeldModule, FrobeniusCharPoly, UPoly, annihilation_holds,
                       build_tower, frobenius_charpoly, is_imaginary)
from drinfeld2.census import default_prime, twist_orbits
from oracles import (_solve_frobenius_in_image, charpoly_at, frobenius_witness,
                     minimal_polynomial, minimal_polynomial_annihilates)

from conftest import tower_for


def module311(g, delta):
    tw = build_tower(3, 1, 1)
    return DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), g, delta)


def P3(text):
    return UPoly.parse(build_tower(3, 1, 1).fq, text)


def test_charpoly_closed_form_n1():
    # at d = m = 1, P = T: unit = -1/delta and trace = unit * g
    cp = frobenius_charpoly(module311(1, 1))
    assert cp.trace == P3("2") and cp.unit == 2
    cp0 = frobenius_charpoly(module311(0, 1))
    assert cp0.trace.is_zero() and cp0.unit == 2
    tw = module311(1, 1).tower
    for g in range(3):
        for delta in (1, 2):
            cp = frobenius_charpoly(module311(g, delta))
            unit = tw.fq.neg(tw.fq.inv(delta))
            assert cp.unit == unit
            assert cp.trace == UPoly.constant(tw.fq, tw.fq.mul(unit, g))


def test_norm_term_is_constant_coefficient():
    cp = frobenius_charpoly(module311(1, 1))
    assert cp.norm == P3("2*T")
    assert charpoly_at(cp, UPoly.zero(cp.trace.fq)) == cp.norm


def test_norm_term_follows_the_fields():
    mod = module311(1, 1)
    cp = frobenius_charpoly(mod)
    with pytest.raises(TypeError):
        type(cp)(cp.trace, cp.unit, cp.prime, cp.ext_degree, norm=cp.norm)
    for name in ("neg_trace", "chi", "disc"):
        with pytest.raises(TypeError):
            type(cp)(cp.trace, cp.unit, cp.prime, cp.ext_degree, **{name: getattr(cp, name)})
    assert cp.neg_trace == (-cp.trace).coeffs
    assert (cp.chi, cp.disc) == (P3("T+1"), P3("T+1"))  # monic(2T + 2), 4 - 8T
    moved = FrobeniusCharPoly(P3("T+1"), cp.unit, cp.prime, cp.ext_degree)
    assert moved.neg_trace == P3("2*T+2").coeffs
    assert (moved.chi, moved.disc) == (P3("T"), P3("T^2+1"))  # (T+1)^2 - 8T
    other = FrobeniusCharPoly(cp.trace, 1, cp.prime, cp.ext_degree)
    assert other.norm == P3("T")
    assert (other.chi, other.disc) == (P3("T+2"), P3("2*T+1"))  # T - 1, 4 - 4T
    assert not annihilation_holds(mod, other)
    higher = FrobeniusCharPoly(cp.trace, cp.unit, cp.prime, 2)
    assert higher.norm == P3("2*T^2")
    assert (higher.chi, higher.disc) == (P3("T^2+1"), P3("T^2+1"))  # 2T^2 - 1, 4 - 8T^2


def test_p_at_one_zero_raises():
    # P(1) = 1 - (T + 1) + T = 0: no module has this polynomial
    with pytest.raises(RuntimeError, match=r"P\(1\) = 0"):
        FrobeniusCharPoly(P3("T+1"), 1, P3("T"), 1)


def test_annihilation_identity():
    for g in range(3):
        for delta in (1, 2):
            mod = module311(g, delta)
            assert annihilation_holds(mod, frobenius_charpoly(mod))


def test_euler_characteristic_example():
    chi = frobenius_charpoly(module311(1, 1)).chi
    assert chi == P3("T+1")
    assert chi.degree() == 1


def test_norm_ideals_are_prime_powers():
    # (P(0)) equals (prime^m) as ideals, for a few modules
    for n, ptxt, m in ((1, "T", 1), (2, "T", 2), (2, "T^2+1", 1)):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, ptxt)
        mod = DrinfeldModule(tw, prime, 1, 1)
        cp = frobenius_charpoly(mod)
        assert cp.norm.monic() == prime.pow(m)
        # (P(1)) is the product of the invariant factors: cross-module check
        from drinfeld2 import module_structure
        inv = module_structure(mod)
        assert (inv.i1 * inv.i2).monic() == cp.chi


def test_discriminant_examples():
    cp = frobenius_charpoly(module311(1, 1))
    assert cp.disc == P3("T+1")  # 4 - 8T mod 3
    cp0 = frobenius_charpoly(module311(0, 1))
    assert cp0.disc == P3("T")  # -4*2*T mod 3
    assert is_imaginary(P3("T+1"))
    assert is_imaginary(P3("2"))
    assert not is_imaginary(P3("T^2+1"))  # lc 1 is a square
    assert not is_imaginary(UPoly.zero(cp.trace.fq))


def test_is_imaginary_decides_nothing_in_characteristic_2():
    # disc = trace^2 there: no answer rather than a wrong False
    for p, s in ((2, 1), (2, 2)):
        fq = build_tower(p, s, 1).fq
        for text in ("T", "T^2+1", "1"):
            assert is_imaginary(UPoly.parse(fq, text)) is None
        assert is_imaginary(UPoly.zero(fq)) is None


def test_discriminant_is_imaginary_for_ordinary_odd_q():
    for n, ptxt in ((1, "T"), (2, "T"), (2, "T^2+1")):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, ptxt)
        m = tw.n // int(prime.degree())
        for g in range(tw.order):
            for delta in range(1, tw.order):
                mod = DrinfeldModule(tw, prime, g, delta)
                if mod.is_ordinary():
                    disc = frobenius_charpoly(mod).disc
                    assert is_imaginary(disc)


def test_trace_degree_bound():
    for n, ptxt in ((1, "T"), (2, "T"), (2, "T^2+1"), (3, "T")):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, ptxt)
        for g in (0, 1, tw.order - 1):
            for delta in (1, tw.order - 1):
                cp = frobenius_charpoly(DrinfeldModule(tw, prime, g, delta))
                assert cp.trace_degree_ok()


def test_minimal_polynomial_ordinary_is_charpoly():
    mod = module311(1, 1)
    mp = minimal_polynomial(mod)
    cp = frobenius_charpoly(mod)
    assert len(mp) == 3
    assert mp[0] == cp.norm and mp[1] == -cp.trace
    assert minimal_polynomial_annihilates(mod)


def test_minimal_polynomial_degree_one_case():
    # g = 0, delta in F_q^*, d = 1, m = 2: the Frobenius is phi(a) for a linear a
    tw = build_tower(3, 1, 2)
    prime = UPoly.parse(tw.fq, "T")
    mod = DrinfeldModule(tw, prime, 0, 1)
    cp = frobenius_charpoly(mod)
    a = frobenius_witness(mod, cp)
    assert a == UPoly.parse(tw.fq, "T")
    assert cp.trace == UPoly.parse(tw.fq, "2*T") and cp.unit == 1
    mp = minimal_polynomial(mod)
    assert len(mp) == 2  # X - T
    assert minimal_polynomial_annihilates(mod)
    # the minimal polynomial divides the characteristic polynomial:
    # P(a) = 0 exactly
    assert charpoly_at(cp, a).is_zero()
    assert annihilation_holds(mod, cp)
    # a supersingular neighbor whose Frobenius is not in the image
    mod2 = DrinfeldModule(tw, prime, 0, 3)
    cp2 = frobenius_charpoly(mod2)
    assert frobenius_witness(mod2, cp2) is None
    assert (cp2.trace % prime).is_zero()
    assert annihilation_holds(mod2, cp2)


def test_q_even_charpoly_still_exact():
    tw = build_tower(2, 2, 1)
    prime = UPoly.parse(tw.fq, "T")
    for g in range(4):
        for delta in range(1, 4):
            mod = DrinfeldModule(tw, prime, g, delta)
            cp = frobenius_charpoly(mod)
            assert annihilation_holds(mod, cp)
            assert cp.disc == cp.trace * cp.trace  # char 2 degeneration


@pytest.mark.parametrize("q,d,m", [(2, 1, 2), (2, 1, 4), (4, 1, 2), (3, 1, 2), (3, 1, 4),
                                   (2, 2, 1), (4, 3, 1)])
def test_frobenius_witness_matches_solve(q, d, m):
    # the closed-form witness of tau^n = phi(a) against the linear solve,
    # on every representative with discriminant 0; even q with m even has
    # witnesses, and m odd has none
    tw = tower_for(q, d * m)
    prime = default_prime(tw.fq, d)
    zero_disc = 0
    for (g, delta), _, _ in twist_orbits(tw):
        mod = DrinfeldModule(tw, prime, g, delta)
        cp = frobenius_charpoly(mod)
        if cp.disc.is_zero():
            zero_disc += 1
            a = frobenius_witness(mod, cp)
            assert a == _solve_frobenius_in_image(mod)
            assert (a is None) == (m % 2 == 1)
    assert zero_disc > 0
