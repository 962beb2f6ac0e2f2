import random

import pytest

from drinfeld2 import DrinfeldModule, UPoly, build_tower
from oracles import OrePoly, right_gcd


def test_twist_rule():
    tw = build_tower(3, 1, 2)
    lam = 5  # a generic element of F_9
    tau = OrePoly.tau_power(tw, 1)
    lhs = tau * OrePoly.constant(tw, lam)
    assert lhs == OrePoly(tw, (0, tw.frob(lam)))


def test_product_example_prime_field():
    tw = build_tower(3, 1, 1)
    f = OrePoly(tw, (1, 1))       # tau + 1
    g = OrePoly(tw, (2, 1))       # tau - 1
    assert f * g == OrePoly(tw, (2, 0, 1))  # tau^2 - 1


def test_identity_and_degree_additivity():
    tw = build_tower(3, 1, 2)
    one = OrePoly.one(tw)
    rng = random.Random(11)
    for _ in range(60):
        f = OrePoly(tw, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
        g = OrePoly(tw, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
        assert f * one == f and one * f == f
        if f and g:
            assert (f * g).degree() == f.degree() + g.degree()
            assert (f * g).lc() == tw.mul(f.lc(), tw.frob(g.lc(), int(f.degree())))


def test_mul_associative_exhaustive_degree_one_f9():
    tw = build_tower(3, 1, 2)
    polys = [OrePoly(tw, (a, b)) for a in range(9) for b in range(9) if (a, b) != (0, 0)]
    small = polys[::5]
    for f in small:
        for g in small:
            for h in small:
                assert (f * g) * h == f * (g * h)


def test_mul_non_commutative():
    tw = build_tower(3, 1, 2)
    tau = OrePoly.tau_power(tw, 1)
    c = OrePoly.constant(tw, 3)  # a non-F_3 element of F_9
    assert tau * c != c * tau


def test_distributivity_random():
    tw = build_tower(2, 2, 2)
    rng = random.Random(21)
    for _ in range(60):
        f, g, h = (OrePoly(tw, [rng.randrange(tw.order) for _ in range(4)])
                   for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (g + h) * f == g * f + h * f


def test_right_divmod():
    tw = build_tower(3, 1, 1)
    f = OrePoly(tw, (2, 0, 1))  # tau^2 - 1
    g = OrePoly(tw, (2, 1))     # tau - 1
    q, r = f.right_divmod(g)
    assert q == OrePoly(tw, (1, 1)) and r.is_zero()
    q, r = f.right_divmod(f)
    assert q == OrePoly.one(tw) and r.is_zero()
    tau = OrePoly.tau_power(tw, 1)
    q, r = tau.right_divmod(OrePoly.tau_power(tw, 2))
    assert q.is_zero() and r == tau
    with pytest.raises(ZeroDivisionError):
        f.right_divmod(OrePoly.zero(tw))


def test_right_divmod_roundtrip_random():
    tw = build_tower(3, 1, 2)
    rng = random.Random(31)
    for _ in range(150):
        f = OrePoly(tw, [rng.randrange(9) for _ in range(rng.randrange(0, 7))])
        g = OrePoly(tw, [rng.randrange(9) for _ in range(rng.randrange(0, 4))]
                    + [rng.randrange(1, 9)])
        q, r = f.right_divmod(g)
        assert q * g + r == f
        assert r.degree() < g.degree()


def test_right_gcd():
    tw = build_tower(3, 1, 1)
    f = OrePoly(tw, (2, 0, 1))
    g = OrePoly(tw, (2, 1))
    assert right_gcd(g, f) == g.monic()
    h = OrePoly(tw, (2, 2))
    assert right_gcd(h, OrePoly.zero(tw)) == h.monic()
    with pytest.raises(ValueError):
        right_gcd(OrePoly.zero(tw), OrePoly.zero(tw))
    # the gcd right-divides both and any common right divisor divides it
    rng = random.Random(41)
    tw9 = build_tower(3, 1, 2)
    for _ in range(40):
        d = OrePoly(tw9, [rng.randrange(9) for _ in range(2)] + [1])
        a = OrePoly(tw9, [rng.randrange(9) for _ in range(2)] + [rng.randrange(1, 9)])
        b = OrePoly(tw9, [rng.randrange(9) for _ in range(2)] + [rng.randrange(1, 9)])
        f, g = a * d, b * d
        h = right_gcd(f, g)
        assert f.right_divmod(h)[1].is_zero()
        assert g.right_divmod(h)[1].is_zero()
        assert h.right_divmod(d.monic())[1].is_zero()


def test_rgcd_of_coprime_ideal_images_is_one():
    # via a module: phi(i1) and phi(i2) for coprime i1, i2
    tw = build_tower(3, 1, 1)
    fq = tw.fq
    mod = DrinfeldModule(tw, UPoly.parse(fq, "T"), 1, 1)
    pairs = [("T+1", "T+2"), ("T", "T+1"), ("T^2+1", "T+1")]
    for a, b in pairs:
        fa = OrePoly(tw, mod.phi(UPoly.parse(fq, a)))
        fb = OrePoly(tw, mod.phi(UPoly.parse(fq, b)))
        assert right_gcd(fa, fb) == OrePoly.one(tw)


def test_height():
    tw = build_tower(3, 1, 1)
    assert OrePoly(tw, (0, 1, 1)).height() == 1  # tau^2 + tau
    assert OrePoly.constant(tw, 2).height() == 0
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 0, 1)
    assert OrePoly(tw, mod.phi_t).height() == 2
    with pytest.raises(ValueError):
        OrePoly.zero(tw).height()
    # multiplicativity of the height
    tw9 = build_tower(3, 1, 2)
    rng = random.Random(51)
    for _ in range(60):
        f = OrePoly(tw9, [0] * rng.randrange(0, 3)
                    + [rng.randrange(1, 9)]
                    + [rng.randrange(9) for _ in range(2)])
        g = OrePoly(tw9, [0] * rng.randrange(0, 3)
                    + [rng.randrange(1, 9)]
                    + [rng.randrange(9) for _ in range(2)])
        assert (f * g).height() == f.height() + g.height()


def test_apply_examples():
    tw = build_tower(3, 1, 1)
    tau = OrePoly.tau_power(tw, 1)
    for x in tw.elements():
        assert tau.apply(x) == tw.pow(x, 3)
    assert OrePoly(tw, (0, 1, 1)).apply(1) == 2  # tau^2 + tau at 1
    assert OrePoly.zero(tw).apply(2) == 0


@pytest.mark.parametrize("p,s,n", [(2, 2, 2), (3, 1, 4), (2, 1, 13)])
def test_apply_matches_the_power_sum(p, s, n):
    # the log-domain apply against sum c_k x^(q^k) from pow, mul and add,
    # with zero coefficients and x = 0 among the inputs
    tw = build_tower(p, s, n)
    rng = random.Random(7 * p + n)

    def power_sum(coeffs, x):
        out = 0
        for k, c in enumerate(coeffs):
            out = tw.add(out, tw.mul(c, tw.pow(x, tw.q ** k)))
        return out

    xs = list(tw.elements()) if tw.order <= 256 else [0, 1] + rng.sample(range(2, tw.order), 200)
    for length in range(0, 2 * n + 3):
        coeffs = [rng.randrange(tw.order) if rng.random() < 0.6 else 0 for _ in range(length)]
        f = OrePoly(tw, coeffs)
        for x in xs:
            assert f.apply(x) == power_sum(coeffs, x)


def test_apply_is_additive_and_composes():
    tw = build_tower(2, 2, 2)
    rng = random.Random(61)
    for _ in range(50):
        f = OrePoly(tw, [rng.randrange(tw.order) for _ in range(3)])
        g = OrePoly(tw, [rng.randrange(tw.order) for _ in range(3)])
        x = rng.randrange(tw.order)
        y = rng.randrange(tw.order)
        assert f.apply(tw.add(x, y)) == tw.add(f.apply(x), f.apply(y))
        assert (f * g).apply(x) == f.apply(g.apply(x))
        for c in range(tw.q):  # F_q-linearity
            assert f.apply(tw.mul(c, x)) == tw.mul(c, f.apply(x))


def test_monic_and_str():
    tw = build_tower(3, 1, 2)
    f = OrePoly(tw, (1, 0, 4))
    assert f.monic().lc() == 1
    assert f.monic() == f.scale_left(tw.inv(4))
    assert "t^2" in str(f)
    assert str(OrePoly.zero(tw)) == "0"
