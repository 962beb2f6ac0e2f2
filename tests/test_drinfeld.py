import itertools
import random

import pytest

from drinfeld2 import DrinfeldModule, UPoly, build_tower, frobenius_charpoly
from drinfeld2.fields import Fq
from drinfeld2.structure import classify_module
from oracles import (FieldEmbedding, OrePoly, SplittingBoundError, frobenius, gamma,
                     phi_by_ore, phi_ideal, phi_ideal_two_generators, torsion_structure)


def module311(g=1, delta=1):
    tw = build_tower(3, 1, 1)
    return DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), g, delta)


def test_constructor_validation():
    tw = build_tower(3, 1, 1)
    fq = tw.fq
    with pytest.raises(ValueError):
        DrinfeldModule(tw, UPoly.parse(fq, "T"), 1, 0)  # delta = 0
    with pytest.raises(ValueError):
        DrinfeldModule(tw, UPoly.parse(fq, "T^2+2"), 1, 1)  # reducible
    with pytest.raises(ValueError):
        DrinfeldModule(tw, UPoly.parse(fq, "T^2+1"), 1, 1)  # 2 does not divide 1
    tw2 = build_tower(3, 1, 2)
    mod = DrinfeldModule(tw2, UPoly.parse(tw2.fq, "T^2+1"), 1, 1)
    assert mod.m == 1 and mod.d == 2
    assert mod.gamma_t == 3  # the canonical root [0,1]


def test_constructor_rejects_bad_primes_and_coefficients():
    tw = build_tower(3, 1, 2)
    T = UPoly.parse(tw.fq, "T")
    with pytest.raises(ValueError):
        DrinfeldModule(tw, UPoly.parse(tw.fq, "2*T+1"), 1, 1)  # not monic
    with pytest.raises(ValueError):
        DrinfeldModule(tw, UPoly.parse(build_tower(3, 2, 1).fq, "T"), 1, 1)  # over F_9
    for g, delta in ((-1, 1), (tw.order, 1), (1, -1), (1, tw.order)):
        with pytest.raises(ValueError):
            DrinfeldModule(tw, T, g, delta)
    with pytest.raises(ValueError):
        DrinfeldModule(tw, T, 1, 0)
    with pytest.raises(ValueError):
        DrinfeldModule(tw, T, 1, [0, 0])
    mod = DrinfeldModule(tw, T, 2, [1, 1])
    assert (mod.g, mod.delta) == (2, 4)
    # elements are ints, and a bool is not one
    for g, delta in ((0, True), (True, 1), (False, 1), (1, [True, 0])):
        with pytest.raises(ValueError):
            DrinfeldModule(tw, T, g, delta)


def test_module_and_phi_t_write_vectors():
    tw = build_tower(3, 1, 2)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 2, [1, 1])
    assert repr(mod) == "DrinfeldModule(q=3, n=2, prime=T, g=[2,0], delta=[1,1])"
    assert mod.phi_t == (0, 2, 4)
    assert str(OrePoly(tw, mod.phi_t)) == "[1,1]*t^2 + [2,0]*t"


def test_modules_are_equal_by_their_data():
    # g = 4 is the digit encoding of [1,1]; m = n / deg(prime) takes no part
    tw = build_tower(3, 1, 2)
    T = UPoly.parse(tw.fq, "T")
    mod, twin = DrinfeldModule(tw, T, 4, 1), DrinfeldModule(tw, T, [1, 1], [1, 0])
    assert mod is not twin and mod == twin and hash(mod) == hash(twin)
    tw4 = build_tower(3, 1, 4)
    others = [DrinfeldModule(tw, T, 5, 1), DrinfeldModule(tw, T, 4, 2),
              DrinfeldModule(tw, UPoly.parse(tw.fq, "T+1"), 4, 1),
              DrinfeldModule(tw4, UPoly.parse(tw4.fq, "T"), 4, 1)]
    assert all(mod != other for other in others)
    assert mod != (tw, T, 4, 1)


def test_constructor_rejects_a_prime_over_another_field_with_cached_coefficients():
    # T over F_9 is embedded first, so its coefficients are in the memo
    tw9 = build_tower(3, 2, 1)
    DrinfeldModule(tw9, UPoly.parse(tw9.fq, "T"), 1, 1)
    with pytest.raises(ValueError):
        DrinfeldModule(tw9, UPoly.parse(build_tower(3, 1, 1).fq, "T"), 1, 1)


def test_gamma_rejects_a_polynomial_over_another_field():
    # T + 4 over F_5 is no element of A = F_9[T]; the digits 1, 4 would
    # read as elements of F_9 and give gamma(T + 4) = 4
    tw9 = build_tower(3, 2, 1)
    mod = DrinfeldModule(tw9, UPoly.parse(tw9.fq, "T"), 1, 1)
    with pytest.raises(ValueError):
        gamma(mod, UPoly.parse(build_tower(5, 1, 1).fq, "T+4"))
    assert gamma(mod, UPoly.parse(Fq(3, 2), "T+4")) == 4  # an equal field, not the same object


@pytest.mark.parametrize("p,s,n,prime,g,delta", [
    (3, 1, 2, "T", 2, 5),        # gamma = 0
    (3, 1, 2, "T", 0, 5),        # gamma = 0 and g = 0
    (2, 2, 2, "T", 0, 3),        # q = 4, gamma = 0 and g = 0
    (2, 1, 3, "T+1", 0, 6),      # g = 0
    (5, 1, 2, "T^2+2", 7, 11),   # d = 2
])
def test_phi_matches_the_ore_product_oracle(p, s, n, prime, g, delta):
    # every a of degree <= n against the sum of a_k phi_T^k, the powers
    # multiplied as OrePolys; the library's phi is Horner's rule on
    # coefficient lists (drinfeld.phi_into), with no powers kept
    tw = build_tower(p, s, n)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, prime), g, delta)
    for t in itertools.product(range(tw.q), repeat=n + 1):
        a = UPoly(tw.fq, t)
        assert OrePoly(tw, mod.phi(a)) == phi_by_ore(mod, a)


def test_phi_basic_examples():
    mod = module311()
    tw, fq = mod.tower, mod.tower.fq
    assert OrePoly(tw, mod.phi(UPoly.one(fq))) == OrePoly.one(tw)
    assert mod.phi(UPoly.parse(fq, "T")) == mod.phi_t
    sq = OrePoly(tw, mod.phi(UPoly.parse(fq, "T^2")))
    assert sq == OrePoly(tw, mod.phi_t) * OrePoly(tw, mod.phi_t)
    assert sq.degree() == 4


def test_phi_takes_only_polynomials_over_the_base_field():
    # an int is no element of A = F_9[T]: read mod q it would make -1 the
    # element 8 = [2,2] of F_9, not -1 = 2 = [2,0]
    tw9 = build_tower(3, 2, 1)
    mod = DrinfeldModule(tw9, UPoly.parse(tw9.fq, "T"), 1, 1)
    for a in (-1, 0, 2, "T", UPoly.parse(build_tower(3, 1, 1).fq, "T")):
        with pytest.raises(ValueError):
            mod.phi(a)
    assert mod.phi(UPoly.constant(tw9.fq, 2)) == (2,)
    assert mod.phi(UPoly.zero(tw9.fq)) == ()


def test_phi_is_ring_homomorphism_exhaustive_small():
    # every pair of polynomials of degree <= 2
    mod = module311()
    fq = mod.tower.fq

    def phi(a):
        return OrePoly(mod.tower, mod.phi(a))

    polys = [UPoly(fq, t) for d in range(3)
             for t in itertools.product(range(3), repeat=d + 1)]
    for a in polys:
        for b in polys:
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)


def test_phi_degree_and_constant_term():
    tw = build_tower(3, 1, 2)
    mod = DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 2, 5)
    for t in itertools.product(range(3), repeat=3):
        a = UPoly(tw.fq, t)
        img = OrePoly(tw, mod.phi(a))
        if a:
            assert img.degree() == 2 * a.degree()
            assert img.coeffs[0] == gamma(mod, a)
        else:
            assert img.is_zero()


def test_phi_injective_up_to_bound():
    mod = module311()
    seen = {}
    for t in itertools.product(range(3), repeat=3):
        a = UPoly(mod.tower.fq, t)
        key = mod.phi(a)
        assert key not in seen or seen[key] == a, "phi is not injective"
        seen[key] = a


def test_phi_ideal():
    mod = module311()
    fq = mod.tower.fq
    assert phi_ideal(mod, UPoly.one(fq)) == OrePoly.one(mod.tower)
    f = phi_ideal(mod, UPoly.parse(fq, "T"))
    assert f.is_monic()
    assert f == OrePoly(mod.tower, mod.phi_t).monic()
    with pytest.raises(ValueError):
        phi_ideal(mod, UPoly.zero(fq))


def test_phi_ideal_two_generator_cross_check():
    rng = random.Random(17)
    for n in (1, 2):
        tw = build_tower(3, 1, n)
        fq = tw.fq
        mod = DrinfeldModule(tw, UPoly.parse(fq, "T"), tw.order - 1, 1)
        count = 0
        while count < 100:
            f = UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(1, 3))] + [1])
            u = UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(1, 3))] + [1])
            v = UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(1, 3))] + [1])
            if u.gcd(v).degree() != 0:
                continue
            count += 1
            assert phi_ideal_two_generators(mod, f * u, f * v) == phi_ideal(mod, f)


def test_heights_and_supersingularity():
    # the height is classify_module's, ordinarity the charpoly's; the
    # least tau-power of phi(P) as an OrePoly is the oracle (d = 1)
    for (g, delta), h in (((0, 1), 2), ((1, 1), 1)):
        mod = module311(g, delta)
        assert classify_module(mod)[3] == h
        assert frobenius_charpoly(mod).ordinary == (h == 1)
        assert phi_by_ore(mod, mod.prime).height() == h
    # positivity for every module over a couple of parameter sets
    for n, dvals in ((1, "T"), (2, "T^2+1")):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, dvals)
        for g in range(tw.order):
            for delta in (1, tw.order - 1):
                assert classify_module(DrinfeldModule(tw, prime, g, delta))[3] >= 1


def test_height_scaling_with_valuation():
    # ht phi(a) = h * v_P(a) * d for a in {P, P^2, c*P}
    for g, delta in ((1, 1), (0, 1)):
        mod = module311(g, delta)
        h = classify_module(mod)[3]
        P = mod.prime
        assert OrePoly(mod.tower, mod.phi(P)).height() == h * 1
        assert OrePoly(mod.tower, mod.phi(P * P)).height() == h * 2
        assert OrePoly(mod.tower, mod.phi(P.scale(2))).height() == h * 1


def test_frobenius_power_search_soundness():
    # if tau^(n*k) = phi(a) is solvable for k <= 2, the module is supersingular
    from oracles import _solve_frobenius_in_image

    for n in (1, 2):
        tw = build_tower(3, 1, n)
        prime = UPoly.parse(tw.fq, "T")
        m = n
        for g in range(tw.order):
            for delta in range(1, tw.order):
                mod = DrinfeldModule(tw, prime, g, delta)
                a = _solve_frobenius_in_image(mod)
                h = classify_module(mod)[3]
                if a is not None:
                    assert h == 2
                    assert OrePoly(tw, mod.phi(a)) == frobenius(mod)
                if h == 1:
                    assert a is None


def test_torsion_structure_coprime():
    mod = module311(1, 1)
    fq = mod.tower.fq
    rho = UPoly.parse(fq, "T+2")  # T - 1
    ts = torsion_structure(mod, rho)
    assert ts.root_count == 9
    assert ts.factor_multiset() == ((2, 1), (2, 1))  # (A/(T+2))^2
    assert ts.splitting_degree == 8
    phi_rho = OrePoly(mod.tower, mod.phi(rho))
    assert phi_rho == OrePoly(mod.tower, (2, 1, 1))
    assert phi_rho.height() == 0  # separable


def test_torsion_structure_unit_and_characteristic():
    mod0 = module311(0, 1)  # supersingular
    fq = mod0.tower.fq
    assert torsion_structure(mod0, UPoly.one(fq)).root_count == 1
    tsP = torsion_structure(mod0, mod0.prime)
    assert tsP.invariant_factors == () and tsP.root_count == 1
    mod1 = module311(1, 1)  # ordinary: one copy of A/P
    tsP1 = torsion_structure(mod1, mod1.prime)
    assert tsP1.factor_multiset() == ((0, 1),)
    assert tsP1.root_count == 3


def test_torsion_kernel_is_module_stable():
    mod = module311(1, 1)
    tw = mod.tower
    fq = tw.fq
    rho = UPoly.parse(fq, "T+2")
    f = phi_ideal(mod, rho)
    big = build_tower(3, 1, 8)
    emb = FieldEmbedding(tw, big)
    big_f = emb.ore(f)
    roots = [x for x in big.elements() if big_f.apply(x) == 0]
    assert len(roots) == 9
    root_set = set(roots)
    for a in ("T", "T+1", "T^2"):
        fa = emb.ore(OrePoly(tw, mod.phi(UPoly.parse(fq, a))))
        for x in roots:
            assert fa.apply(x) in root_set


def test_torsion_splitting_bound_error():
    mod = module311(1, 1)
    with pytest.raises(SplittingBoundError):
        torsion_structure(mod, UPoly.parse(mod.tower.fq, "T+2"),
                          max_splitting_degree=3)


def test_torsion_degree_two_ideal():
    mod = module311(1, 1)
    fq = mod.tower.fq
    ts = torsion_structure(mod, UPoly.parse(fq, "T^2+2*T+2"))
    assert ts.root_count == 81 and ts.splitting_degree == 8
    assert ts.factor_multiset() == ((2, 2, 1), (2, 2, 1))  # (A/Q)^2
    # the other two quadratic primes split only beyond the field bound
    with pytest.raises(SplittingBoundError):
        torsion_structure(mod, UPoly.parse(fq, "T^2+1"))


def test_torsion_ideal_sharing_the_characteristic():
    # Q = T(T+1): one copy of A/T (ordinary part at the characteristic)
    # plus the full (T+1)-plane
    mod = module311(1, 1)
    fq = mod.tower.fq
    ts = torsion_structure(mod, UPoly.parse(fq, "T^2+T"))
    assert ts.root_count == 27
    assert [str(f) for f in ts.invariant_factors] == ["T+1", "T^2+T"]
