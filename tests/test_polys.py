import itertools
import random

import pytest

from drinfeld2 import MonicIdeal, UPoly, build_tower, embed_residue_field
from drinfeld2 import enumerate_monic_irreducibles
from drinfeld2.polys import monic_divisors, monic_polys


def fq3():
    return build_tower(3, 1, 1).fq


def P(text, fq=None):
    return UPoly.parse(fq or fq3(), text)


def test_zero_degree_sentinel():
    z = UPoly.zero(fq3())
    assert z.degree() == -1
    assert not z
    assert UPoly(fq3(), (0, 0, 0)).coeffs == ()


def test_divmod_example():
    q, r = divmod(P("T^3"), P("T+1"))
    assert q == P("T^2+2*T+1")
    assert r == P("2")


def test_gcd_example():
    assert P("T^2+2").gcd(P("T+2")) == P("T+2")  # T^2-1 and T-1


def test_monic_normalize_example():
    assert P("2*T+2").monic() == P("T+1")  # 2T-1 times 2


def test_divmod_roundtrip_random():
    fq = build_tower(2, 2, 1).fq
    rng = random.Random(99)
    for _ in range(200):
        f = UPoly(fq, [rng.randrange(4) for _ in range(rng.randrange(0, 7))])
        g = UPoly(fq, [rng.randrange(4) for _ in range(rng.randrange(1, 5))] + [
            rng.randrange(1, 4)])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree() < g.degree()
    with pytest.raises(ZeroDivisionError):
        divmod(P("T"), UPoly.zero(fq3()))


def test_gcd_divides_both_exhaustive_small():
    fq = fq3()
    polys = [UPoly(fq, t) for d in range(3)
             for t in itertools.product(range(3), repeat=d + 1)
             if t[-1] != 0]
    for f in polys[:20]:
        for g in polys:
            h = f.gcd(g)
            assert (f % h).is_zero() and (g % h).is_zero()
            # every common divisor divides the gcd
            for e in polys:
                if (f % e).is_zero() and (g % e).is_zero():
                    assert (h % e).is_zero()


def necklace_count(q, d):
    # number of monic irreducibles of degree d over F_q
    def moebius(n):
        out, k, nn = 1, 2, n
        while k * k <= nn:
            if nn % k == 0:
                nn //= k
                if nn % k == 0:
                    return 0
                out = -out
            k += 1
        if nn > 1:
            out = -out
        return out

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += moebius(d // e) * q ** e
    return total // d


@pytest.mark.parametrize("q,p,s", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1),
                                   (7, 7, 1), (8, 2, 3), (9, 3, 2)])
def test_irreducible_counts_match_necklace_formula(q, p, s):
    fq = build_tower(p, s, 1).fq
    for d in range(1, 5):
        assert len(enumerate_monic_irreducibles(fq, d)) == necklace_count(q, d)


def test_irreducible_enumeration_examples():
    fq = fq3()
    assert enumerate_monic_irreducibles(fq, 1) == [P("T"), P("T+1"), P("T+2")]
    assert len(enumerate_monic_irreducibles(fq, 2)) == 3
    fq2 = build_tower(2, 1, 1).fq
    assert enumerate_monic_irreducibles(fq2, 2) == [UPoly.parse(fq2, "T^2+T+1")]


def test_irreducibles_in_lex_order():
    fq = fq3()
    for d in (2, 3):
        irr = enumerate_monic_irreducibles(fq, d)
        keys = [f.coeffs[:-1] for f in irr]
        assert keys == sorted(keys)


def test_embed_residue_field_examples():
    tw1 = build_tower(3, 1, 1)
    assert embed_residue_field(tw1, P("T")).value == 0
    assert embed_residue_field(tw1, P("T+2")).value == 1
    tw2 = build_tower(3, 1, 2)
    gamma = embed_residue_field(tw2, UPoly.parse(tw2.fq, "T^2+1"))
    assert gamma.vector() == (0, 1)  # the root y, not 2y
    assert UPoly.parse(tw2.fq, "T^2+1").eval_in_tower(tw2, gamma.value) == 0


def test_embed_residue_field_errors():
    tw = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        embed_residue_field(tw, UPoly.parse(tw.fq, "T^2+2"))  # reducible
    tw3 = build_tower(3, 1, 3)
    with pytest.raises(ValueError):
        embed_residue_field(tw3, UPoly.parse(tw3.fq, "T^2+1"))  # 2 does not divide 3


def test_parse_and_str_roundtrip():
    fq = fq3()
    rng = random.Random(5)
    for _ in range(100):
        f = UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(0, 6))])
        assert UPoly.parse(fq, str(f)) == f
    assert P("T^2-1") == P("T^2+2")
    assert P("-T") == P("2*T")
    with pytest.raises(ValueError):
        P("T^")
    with pytest.raises(ValueError):
        P("")
    with pytest.raises(ValueError):
        P("x+1")


def test_monic_ideals():
    fq = fq3()
    a = MonicIdeal(P("2*T+2"))
    assert a.gen == P("T+1")
    b = MonicIdeal(P("T"))
    assert (a * b).gen == P("T^2+T")
    assert a.divides(MonicIdeal(P("T^2+2")))
    assert a.gcd(b).is_unit()
    with pytest.raises(ValueError):
        MonicIdeal(UPoly.zero(fq))


def test_monic_divisors():
    f = P("T^2+T")  # T(T+1)
    divs = monic_divisors(f)
    assert P("T") in divs and P("T+1") in divs and f in divs
    assert P("T+2") not in divs


def test_scale_and_shift():
    f = P("T+1")
    assert f.scale(2) == P("2*T+2")
    assert f.shift(2) == P("T^3+T^2")
    assert list(monic_polys(fq3(), 1)) == [P("T"), P("T+1"), P("T+2")]
