import itertools
import random

import pytest

from conftest import GRID, STRETCH, tower_for
from drinfeld2 import UPoly, build_tower, enumerate_monic_irreducibles
from drinfeld2.census import default_prime
from drinfeld2.polys import irreducible_divisors, monic_polys, residue_root
from oracles import monic_divisors, residue_root_by_scan


def fq3():
    return build_tower(3, 1, 1).fq


def P(text, fq=None):
    return UPoly.parse(fq or fq3(), text)


def test_zero_degree_sentinel():
    z = UPoly.zero(fq3())
    assert z.degree() == -1
    assert not z
    assert UPoly(fq3(), (0, 0, 0)).coeffs == ()
    with pytest.raises(ValueError, match="no leading coefficient"):
        z.lc()
    with pytest.raises(ValueError, match="undefined"):
        z.gcd(z)
    with pytest.raises(ValueError, match="divisors of 0"):
        irreducible_divisors(z)


def test_integer_operands_are_refused():
    # an int is no element of F_(p^s): -1 mod 9 would read as the digit
    # code 8 = 2 + 2a, and 3 as the generator a
    fq9 = build_tower(3, 2, 1).fq
    for bad in (-1, 9, True, 1.0, "1"):
        with pytest.raises(ValueError):
            UPoly.constant(fq9, bad)
    assert UPoly.constant(fq9, 8).coeffs == (8,) and UPoly.constant(fq9, 0).is_zero()
    t = UPoly.gen(fq9)
    for op in (lambda: t + 2, lambda: t - 2, lambda: t * 3, lambda: divmod(t, 2)):
        with pytest.raises(ValueError):
            op()
    for op in (lambda: 2 + t, lambda: 2 - t, lambda: 3 * t):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="different fields"):
        t + UPoly.gen(fq3())
    with pytest.raises(ValueError, match="negative exponent"):
        t.pow(-1)


def test_parse_refuses_a_coefficient_of_q_or_more():
    # it was reduced mod q and read as a digit code: over F_3 'T+3' was T,
    # over F_9 'T+12' was T + a, although 12 = 0 in characteristic 3
    fq9 = build_tower(3, 2, 1).fq
    for fq, text in ((fq3(), "T+3"), (fq3(), "4*T^2+T"), (fq3(), "-3"),
                     (fq9, "T+12"), (fq9, "9*T")):
        with pytest.raises(ValueError, match="out of range"):
            UPoly.parse(fq, text)
    assert P("-1") == P("2") and UPoly.parse(fq9, "8*T+3").coeffs == (3, 8)


@pytest.mark.parametrize("text", ["T+２", "２*T", "T^２", "T+\u0661", "2\u00a0*T",
                                  "2\t*T", "\tT+1", "1\t", "T\t+1", "T^\t2", "T+1\n"])
def test_parse_refuses_non_ascii_digits_and_spaces(text):
    # \d and \s matched any Unicode digit or space, and int() read the digit:
    # over F_3, 'T+２' was T + 2.  Only spaces are dropped: a tab parsed next
    # to a '*' or at either end of a term, and a newline at the end of one
    with pytest.raises(ValueError, match="is not printable ASCII"):
        UPoly.parse(fq3(), text)


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
    # past degree 1 the enumeration skips constant term 0; it still lists
    # every monic that no monic of degree 1 .. d/2 divides
    fq = build_tower(p, s, 1).fq
    kernel = fq.kernel
    for d in range(1, 5):
        assert len(enumerate_monic_irreducibles(fq, d)) == necklace_count(q, d)
        assert list(kernel.irreducibles(d)) == [
            f for f in kernel.monics(d)
            if all(kernel.divmod(f, g)[1] for e in range(1, d // 2 + 1) for g in kernel.monics(e))]


def test_irreducible_enumeration_examples():
    fq = fq3()
    assert enumerate_monic_irreducibles(fq, 1) == [P("T"), P("T+1"), P("T+2")]
    assert len(enumerate_monic_irreducibles(fq, 2)) == 3
    fq2 = build_tower(2, 1, 1).fq
    assert enumerate_monic_irreducibles(fq2, 2) == [UPoly.parse(fq2, "T^2+T+1")]
    with pytest.raises(ValueError, match="degree must be >= 1"):
        enumerate_monic_irreducibles(fq, 0)


def test_irreducibles_in_lex_order():
    fq = fq3()
    for d in (2, 3):
        irr = enumerate_monic_irreducibles(fq, d)
        keys = [f.coeffs[:-1] for f in irr]
        assert keys == sorted(keys)


def test_embed_residue_field_examples():
    tw1 = build_tower(3, 1, 1)
    assert residue_root(tw1, P("T")) == 0
    assert residue_root(tw1, P("T+2")) == 1
    tw2 = build_tower(3, 1, 2)
    gamma = residue_root(tw2, UPoly.parse(tw2.fq, "T^2+1"))
    assert tw2.vector(gamma) == (0, 1)  # the root y, not 2y
    assert UPoly.parse(tw2.fq, "T^2+1").eval_in_tower(tw2, gamma) == 0
    # the memoized root is a plain element of L
    assert type(residue_root(tw2, UPoly.parse(tw2.fq, "T^2+1"))) is int


@pytest.mark.parametrize("q,d,m", GRID + STRETCH, ids=lambda v: str(v))
def test_residue_root_equals_the_root_found_by_scanning_l(monkeypatch, q, d, m):
    # the roots lie in F_{q^d}, so scanning it finds the same least root
    monkeypatch.setattr("drinfeld2.polys._EMBED_CACHE", {})  # found here, not recalled
    tower = tower_for(q, d * m)
    prime = default_prime(tower.fq, d)
    assert residue_root(tower, prime) == residue_root_by_scan(tower, prime)


def test_embed_residue_field_errors():
    tw = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        residue_root(tw, UPoly.parse(tw.fq, "T^2+2"))  # reducible
    tw3 = build_tower(3, 1, 3)
    with pytest.raises(ValueError):
        residue_root(tw3, UPoly.parse(tw3.fq, "T^2+1"))  # 2 does not divide 3


def test_parse_and_str_roundtrip():
    fq = fq3()
    rng = random.Random(5)
    for _ in range(100):
        f = UPoly(fq, [rng.randrange(3) for _ in range(rng.randrange(0, 6))])
        assert UPoly.parse(fq, str(f)) == f
    assert P("T^2-1") == P("T^2+2")
    assert P("-T") == P("2*T") == P("2T") == P("2 * T")
    assert P("1 * T^2 + T") == P("T^2+1T")
    with pytest.raises(ValueError):
        P("T^")
    with pytest.raises(ValueError):
        P("")
    with pytest.raises(ValueError):
        P("x+1")
    with pytest.raises(ValueError, match="malformed polynomial string"):
        P("T++1")


@pytest.mark.parametrize("text", ["3*", "*T", "2*+T", "T+4*", "*", "T^2+*1", "-*T", "2**T"])
def test_parse_rejects_a_star_missing_a_factor(text):
    with pytest.raises(ValueError, match="malformed polynomial term"):
        P(text)



def test_parse_error_quotes_the_text_as_written():
    # the '-' is read as a sign, which splits 'T^-1' into 'T^' and '-1'
    with pytest.raises(ValueError, match=r"^malformed polynomial term in 'T\^-1'$"):
        P("T^-1")
    with pytest.raises(ValueError, match=r"^malformed polynomial term in '2 \* \+ T'$"):
        P("2 * + T")

def test_monic_divisors():
    f = P("T^2+T")  # T(T+1)
    divs = monic_divisors(f)
    assert P("T") in divs and P("T+1") in divs and f in divs
    assert P("T+2") not in divs


def test_irreducible_divisors_match_trial_division():
    for q, (p, s) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2))):
        fq = build_tower(p, s, 1).fq
        for n in range(1, 5):
            for f in monic_polys(fq, n):
                expected = [g for g in monic_divisors(f) if g.is_irreducible()]
                assert irreducible_divisors(f) == expected
                assert irreducible_divisors(f.scale(fq.q - 1)) == expected
                # memoized per field, so the kernel hands out tuples
                assert fq.kernel.irreducible_divisors(f.coeffs) == tuple(
                    g.coeffs for g in expected)


def test_scale_and_shift():
    f = P("T+1")
    assert f.scale(2) == P("2*T+2")
    assert list(monic_polys(fq3(), 1)) == [P("T"), P("T+1"), P("T+2")]
