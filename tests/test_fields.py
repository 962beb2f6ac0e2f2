import pickle
import random

import pytest

from drinfeld2 import SizeBoundError, build_tower
from drinfeld2.fields import MAX_BASE_ORDER, MAX_FIELD_ORDER, FieldTower, Fq
from oracles import (FieldEmbedding, exp_table_by_products, fq_tables_by_polynomials,
                     gauss_solve, nullspace)


def test_prime_field_tower():
    tw = build_tower(3, 1, 1)
    assert tw.q == 3 and tw.order == 3
    assert tw.top_min_poly == (0, 1)  # degree 1: the polynomial y


def test_f9_top_min_poly_is_lex_smallest():
    tw = build_tower(3, 1, 2)
    # y^2 + 1 is the first irreducible in lex order (0,*) all have root 0
    assert tw.top_min_poly == (1, 0, 1)


def test_f4_base_min_poly():
    tw = build_tower(2, 2, 1)
    assert tw.fq.min_poly == (1, 1, 1)  # x^2 + x + 1, the only choice


def test_fq_tables_equal_the_polynomial_construction():
    # F_q, read off the degree-s tower over F_p, against polynomial
    # products mod the least irreducible, for every q <= 128
    fields = [(p, s) for p in range(2, MAX_BASE_ORDER + 1) if all(p % k for k in range(2, p))
              for s in range(1, MAX_BASE_ORDER.bit_length()) if p ** s <= MAX_BASE_ORDER]
    assert len(fields) == 44
    for p, s in fields:
        fq = Fq(p, s)
        got = (fq.min_poly, fq.add_table, fq.mul_table, fq.neg_table, fq.inv_table)
        assert got == fq_tables_by_polynomials(p, s), (p, s)


def test_fq_tables_equal_the_tower_operations():
    # for s >= 2 the tables come from the log rows of the degree-s tower
    # over F_p; every entry against that tower's own add, mul, neg and inv
    fields = [(p, s) for p in (2, 3, 5, 7, 11) for s in range(2, 8) if p ** s <= MAX_BASE_ORDER]
    assert sorted(p ** s for p, s in fields) == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
    for p, s in fields:
        fq, tw, q = Fq(p, s), build_tower(p, 1, s), p ** s
        assert fq.add_table == [[tw.add(a, b) for b in range(q)] for a in range(q)], (p, s)
        assert fq.mul_table == [[tw.mul(a, b) for b in range(q)] for a in range(q)], (p, s)
        assert fq.neg_table == [tw.neg(a) for a in range(q)], (p, s)
        assert fq.inv_table == [0] + [tw.inv(a) for a in range(1, q)], (p, s)


def test_tower_tables_equal_the_product_construction():
    # every tower with q <= 16 and |L| <= 8192, built uncached
    bases = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
    towers = [(p, s, n) for p, s in bases for n in range(1, 14)
              if p ** (s * n) <= MAX_FIELD_ORDER]
    assert len(towers) == 53
    for p, s, n in towers:
        tw = FieldTower(Fq(p, s), n)
        want = exp_table_by_products(tw)
        assert {name: getattr(tw, name) for name in want} == want, (p, s, n)


@pytest.mark.parametrize("p,s,n", [(2, 1, 13), (3, 1, 8)])
def test_tables_take_about_two_sqrt_order_kernel_products(monkeypatch, p, s, n):
    # x -> x*gen from two product tables of q^ceil(n/2) and q^floor(n/2)
    # entries; only the generator search multiplies beyond them
    calls = {"all": 0, "generator": 0}
    raw_mul, find_generator = FieldTower._raw_mul, FieldTower._find_generator

    def counted_mul(self, a, b):
        calls["all"] += 1
        return raw_mul(self, a, b)

    def counted_find_generator(self):
        before = calls["all"]
        gen = find_generator(self)
        calls["generator"] += calls["all"] - before
        return gen

    monkeypatch.setattr(FieldTower, "_raw_mul", counted_mul)
    monkeypatch.setattr(FieldTower, "_find_generator", counted_find_generator)
    tw = FieldTower(Fq(p, s), n)
    assert calls["all"] - calls["generator"] <= 2 * tw.q ** ((n + 1) // 2)


def test_build_tower_is_cached_and_identical():
    assert build_tower(3, 1, 2) is build_tower(3, 1, 2)
    tw = build_tower(2, 2, 2)
    clone = pickle.loads(pickle.dumps(tw))
    assert clone == tw and clone.fq is tw.fq
    assert clone.fq.kernel.mul((1, 2), (3,)) == tw.fq.kernel.mul((1, 2), (3,))


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        build_tower(4, 1, 1)
    with pytest.raises(ValueError):
        build_tower(1, 1, 1)
    with pytest.raises(ValueError, match="s must be >= 1"):
        Fq(3, 0)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        FieldTower(build_tower(3, 1, 1).fq, 0)


def test_size_bound():
    with pytest.raises(SizeBoundError):
        build_tower(2, 1, 14)  # 2^14 > 8192
    # the documented bound admits at least 5^4
    build_tower(5, 1, 4)


@pytest.mark.parametrize("p,s,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 4),
                                   (2, 3, 1), (3, 2, 1), (2, 1, 10), (3, 1, 7), (2, 1, 13)])
def test_field_axioms_random(p, s, n):
    tw = build_tower(p, s, n)
    rng = random.Random(1234)
    xs = [rng.randrange(tw.order) for _ in range(60)]
    for a, b, c in zip(xs[::3], xs[1::3], xs[2::3]):
        assert tw.add(a, b) == tw.add(b, a)
        assert tw.mul(a, b) == tw.mul(b, a)
        assert tw.add(tw.add(a, b), c) == tw.add(a, tw.add(b, c))
        assert tw.mul(tw.mul(a, b), c) == tw.mul(a, tw.mul(b, c))
        assert tw.mul(a, tw.add(b, c)) == tw.add(tw.mul(a, b), tw.mul(a, c))
        assert tw.add(a, tw.neg(a)) == 0
        if a:
            assert tw.mul(a, tw.inv(a)) == 1
    for field in (tw, tw.fq):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


@pytest.mark.parametrize("p,s,n", [(2, 1, 1), (2, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2),
                                   (2, 1, 10), (2, 2, 5), (3, 1, 7), (7, 1, 4), (2, 1, 13)])
def test_add_and_sub_are_coordinatewise(p, s, n):
    # addition in L is addition of coefficient vectors over F_q
    tw = build_tower(p, s, n)
    add_q, neg_q = tw.fq.add_table, tw.fq.neg_table

    def vec_add(a, b):
        return tw.from_vector([add_q[x][y] for x, y in zip(tw.vector(a), tw.vector(b))])

    def vec_neg(a):
        return tw.from_vector([neg_q[x] for x in tw.vector(a)])

    rng = random.Random(99)
    xs = [rng.randrange(tw.order) for _ in range(200)]
    pairs = list(zip(xs[::2], xs[1::2]))
    for a in xs[:20] + [0, 1, tw.order - 1]:
        pairs += [(a, 0), (0, a), (a, vec_neg(a)), (vec_neg(a), a), (a, a)]
    for a, b in pairs:
        assert tw.add(a, b) == vec_add(a, b)
        assert tw.sub(a, b) == vec_add(a, vec_neg(b))
        assert tw.neg(a) == vec_neg(a)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)])
def test_fq_pow_matches_the_degree_one_tower(p, s):
    # negative exponents invert; zero has no inverse
    tw = build_tower(p, s, 1)
    fq = tw.fq
    for a in fq.units():
        for e in range(-fq.q, fq.q + 1):
            assert fq.pow(a, e) == tw.pow(a, e)
    assert fq.pow(0, 0) == tw.pow(0, 0) == 1
    assert fq.pow(0, fq.q) == tw.pow(0, fq.q) == 0
    for field in (fq, tw):
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)


@pytest.mark.parametrize("p,s,n", [(3, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 3), (2, 1, 6)])
def test_frobenius_has_order_exactly_n(p, s, n):
    tw = build_tower(p, s, n)
    for x in tw.elements():
        assert tw.pow(x, tw.q ** n) == x
        assert tw.frob(x, n % tw.n) == (tw.frob(x, 0))
    for k in range(1, n):
        assert any(tw.frob(x, k) != x for x in tw.elements())
    # a field automorphism fixing F_q
    rng = random.Random(7)
    for _ in range(40):
        a, b = rng.randrange(tw.order), rng.randrange(tw.order)
        assert tw.frob(tw.add(a, b)) == tw.add(tw.frob(a), tw.frob(b))
        assert tw.frob(tw.mul(a, b)) == tw.mul(tw.frob(a), tw.frob(b))
    for c in range(tw.q):
        assert tw.frob(c) == c


def test_fq_embeds_as_small_ints():
    tw = build_tower(3, 1, 2)
    fq = tw.fq
    for a in range(3):
        for b in range(3):
            assert tw.add(a, b) == fq.add(a, b)
            assert tw.mul(a, b) == fq.mul(a, b)


def test_element_vectors_and_parse():
    tw = build_tower(3, 1, 2)
    assert tw.element([0, 1]) == 3
    assert tw.format(3) == "[0,1]"
    assert tw.parse("[0,1]") == 3
    assert tw.parse("5") == 5
    for bad in ([1, 2, 3], 9, [1.0, 0], 1.0, "5", True, False, [True, 0], (0, False)):
        with pytest.raises(ValueError):
            tw.element(bad)
    for bad in ([True, 0], [0, False]):
        with pytest.raises(ValueError):
            tw.from_vector(bad)


def test_parse_refuses_non_ascii_digits():
    # int() reads full-width and other Unicode digits, so '[１,0]' was [1, 0]
    # and str.strip() dropped any Unicode whitespace, so '\u00a0[1,1]' was
    # [1, 1]; spaces are the only whitespace read
    tw = build_tower(3, 1, 2)
    for bad in ("２", "[１,0]", "[0, ２]", "\u0665", "\u00a0[1,1]", "1\u3000",
                "[1,\t1]\n", "[1,1]\x0b", "[1,\u20031]"):
        with pytest.raises(ValueError, match="is not printable ASCII"):
            tw.parse(bad)
    assert tw.parse(" [1, 0] ") == 1 and tw.parse(" 2 ") == 2 and tw.parse(" [1, 1] ") == 4


def test_gauss_solve_and_nullspace():
    fq = build_tower(3, 1, 1).fq
    rows = [[1, 2], [2, 2]]
    status, x = gauss_solve(fq, rows, [1, 0])
    assert status == "unique"
    # verify the solution
    for row, b in zip(rows, [1, 0]):
        acc = 0
        for r, v in zip(row, x):
            acc = fq.add(acc, fq.mul(r, v))
        assert acc == b
    # both systems are inconsistent over F_3: 2*(x+2y) = 2x+y
    assert gauss_solve(fq, [[1, 2], [2, 1]], [1, 1]) == ("none", None)
    assert gauss_solve(fq, [[1, 1], [2, 2]], [1, 1]) == ("none", None)
    status, x = gauss_solve(fq, [[1, 1], [2, 2]], [1, 2])
    assert status == "many"
    for row, b in zip([[1, 1], [2, 2]], [1, 2]):
        assert fq.add(fq.mul(row[0], x[0]), fq.mul(row[1], x[1])) == b
    ns = nullspace(fq, [[1, 1]])
    assert len(ns) == 1
    v = ns[0]
    assert fq.add(v[0], v[1]) == 0 and v != (0, 0)
    ns = nullspace(fq, [[1, 1], [2, 2]])
    assert ns == [(2, 1)]
    for row in ([1, 1], [2, 2]):
        assert fq.add(fq.mul(row[0], ns[0][0]), fq.mul(row[1], ns[0][1])) == 0


def test_embedding_is_ring_map():
    small = build_tower(3, 1, 2)
    big = build_tower(3, 1, 4)
    emb = FieldEmbedding(small, big)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.randrange(small.order), rng.randrange(small.order)
        assert emb.map(small.add(a, b)) == big.add(emb.map(a), emb.map(b))
        assert emb.map(small.mul(a, b)) == big.mul(emb.map(a), emb.map(b))
    assert emb.map(1) == 1
    with pytest.raises(ValueError):
        FieldEmbedding(build_tower(3, 1, 2), build_tower(3, 1, 3))


def test_add_scaled_with_zero_multiplier_adds_nothing():
    tw = build_tower(3, 1, 2)
    out = [0, 0]
    tw.add_scaled(out, 0, 0, (5, 7))
    assert out == [0, 0]
    out = [4, 0, 8]
    tw.add_scaled(out, 1, 0, (5, 7), 1)
    assert out == [4, 0, 8]
    tw.add_scaled(out, 1, 1, (5, 7))  # c = 1 does add, for contrast
    assert out == [4, 5, tw.add(8, 7)]
