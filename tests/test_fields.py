import pickle
import random

import pytest

from drinfeld2 import FieldElement, FieldEmbedding, SizeBoundError, build_tower
from drinfeld2.fields import gauss_solve, nullspace


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


def test_size_bound():
    with pytest.raises(SizeBoundError):
        build_tower(2, 1, 14)  # 2^14 > 8192
    # the documented bound admits at least 5^4
    build_tower(5, 1, 4)


@pytest.mark.parametrize("p,s,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 4),
                                   (2, 3, 1), (3, 2, 1)])
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
    e = tw.element([0, 1])
    assert e.value == 3
    assert e.vector() == (0, 1)
    assert str(e) == "[0,1]"
    assert FieldElement.parse(tw, "[0,1]") == e
    assert FieldElement.parse(tw, "5") == tw.element(5)
    with pytest.raises(ValueError):
        tw.element([1, 2, 3])
    with pytest.raises(ValueError):
        tw.element(9)


def test_element_arithmetic_dunders():
    tw = build_tower(3, 1, 2)
    a = tw.element(4)
    b = tw.element(7)
    assert (a + b).value == tw.add(4, 7)
    assert (a * b).value == tw.mul(4, 7)
    assert (-a).value == tw.neg(4)
    assert (a - a).value == 0
    assert (a * a.inverse()).value == 1
    assert (a ** (tw.order - 1)).value == 1


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
