import itertools
import time

import pytest

from oracles import (class_number_by_enumeration, l_polynomial_problems,
                     proper_ideal_representatives)

from drinfeld2 import (SizeBoundError, UPoly, build_tower, class_number,
                       hurwitz_class_number, is_imaginary)


def fq3():
    return build_tower(3, 1, 1).fq


def P(text):
    return UPoly.parse(fq3(), text)


def test_imaginary_predicate():
    fq = fq3()
    assert is_imaginary(P("T+1"))    # odd degree
    assert is_imaginary(P("2"))      # non-square constant
    assert is_imaginary(P("2*T^2"))  # even degree, non-square lc
    assert not is_imaginary(P("T^2+1"))
    assert not is_imaginary(P("1"))
    assert not is_imaginary(UPoly.zero(fq))


def test_class_number_frozen_values():
    # computed by the lattice enumeration and cross-checked against census
    # class sizes (see test_census / acceptance); frozen here
    assert class_number(P("T+1")) == 1
    assert class_number(P("2")) == 1
    assert class_number(P("2*T^2")) == 1  # constant D_K = 2, conductor T
    assert class_number(P("2*T^2+1")) == 2  # 2(T^2 - 1)
    assert class_number(P("2*T^2+T+2")) == 1  # 2(T+1)^2
    assert class_number(P("2*T^2+2*T+1")) == 2  # 2(T^2+T+2), irreducible part


@pytest.mark.parametrize("case", [3, 5, 7, "2*T^2", "2*T^2+T+2", "2*T^2+1", "2*T^2+2*T+1"])
def test_class_number_matches_enumeration(case):
    # every imaginary discriminant of degree <= 1 at q in {3, 5, 7}, and
    # the degree-2 cases at q = 3 with a split, an irreducible and a
    # constant squarefree part; bound-8 partitions make the last two slow
    if isinstance(case, str):
        discs = [P(case)]
    else:
        fq = build_tower(case, 1, 1).fq
        discs = [disc for disc in ([UPoly(fq, (c,)) for c in range(1, case)]
                                   + [UPoly(fq, (c0, c1)) for c0 in range(case)
                                      for c1 in range(1, case)])
                 if is_imaginary(disc)]
    for disc in discs:
        assert class_number(disc) == class_number_by_enumeration(disc), disc


def test_hurwitz_sums_square_conductors():
    total, details = hurwitz_class_number(P("2*T^2"))
    assert total == 2
    assert [t["l"] for t in details] == ["1", "T"]
    assert [t["disc"] for t in details] == ["2*T^2", "2"]
    for t in details:
        assert (t["genus"], t["L"]) == (0, [1])
    # square-free discriminant: the sum collapses to a single class number
    total1, details1 = hurwitz_class_number(P("T+1"))
    assert total1 == class_number(P("T+1")) == 1
    assert len(details1) == 1
    # l runs over the monic l with l^2 | disc in increasing order, here
    # 1, T, T+1, T^2+T (T^2 + T = T(T+1))
    total2, details2 = hurwitz_class_number(P("T^5+2*T^4+T^3"))
    assert [t["l"] for t in details2] == ["1", "T", "T+1", "T^2+T"]
    assert total2 == sum(class_number(P(t["disc"])) for t in details2)


def test_class_number_genus_one_is_a_point_count():
    # for squarefree D of degree 3, or 4 with a non-square leading
    # coefficient, the curve y^2 = D has genus 1 and L(1) is its number of
    # F_q-points (affine ones only in degree 4); h = d_inf L(1)
    fq = fq3()
    tw = build_tower(3, 1, 1)
    discs = ([UPoly(fq, tail + (lc,)) for tail in itertools.product(range(3), repeat=3)
              for lc in (1, 2)]
             + [UPoly(fq, tail + (2,)) for tail in itertools.product(range(3), repeat=4)])
    seen = 0
    for disc in discs:
        _, details = hurwitz_class_number(disc)
        if len(details) > 1:  # some l^2 divides disc
            continue
        affine = sum(1 + (0 if v == 0 else 1 if fq.is_square(v) else -1)
                     for v in (disc.eval_in_tower(tw, x) for x in fq.elements()))
        odd = disc.degree() == 3
        assert class_number(disc) == (affine + 1 if odd else 2 * affine), disc
        assert details[0]["genus"] == 1 and not l_polynomial_problems(1, details[0]["L"], 3)
        seen += 1
    assert seen > 50


def test_size_bound_on_the_genus():
    # D = T^13 + T + 1 is squarefree at q = 3 and 5, so g = 6:
    # 3^6 = 729 is within MAX_FIELD_ORDER and 5^6 = 15625 is not
    fq5 = build_tower(5, 1, 1).fq
    disc5 = UPoly.parse(fq5, "T^13+T+1")
    t0 = time.time()
    with pytest.raises(SizeBoundError):
        hurwitz_class_number(disc5)
    with pytest.raises(SizeBoundError):
        class_number(disc5)
    assert time.time() - t0 < 1
    h, (term,) = hurwitz_class_number(P("T^13+T+1"))
    assert term["genus"] == 6 and not l_polynomial_problems(6, term["L"], 3)
    assert h == sum(term["L"])


def test_unit_ideal_always_present_and_proper():
    fq = fq3()
    ideals = proper_ideal_representatives(P("T+1"))
    assert (UPoly.one(fq), UPoly.zero(fq)) in [(a, b) for a, b in ideals]
    # the conductor-level lattice (T, w) for disc 2T^2 is not proper
    ideals2 = proper_ideal_representatives(P("2*T^2"))
    assert all(not (a == P("T") and b.is_zero()) for a, b in ideals2)


def test_errors():
    with pytest.raises(ValueError):
        hurwitz_class_number(P("T^2+1"))  # not imaginary
    with pytest.raises(ValueError):
        class_number(P("T^2+1"))
    fq2 = build_tower(2, 1, 1).fq
    with pytest.raises(ValueError):
        hurwitz_class_number(UPoly.parse(fq2, "T+1"))  # q even


def test_class_number_q5():
    fq = build_tower(5, 1, 1).fq
    d = UPoly.parse(fq, "2*T")
    assert class_number(d) == class_number_by_enumeration(d) == 1
