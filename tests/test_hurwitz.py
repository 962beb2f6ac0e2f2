import pytest

from drinfeld2 import UPoly, build_tower, class_number, hurwitz_class_number
from drinfeld2 import is_imaginary
from drinfeld2.hurwitz import proper_ideal_representatives


def fq3():
    return build_tower(3, 1, 1).fq


def P(text):
    return UPoly.parse(fq3(), text)


def test_imaginary_predicate():
    fq = fq3()
    assert is_imaginary(P("T+1"), fq)       # odd degree
    assert is_imaginary(P("2"), fq)         # non-square constant
    assert is_imaginary(P("2*T^2"), fq)     # even degree, non-square lc
    assert not is_imaginary(P("T^2+1"), fq)
    assert not is_imaginary(P("1"), fq)
    assert not is_imaginary(UPoly.zero(fq), fq)


def test_class_number_frozen_values():
    fq = fq3()
    # computed by this enumeration and cross-checked against census class
    # sizes (see test_census / acceptance); frozen here
    assert class_number(P("T+1"), fq)[0] == 1
    assert class_number(P("2"), fq)[0] == 1
    assert class_number(P("2*T^2"), fq)[0] == 1
    assert class_number(P("2*T^2+1"), fq)[0] == 2   # 2(T^2 - 1)
    assert class_number(P("2*T^2+T+2"), fq)[0] == 1  # 2(T+1)^2
    assert class_number(P("2*T^2+2*T+1"), fq)[0] == 2  # 2(T^2+T+2), irreducible part


def test_hurwitz_sums_square_conductors():
    fq = fq3()
    total, details = hurwitz_class_number(P("2*T^2"), fq)
    assert total == 2
    assert sorted(t["l"] for t in details) == ["1", "T"]
    assert all(t["stabilized_bound"] >= 4 for t in details)
    # square-free discriminant: the sum collapses to a single class number
    total1, details1 = hurwitz_class_number(P("T+1"), fq)
    assert total1 == class_number(P("T+1"), fq)[0] == 1
    assert len(details1) == 1


def test_unit_ideal_always_present_and_proper():
    fq = fq3()
    ideals = proper_ideal_representatives(P("T+1"), fq)
    assert (UPoly.one(fq), UPoly.zero(fq)) in [(a, b) for a, b in ideals]
    # the conductor-level lattice (T, w) for disc 2T^2 is not proper
    ideals2 = proper_ideal_representatives(P("2*T^2"), fq)
    assert all(not (a == P("T") and b.is_zero()) for a, b in ideals2)


def test_errors():
    fq = fq3()
    with pytest.raises(ValueError):
        hurwitz_class_number(P("T^2+1"), fq)  # not imaginary
    fq2 = build_tower(2, 1, 1).fq
    with pytest.raises(ValueError):
        hurwitz_class_number(UPoly.parse(fq2, "T+1"), fq2)  # q even


def test_class_number_q5():
    fq = build_tower(5, 1, 1).fq
    d = UPoly.parse(fq, "2*T")
    h, bound = class_number(d, fq)
    assert h >= 1 and bound >= 2
