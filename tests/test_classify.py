"""The classification route: chi, i1 and i2 from one Krylov pass over the
n x n action matrix over F_q, and (c, mu) from chi and the norm of delta.

Each result is compared with the routes the library no longer takes:
the Smith normal form of T*I - M over A and the linear solve for the
characteristic polynomial (oracles.snf_invariant_factors and
oracles.charpoly_by_solve).
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld2 import (DrinfeldModule, UPoly, action_matrix, annihilation_holds,
                       build_tower, frobenius_charpoly, module_structure)
from drinfeld2.fields import char_and_min_poly, second_invariant_factor
from drinfeld2.polys import monic_polys
from oracles import charpoly_by_solve, snf_invariant_factors

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def base_field(q):
    return build_tower(*FIELDS[q], 1).fq


def classify(fq, mat):
    chi, i1 = char_and_min_poly(fq, mat)
    i2 = second_invariant_factor(fq, mat, chi, i1)
    return UPoly(fq, chi), UPoly(fq, i1), UPoly(fq, i2)


def companion(f):
    """The matrix of T on A/(f) in the basis 1, T, ..., T^(k-1)."""
    fq = f.fq
    k = f.degree()
    mat = [[1 if i == j + 1 else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        mat[i][k - 1] = fq.neg(f.coeffs[i])
    return mat


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    mat = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            mat[at + i][at:at + len(row)] = row
        at += len(b)
    return mat


def conjugate(fq, mat, rng, steps):
    """S mat S^(-1) for a random product S of elementary matrices."""
    mat = [row[:] for row in mat]
    n = len(mat)
    for _ in range(steps):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:  # scale row a by s and column a by 1/s
            s = rng.randrange(1, fq.q)
            mat[a] = [fq.mul(s, x) for x in mat[a]]
            for row in mat:
                row[a] = fq.mul(row[a], fq.inv(s))
        else:  # row a += c row b, then column b -= c column a
            c = rng.randrange(fq.q)
            mat[a] = [fq.add(x, fq.mul(c, y)) for x, y in zip(mat[a], mat[b])]
            for row in mat:
                row[b] = fq.sub(row[b], fq.mul(c, row[a]))
    return mat


def random_monic(fq, degree, rng):
    return UPoly(fq, [rng.randrange(fq.q) for _ in range(degree)] + [1])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_classifier_matches_smith_oracle_on_random_matrices(q):
    fq = base_field(q)
    rng = random.Random(1000 + q)
    for _ in range(25):
        n = rng.randrange(1, 7)
        i2 = random_monic(fq, rng.randrange(0, n // 2 + 1), rng)
        i1 = i2 * random_monic(fq, n - 2 * i2.degree(), rng)
        blocks = [companion(f) for f in (i1, i2) if f.degree() > 0]
        mat = conjugate(fq, block_diagonal(blocks), rng, 4 * n)
        chi, got1, got2 = classify(fq, mat)
        assert (got1, got2) == (i1, i2)
        assert chi == i1 * i2
        nonunit = [f for f in (got2, got1) if f.degree() > 0]
        assert nonunit == snf_invariant_factors(mat, fq)


def test_three_invariant_factors_raise():
    fq = base_field(3)
    # T, T, T: i1 = T and chi / i1 = T^2 does not divide it
    with pytest.raises(RuntimeError):
        classify(fq, [[0] * 3 for _ in range(3)])
    # T, T, T^2: i2 = T^2 divides i1 = T^2, but dim ker M = 3 > 2 deg T
    t, t2 = UPoly.parse(fq, "T"), UPoly.parse(fq, "T^2")
    mat = block_diagonal([companion(t), companion(t), companion(t2)])
    assert snf_invariant_factors(mat, fq) == [t, t, t2]
    for seed in range(5):
        shuffled = conjugate(fq, mat, random.Random(seed), 12)
        with pytest.raises(RuntimeError, match="more than two invariant factors"):
            classify(fq, shuffled)


def test_inconsistent_factors_raise():
    fq = base_field(3)
    mat = companion(UPoly.parse(fq, "T^2+1"))
    with pytest.raises(RuntimeError, match="does not divide"):
        second_invariant_factor(fq, mat, (1, 0, 1), (0, 1))  # T does not divide T^2+1
    with pytest.raises(RuntimeError, match="divisibility chain"):
        second_invariant_factor(fq, mat, (0, 0, 0, 1), (0, 1))  # chi/i1 = T^2, i1 = T


def test_charpoly_raises_when_the_annihilation_identity_fails(monkeypatch):
    import drinfeld2.charpoly as charpoly

    tower = build_tower(3, 1, 2)
    mod = DrinfeldModule(tower, UPoly.parse(tower.fq, "T"), 1, 1)
    monkeypatch.setattr(charpoly, "annihilation_holds", lambda mod, cp: False)
    with pytest.raises(RuntimeError, match="annihilation identity fails"):
        frobenius_charpoly(mod)
    assert mod._charpoly is None


@pytest.mark.parametrize("q,d,m", [(3, 1, 2), (3, 2, 1), (2, 2, 2)])
def test_charpoly_and_structure_match_the_old_routes_on_every_module(q, d, m):
    tower = build_tower(*FIELDS[q], d * m)
    fq = tower.fq
    in_image = 0
    for prime in monic_polys(fq, d):
        if not prime.is_irreducible():
            continue
        for g in tower.elements():
            for delta in tower.units():
                mod = DrinfeldModule(tower, prime, g, delta)
                cp, old = frobenius_charpoly(mod), charpoly_by_solve(mod)
                assert cp.key() == old.key()
                assert cp.frobenius_in_image == old.frobenius_in_image
                in_image += cp.frobenius_in_image is not None
                inv = module_structure(mod)
                nonunit = [f for f in (inv.i2, inv.i1) if f.degree() > 0]
                assert nonunit == snf_invariant_factors(action_matrix(mod), fq)
    if m % 2 == 0:
        assert in_image  # the witness branch is exercised too


@st.composite
def modules(draw):
    """A module over L = F_{q^n}, q in {7, 8, 9} and n <= 4, with one of the
    first three monic irreducibles of a degree d | n as its prime."""
    q = draw(st.sampled_from([7, 8, 9]))
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    tower = build_tower(*FIELDS[q], n)
    primes = list(itertools.islice(tower.fq.kernel.irreducibles(d), 3))
    prime = UPoly(tower.fq, draw(st.sampled_from(primes)))
    g = draw(st.integers(0, tower.order - 1))
    delta = draw(st.integers(1, tower.order - 1))
    return DrinfeldModule(tower, prime, g, delta)


PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(modules())
def test_property_annihilation_identity(mod):
    assert annihilation_holds(mod, frobenius_charpoly(mod))


@PROPERTY
@given(modules())
def test_property_charpoly_agrees_with_solve(mod):
    cp, old = frobenius_charpoly(mod), charpoly_by_solve(mod)
    assert cp.key() == old.key()
    assert cp.frobenius_in_image == old.frobenius_in_image


@PROPERTY
@given(modules())
def test_property_structure_agrees_with_smith_oracle(mod):
    inv = module_structure(mod)
    nonunit = [f for f in (inv.i2, inv.i1) if f.degree() > 0]
    assert nonunit == snf_invariant_factors(action_matrix(mod), mod.tower.fq)
    assert inv.i1 * inv.i2 == frobenius_charpoly(mod).chi_poly()
