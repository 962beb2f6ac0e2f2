"""The classification route: chi, i1 and i2 from Krylov sequences over
the elements of L under x -> phi_T(x), and (c, mu) from chi and the norm
of delta, accepted by the annihilation residue.

Each result is compared with the routes the library no longer takes: the
Krylov pass over the n x n action matrix, the Smith normal form of
T*I - M over A, the linear solve for the characteristic polynomial and the
residue built from OrePoly objects (oracles.matrix_char_and_min_poly,
oracles.snf_invariant_factors, oracles.charpoly_by_solve and
oracles.annihilation_residue_by_ore).  Matrices run through both routes:
a k x k matrix over F_q is the linear step x -> M x on the L of
build_tower(p, s, k).
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld2 import (DrinfeldModule, FrobeniusCharPoly, UPoly,
                       annihilation_holds, build_tower, fields, frobenius_charpoly,
                       module_structure, structure)
from drinfeld2.charpoly import _annihilation_residue
from drinfeld2.drinfeld import invariants, orbit_members, twist_orbits
from drinfeld2.fields import MAX_FIELD_ORDER, char_and_min_poly, second_invariant_factor
from drinfeld2.polys import monic_polys
from oracles import (OrePoly, _matrix_krylov_relation, _solve_frobenius_in_image, action_matrix,
                     annihilation_residue_by_ore, charpoly_by_solve, frobenius_witness,
                     matrix_char_and_min_poly, matrix_second_invariant_factor,
                     snf_invariant_factors)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def base_field(q):
    return build_tower(*FIELDS[q], 1).fq


def classify(fq, mat):
    """(chi, i1, i2) by the Krylov pass over the matrix."""
    chi, i1 = matrix_char_and_min_poly(fq, mat)
    i2 = matrix_second_invariant_factor(fq, mat, chi, i1)
    return UPoly(fq, chi), UPoly(fq, i1), UPoly(fq, i2)


def on_l(fq, mat):
    """The tower whose L is F_q^k for the k x k matrix mat, and the step
    x -> mat x on it."""
    tower = build_tower(fq.p, fq.s, len(mat))

    def step(x):
        v = tower.vector(x)
        out = []
        for row in mat:
            acc = 0
            for a, b in zip(row, v):
                acc = fq.add(acc, fq.mul(a, b))
            out.append(acc)
        return tower.from_vector(out)

    return tower, step


def classify_on_l(fq, mat):
    """(chi, i1, i2) by the library's route on L."""
    tower, step = on_l(fq, mat)
    chi, i1 = char_and_min_poly(tower, step)
    i2 = second_invariant_factor(tower, step, chi, i1)
    return UPoly(fq, chi), UPoly(fq, i1), UPoly(fq, i2)


def both_routes(fq, mat):
    """classify and, when F_q^k is small enough to be a tower, classify_on_l."""
    routes = [classify]
    if fq.q ** len(mat) <= MAX_FIELD_ORDER:
        routes.append(classify_on_l)
    return [route(fq, mat) for route in routes]


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
        smith = snf_invariant_factors(mat, fq)
        for chi, got1, got2 in both_routes(fq, mat):
            assert (got1, got2) == (i1, i2)
            assert chi == i1 * i2
            nonunit = [f for f in (got2, got1) if f.degree() > 0]
            assert nonunit == smith


def test_three_invariant_factors_raise():
    fq = base_field(3)
    for route in (classify, classify_on_l):
        # T, T, T: i1 = T and chi / i1 = T^2 does not divide it
        with pytest.raises(RuntimeError):
            route(fq, [[0] * 3 for _ in range(3)])
    # T, T, T^2: i2 = T^2 divides i1 = T^2, but dim ker M = 3 > 2 deg T
    t, t2 = UPoly.parse(fq, "T"), UPoly.parse(fq, "T^2")
    mat = block_diagonal([companion(t), companion(t), companion(t2)])
    assert snf_invariant_factors(mat, fq) == [t, t, t2]
    for seed in range(5):
        shuffled = conjugate(fq, mat, random.Random(seed), 12)
        for route in (classify, classify_on_l):
            with pytest.raises(RuntimeError, match="more than two invariant factors"):
                route(fq, shuffled)


def test_inconsistent_factors_raise():
    fq = base_field(3)
    mat = companion(UPoly.parse(fq, "T^2+1"))
    tower, step = on_l(fq, mat)
    for second in (lambda chi, i1: matrix_second_invariant_factor(fq, mat, chi, i1),
                   lambda chi, i1: second_invariant_factor(tower, step, chi, i1)):
        with pytest.raises(RuntimeError, match="does not divide"):
            second((1, 0, 1), (0, 1))  # T does not divide T^2+1
        with pytest.raises(RuntimeError, match="divisibility chain"):
            second((0, 0, 0, 1), (0, 1))  # chi/i1 = T^2, i1 = T


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_krylov_relation_matches_the_matrix_oracle_after_earlier_seeds(q):
    """Seed by seed, as char_and_min_poly runs them: each relation, and the
    rows it leaves, equal the matrix route's, also when rows from earlier
    seeds are present."""
    fq = base_field(q)
    rng = random.Random(2000 + q)
    later = 0
    for _ in range(25):
        n = rng.randrange(2, 7)
        if q ** n > MAX_FIELD_ORDER:
            continue
        i2 = random_monic(fq, rng.randrange(1, n // 2 + 1), rng)
        i1 = i2 * random_monic(fq, n - 2 * i2.degree(), rng)
        blocks = [companion(f) for f in (i1, i2) if f.degree() > 0]
        mat = conjugate(fq, block_diagonal(blocks), rng, 4 * n)
        tower, step = on_l(fq, mat)
        cols = [list(col) for col in zip(*mat)]
        rows, matrix_rows = [], []
        for j in range(n):
            first = len(rows)
            seed = [0] * n
            seed[j] = 1
            f = fields._krylov_relation(tower, step, tower.q ** j, rows)
            assert f == _matrix_krylov_relation(fq, cols, seed, matrix_rows)
            assert [(p, tower.vector(row)) for p, row, _ in rows] == [
                (p, tuple(row)) for p, row in matrix_rows]
            later += first > 0 and len(f) > 1
    assert later  # relations over earlier seeds' rows are compared


@pytest.mark.parametrize("mat,calls,chi,i1", [
    # M = diag(0, -1): seed 1 has f = i1 = T, seed 3 has f = T+1, coprime to it
    ([[0, 0], [0, 2]], 2, "T^2+T", "T^2+T"),
    # M e1 = e0, M e0 = 0: seed 3 has f = T, gcd(i1, f) = T, and its own is T^2
    ([[0, 1], [0, 0]], 3, "T^2", "T^2"),
])
def test_own_sequence_runs_only_when_f_shares_a_factor_with_i1(monkeypatch, mat, calls,
                                                              chi, i1):
    fq = base_field(3)
    tower, step = on_l(fq, mat)
    relation, seen = fields._krylov_relation, []

    def counted(*args):
        seen.append(args)
        return relation(*args)

    monkeypatch.setattr(fields, "_krylov_relation", counted)
    got = char_and_min_poly(tower, step)
    assert len(seen) == calls
    assert got == matrix_char_and_min_poly(fq, mat)
    assert (UPoly(fq, got[0]), UPoly(fq, got[1])) == (UPoly.parse(fq, chi), UPoly.parse(fq, i1))


def primes_and_orbits(q, d, m):
    """Every (prime, orbit representative) over L = F_{q^(d m)}."""
    tower = build_tower(*FIELDS[q], d * m)
    for prime in monic_polys(tower.fq, d):
        if prime.is_irreducible():
            for (g, delta), _, _ in twist_orbits(tower):
                yield DrinfeldModule(tower, prime, g, delta)


@pytest.mark.parametrize("q,d,m", [(3, 1, 2), (3, 2, 1), (2, 2, 2), (2, 1, 5)])
def test_l_route_matches_the_matrix_krylov_and_smith_on_every_orbit(q, d, m):
    non_cyclic = 0
    for mod in primes_and_orbits(q, d, m):
        fq = mod.tower.fq
        mat = action_matrix(mod)
        chi, i1 = matrix_char_and_min_poly(fq, mat)
        i2 = matrix_second_invariant_factor(fq, mat, chi, i1)
        inv = module_structure(mod)
        assert invariants(mod.tower, mod.gamma_t, mod.g, mod.delta) == (chi, i1, i2)
        assert (inv.i1.coeffs, inv.i2.coeffs) == (i1, i2)
        nonunit = [f for f in (inv.i2, inv.i1) if f.degree() > 0]
        assert nonunit == snf_invariant_factors(mat, fq)
        non_cyclic += not inv.is_cyclic()
    assert non_cyclic  # the rank test runs, not only the cyclic case


@pytest.mark.parametrize("q,d,m", [(3, 1, 2), (2, 2, 2), (4, 1, 2), (5, 1, 2)])
def test_annihilation_residue_holds_only_for_the_true_charpoly(q, d, m):
    """The residue equals the one built from OrePoly objects, vanishes for
    (c, mu) and for no pair with c + 1 or another unit in place."""
    for mod in primes_and_orbits(q, d, m):
        cp = frobenius_charpoly(mod)
        one = UPoly.one(mod.tower.fq)
        wrong = [FrobeniusCharPoly(cp.trace + one, cp.unit, cp.prime, cp.ext_degree)] + [
            FrobeniusCharPoly(cp.trace, u, cp.prime, cp.ext_degree)
            for u in mod.tower.fq.units() if u != cp.unit]
        for other in [cp] + wrong:
            residue = _annihilation_residue(mod.tower, mod.gamma_t, mod.g, mod.delta, other)
            assert OrePoly(mod.tower, residue) == annihilation_residue_by_ore(mod, other)
            assert annihilation_holds(mod, other) == (other is cp)


@pytest.mark.parametrize("q,d,m", [(3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_kernel_residue_matches_the_ore_oracle_on_every_member(q, d, m):
    """The plain-int residue of every member of every twist orbit, for
    every prime (gamma = 0 at prime T) and g = 0 among the orbits, against
    the head's charpoly: it equals the OrePoly residue of the member's own
    module, and is nonzero with c + 1 or any other unit in place."""
    tower = build_tower(*FIELDS[q], d * m)
    one, gammas = UPoly.one(tower.fq), set()
    for prime in monic_polys(tower.fq, d):
        if not prime.is_irreducible():
            continue
        for rep, _, _ in twist_orbits(tower):
            head = DrinfeldModule(tower, prime, *rep)
            cp = frobenius_charpoly(head)
            wrong = [FrobeniusCharPoly(cp.trace + one, cp.unit, prime, m)] + [
                FrobeniusCharPoly(cp.trace, u, prime, m)
                for u in tower.fq.units() if u != cp.unit]
            for g, delta in orbit_members(tower, rep):
                mod = DrinfeldModule(tower, prime, g, delta)
                for other in [cp] + wrong:
                    residue = _annihilation_residue(tower, head.gamma_t, g, delta, other)
                    assert OrePoly(tower, residue) == annihilation_residue_by_ore(mod, other)
                    assert any(residue) == (other is not cp)
            gammas.add(head.gamma_t)
    assert (0 in gammas) == (d == 1)  # prime T, of degree 1, has gamma = 0


def test_kernel_invariant_pair_matches_module_structure_on_every_module():
    tower = build_tower(3, 1, 3)
    for prime in monic_polys(tower.fq, 1):
        gamma = DrinfeldModule(tower, prime, 0, 1).gamma_t
        for g in tower.elements():
            for delta in tower.units():
                mod = DrinfeldModule(tower, prime, g, delta)
                inv = module_structure(mod)
                assert invariants(tower, gamma, g, delta)[1:] == (inv.i1.coeffs, inv.i2.coeffs)


def test_annihilation_fails_for_the_charpoly_of_a_larger_field():
    # its norm term has degree 3 > n = 1, so phi of it is longer than tau^(2n)
    t = UPoly.parse(build_tower(3, 1, 1).fq, "T")
    small = DrinfeldModule(build_tower(3, 1, 1), t, 1, 1)
    big = DrinfeldModule(build_tower(3, 1, 3), t, 1, 1)
    assert not annihilation_holds(small, frobenius_charpoly(big))


def test_charpoly_raises_when_the_annihilation_identity_fails(monkeypatch):
    tower = build_tower(3, 1, 2)
    mod = DrinfeldModule(tower, UPoly.parse(tower.fq, "T"), 1, 1)
    # a residue with one nonzero coefficient, through the classifier's seam
    monkeypatch.setattr(structure, "_annihilation_residue", lambda *args: [0, 1])
    before = set(vars(mod))
    with pytest.raises(RuntimeError, match="annihilation identity fails"):
        frobenius_charpoly(mod)
    assert set(vars(mod)) == before  # nothing is stored on the module


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
                assert (cp.trace.coeffs, cp.unit) == (old.trace.coeffs, old.unit)
                a = frobenius_witness(mod, cp) if cp.disc.is_zero() else None
                assert a == _solve_frobenius_in_image(mod)
                in_image += a is not None
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
    assert (cp.trace.coeffs, cp.unit) == (old.trace.coeffs, old.unit)
    a = frobenius_witness(mod, cp) if cp.disc.is_zero() else None
    assert a == _solve_frobenius_in_image(mod)


@PROPERTY
@given(modules())
def test_property_structure_agrees_with_smith_oracle(mod):
    inv = module_structure(mod)
    nonunit = [f for f in (inv.i2, inv.i1) if f.degree() > 0]
    assert nonunit == snf_invariant_factors(action_matrix(mod), mod.tower.fq)
    assert inv.i1 * inv.i2 == frobenius_charpoly(mod).chi
