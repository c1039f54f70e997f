"""Exact F_p linear algebra: oracles and round-trip properties."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from stab3.fplinalg import (
    PrimeField,
    binom_over_p,
    coordinates,
    is_prime,
    kernel_basis,
    multinomials_over_p,
    rank,
    rref,
    solve,
)


def test_is_prime_oracle():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_requires_large_prime():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(3)


def test_field_inverse():
    f = PrimeField(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1


def test_rref_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = rref(rows, 3, 7)
    assert pivots == [0, 1]
    assert rank(rows, 3, 7) == 2
    assert len(kernel_basis(rows, 3, 7)) == 1


def test_kernel_vectors_annihilate():
    rows = [[1, 2, 3, 4], [0, 1, 1, 1], [1, 3, 4, 5]]
    p = 11
    for v in kernel_basis(rows, 4, p):
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) % p == 0


def test_solve_and_inconsistency():
    p = 7
    rows = [[1, 1], [1, 2], [2, 3]]
    rhs = [3, 5, 8]
    x = solve(rows, rhs, p)
    assert x is not None
    for r, b in zip(rows, rhs):
        assert sum(a * c for a, c in zip(r, x)) % p == b % p
    assert solve([[1, 1], [1, 1]], [0, 1], p) is None


def test_coordinates_membership():
    p = 7
    basis = [[1, 0, 2], [0, 1, 3]]
    v = [(2 * 1 + 3 * 0) % p, (2 * 0 + 3 * 1) % p, (2 * 2 + 3 * 3) % p]
    c = coordinates(v, basis, p)
    assert c == [2, 3]
    assert coordinates([0, 0, 1], basis, p) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 5),
    st.integers(3, 5),
    st.lists(st.integers(0, 6), min_size=25, max_size=25),
)
def test_rank_nullity_property(m, n, flat):
    p = 7
    rows = [flat[i * n : (i + 1) * n] for i in range(m)]
    r = rank(rows, n, p)
    assert r + len(kernel_basis(rows, n, p)) == n


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 10), min_size=16, max_size=16),
    st.lists(st.integers(0, 10), min_size=4, max_size=4),
)
def test_solve_roundtrip_property(flat, xs):
    p = 11
    rows = [flat[i * 4 : (i + 1) * 4] for i in range(4)]
    rhs = [sum(a * b for a, b in zip(r, xs)) % p for r in rows]
    x = solve(rows, rhs, p)
    assert x is not None
    for r, b in zip(rows, rhs):
        assert sum(a * c for a, c in zip(r, x)) % p == b


def test_binom_over_p_oracle():
    for p in (5, 7):
        for k in (0, 1):
            n = p ** (k + 1)
            for i in range(1, n):
                expected = Fraction(comb(n, i), p)
                assert expected.denominator == 1
                assert binom_over_p(k, i, p) == expected.numerator % p


def test_binom_over_p_symmetry():
    p = 7
    n = p * p
    for i in range(1, n):
        assert binom_over_p(1, i, p) == binom_over_p(1, n - i, p)


def test_multinomials_over_p_oracle():
    for p in (5, 7):
        for n in (p, p * p):
            expected = {}
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    if max(a, b, c) == n:
                        continue
                    q = Fraction(comb(n, a) * comb(n - a, b), p)
                    assert q.denominator == 1
                    if q.numerator % p:
                        expected[(a, b, c)] = q.numerator % p
            got = {(a, b, c): coeff for a, b, c, coeff in multinomials_over_p(n, p)}
            assert got == expected
