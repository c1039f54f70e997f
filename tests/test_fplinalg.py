"""Exact F_p linear algebra: oracles and round-trip properties."""

import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from stab3.cohomology import ExteriorCohomology
from stab3.exterior import ExteriorAlgebra
from stab3.fplinalg import (
    b_class_terms,
    check_prime,
    coordinates,
    is_prime,
    kernel_basis,
    rref,
    solve,
    sparse_kernel,
    sparse_rref,
    sparse_solve,
    to_dense,
)
from stab3.hopf_cobar import CobarEngine, TruncatedHopf


# -- dense reference: the elimination the sparse kernel replaced -------------


def dense_rref(rows, ncols, p):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_cols).  Echelon rows have leading entry 1,
    zeros above and below each pivot; zero rows are dropped.  Pivoting is
    deterministic: scan columns left to right, take the lowest-index row
    with a nonzero entry.
    """
    mat = [[x % p for x in r] for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_r = mat[r]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def dense_kernel_basis(rows, ncols, p):
    ech, pivots = dense_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, pc in zip(ech, pivots):
            v[pc] = (-r[free]) % p
        basis.append(v)
    return basis


def dense_solve(rows, rhs, p):
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    if not rows:
        return [0] * ncols if not any(b % p for b in rhs) else None
    ech, pivots = dense_rref(aug, ncols + 1, p)
    x = [0] * ncols
    for r, pc in zip(ech, pivots):
        if pc == ncols:
            return None
        x[pc] = r[ncols]
    return x


def dense_coordinates(v, basis, p):
    if not basis:
        return [] if not any(x % p for x in v) else None
    n = len(basis[0])
    rows = [[basis[i][r] % p for i in range(len(basis))] for r in range(n)]
    return dense_solve(rows, list(v), p)


@st.composite
def matrices(draw):
    """(rows, ncols, p): density 0-100%, with zero and duplicate rows."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    ncols = draw(st.integers(0, 12))
    density = draw(st.integers(0, 100))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([
                draw(st.integers(-p, 2 * p)) if draw(st.integers(0, 99)) < density else 0
                for _ in range(ncols)
            ])
    return rows, ncols, p


@settings(max_examples=300, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_sparse_kernel_equals_dense_reference(mat, rng):
    rows, ncols, p = mat
    assert rref(rows, ncols, p) == dense_rref(rows, ncols, p)
    assert kernel_basis(rows, ncols, p) == dense_kernel_basis(rows, ncols, p)
    rhs = [rng.randrange(-p, 2 * p) for _ in rows]
    assert solve(rows, rhs, p) == dense_solve(rows, rhs, p)
    xs = [rng.randrange(p) for _ in range(ncols)]
    consistent = [sum(a * x for a, x in zip(r, xs)) for r in rows]
    x = solve(rows, consistent, p)
    assert x is not None and x == dense_solve(rows, consistent, p)
    # coordinates in the span of the rows: a member, and a random vector
    cs = [rng.randrange(p) for _ in rows]
    member = [sum(c * r[i] for c, r in zip(cs, rows)) for i in range(ncols)]
    other = [rng.randrange(p) for _ in range(ncols)]
    for v in (member, other):
        assert coordinates(v, rows, p) == dense_coordinates(v, rows, p)


def test_sparse_rref_equals_dense_reference_on_the_largest_cobar_matrix():
    # the cocycle equations of the p = 7 bracket sector (84, 7) at s = 2:
    # one row per degree-3 basis tensor, one column per degree-2 tensor
    tower = CobarEngine(7, weight_bound=7).tower(84, 7)
    rows, ncols = tower._dmat_columns(2), tower.dim(2)
    assert (len(rows), ncols) == (2043, 516)
    ech, pivots = sparse_rref(rows, 7)
    assert len(pivots) == 481
    dense = [to_dense(r, ncols) for r in rows]
    assert ([to_dense(r, ncols) for r in ech], pivots) == dense_rref(dense, ncols, 7)
    shuffled = list(rows)
    random.Random(84).shuffle(shuffled)
    assert sparse_rref(shuffled, 7) == (ech, pivots)


def _low_rank_rows(rng, nrows, ncols, rank, p):
    """nrows sparse rows spanning at most `rank` dimensions: each a random
    combination of one to three sparse generators, with zero rows and
    duplicates mixed in (the shape of the cocycle equations)."""
    gens = [{c: rng.randrange(1, p) for c in rng.sample(range(ncols), rng.randint(1, 4))}
            for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            row = {}
            for g in rng.sample(gens, rng.randint(1, min(3, rank))):
                f = rng.randrange(-p, 2 * p)
                for c, x in g.items():
                    row[c] = row.get(c, 0) + f * x
            rows.append(row)  # entries may be 0 or outside 0..p-1
    return rows


def _sparse_rows(rng, nrows, ncols, nnz, p):
    """nrows random rows with up to nnz entries each, zero and duplicate
    rows mixed in (the shape of the coboundary rows)."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            rows.append({c: rng.randrange(-p, 2 * p)
                         for c in rng.sample(range(ncols), rng.randint(1, nnz))})
    return rows


SHAPES = {  # name -> (rows, cols, rank or None for full random, nnz)
    "tall-low-rank": (90, 30, 12, None),
    "tall-rank-deficient": (60, 40, 35, None),
    "wide": (25, 90, None, 4),
    "square": (40, 40, None, 3),
}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sparse_rref_equals_dense_reference_on_larger_systems(shape, p):
    # many pivots arrive after a tail is first read, so stale tails are
    # reduced again on later reads; the hypothesis matrices are too small
    nrows, ncols, rank, nnz = SHAPES[shape]
    rng = random.Random(f"{shape}-{p}")
    for _ in range(4):
        if rank is None:
            rows = _sparse_rows(rng, nrows, ncols, nnz, p)
        else:
            rows = _low_rank_rows(rng, nrows, ncols, rank, p)
        ech, pivots = sparse_rref(rows, p)
        dense = [to_dense(r, ncols) for r in rows]
        assert ([to_dense(r, ncols) for r in ech], pivots) == dense_rref(dense, ncols, p)
        if rank is not None:
            assert len(pivots) <= rank < nrows
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert sparse_rref(shuffled, p) == (ech, pivots)


def _pivot_chain(n):
    # row i pins x_i = -x_(i+1); the last row reaches back to column 0, so
    # every tail of the chain is stale when it is read
    return [{i: 1, i + 1: 1} for i in range(n)] + [{0: 1, n + 1: 3}]


@pytest.mark.parametrize("p", [7, 11])
def test_pivot_chain_equals_dense_reference_and_closed_form(p):
    n = 100
    rows = _pivot_chain(n)
    ech, pivots = sparse_rref(rows, p)
    assert pivots == list(range(n + 1))
    assert ech == [{c: 1, n + 1: (-1) ** c * 3 % p} for c in range(n + 1)]
    dense = [to_dense(r, n + 2) for r in rows]
    assert ([to_dense(r, n + 2) for r in ech], pivots) == dense_rref(dense, n + 2, p)


def test_long_pivot_chain_needs_no_recursion():
    n, p = 3000, 7
    assert sys.getrecursionlimit() <= n  # a recursive reduction would fail here
    ech, pivots = sparse_rref(_pivot_chain(n), p)
    assert pivots == list(range(n + 1))
    assert ech == [{c: 1, n + 1: (-1) ** c * 3 % p} for c in range(n + 1)]


def test_elimination_leaves_its_input_rows_unchanged():
    # `SectorTower._coboundary_rows` passes the cached `dmat` rows straight
    # to `sparse_rref`; a reduction in place would corrupt later queries
    p, ncols = 7, 30
    rng = random.Random(23)
    rows = _low_rank_rows(rng, 90, ncols, 12, p) + _pivot_chain(20)
    rhs = [rng.randrange(p) for _ in rows]

    def snapshot():
        return [list(r.items()) for r in rows]

    before = snapshot()
    for run in (lambda: sparse_rref(rows, p),
                lambda: sparse_kernel(rows, ncols, p),
                lambda: sparse_solve(rows, rhs, ncols, p)):
        run()
        assert snapshot() == before


def _dense(v, n):
    return [v.get(i, 0) for i in range(n)]


@pytest.mark.parametrize(
    "engine",
    [ExteriorCohomology(7), CobarEngine(5, weight_bound=3)],
    ids=["exterior-7", "cobar-5-w3"],
)
def test_reduce_vec_equals_coordinates_in_the_cocycle_span(engine):
    p = engine.p
    rng = random.Random(7)
    for (t, w) in engine.sector_keys():
        tower = engine.tower(t, w)
        for s in tower.degrees:
            n = tower.dim(s)
            bnd = [_dense(r, n) for r in tower._coboundary_rows(s).values()]
            span = bnd + [_dense(r, n) for r in tower.h_reps(s)]
            cocycles = [_dense(z, n) for z in tower.cocycle_vectors(s)]
            combos = []
            for _ in range(3):
                cs = [rng.randrange(p) for _ in cocycles]
                combos.append([sum(c * z[i] for c, z in zip(cs, cocycles)) % p
                               for i in range(n)])
            for vec in cocycles + combos:
                assert tower.reduce_vec(s, vec) == coordinates(vec, span, p)[len(bnd):]
            for i, row in enumerate(tower.dmat(s)):
                if row:  # the basis vector e_i is not a cocycle
                    with pytest.raises(ValueError):
                        tower.reduce_vec(s, [int(i == j) for j in range(n)])
                    break


@pytest.mark.parametrize("make", [
    lambda: ExteriorCohomology(7), lambda: ExteriorCohomology(11),
    lambda: CobarEngine(5, weight_bound=5), lambda: CobarEngine(7, weight_bound=6),
], ids=["exterior-7", "exterior-11", "cobar-5-w5", "cobar-7-w6"])
def test_reduce_vec_reads_a_class_of_dim_at_most_one_from_its_coboundaries(make):
    # the short path, given the orbit's dim H <= 1, against the representatives'
    # path in a second engine: every kernel vector and representative, one
    # coboundary and a seeded random cocycle combination
    full, short = make(), make()
    p = full.p
    rng = random.Random(11)
    checked = 0
    for (t, w) in full.sector_keys():
        ref, tower = full.tower(t, w), short.tower(t, w)
        for s in ref.degrees:
            dim = full.dim_h(t, w, s)
            if dim > 1:
                continue
            n = ref.dim(s)
            cocycles = [_dense(z, n) for z in ref.cocycle_vectors(s)]
            vecs = cocycles + [_dense(r, n) for r in ref.h_reps(s)]
            vecs += [_dense(r, n) for r in (ref.dmat(s - 1) if s else ()) if r][:1]
            cs = [rng.randrange(p) for _ in cocycles]
            vecs.append([sum(c * z[i] for c, z in zip(cs, cocycles)) % p for i in range(n)])
            for vec in vecs:
                assert tower.reduce_vec(s, vec, dim) == ref.reduce_vec(s, vec), (t, w, s)
            for i, row in enumerate(ref.dmat(s)):
                if row:  # the basis vector e_i is not a cocycle
                    with pytest.raises(ValueError, match="not a cocycle"):
                        tower.reduce_vec(s, [int(i == j) for j in range(n)], dim)
                    break
            assert s not in tower._h_reps
            checked += 1
    assert checked


def test_reduce_vec_refuses_a_nonzero_class_where_the_orbit_has_none():
    engine = CobarEngine(5, weight_bound=5)
    for (t, w) in engine.sector_keys():
        tower = engine.tower(t, w)
        for s in tower.degrees:
            if engine.dim_h(t, w, s) == 1:
                rep = _dense(next(iter(tower.h_reps(s))), tower.dim(s))
                fresh = CobarEngine(5, weight_bound=5).tower(t, w)
                assert fresh.reduce_vec(s, rep, 1) == [1]
                with pytest.raises(ValueError, match="dim H = 0"):
                    fresh.reduce_vec(s, rep, 0)
                return
    raise AssertionError("no sector with dim H = 1")


def test_is_prime_oracle():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_requires_large_prime():
    for build in (
        lambda: check_prime(6),
        lambda: check_prime(3),
        lambda: ExteriorAlgebra(6),
        lambda: TruncatedHopf(6),
        lambda: CobarEngine(4, weight_bound=3),
    ):
        with pytest.raises(ValueError, match="prime required"):
            build()


def test_rref_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = rref(rows, 3, 7)
    assert pivots == [0, 1]
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
    r = len(rref(rows, n, p)[1])
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


def test_b_class_terms_level1_oracle():
    for p in (5, 7):
        for k in (0, 1):
            n = p ** (k + 1)
            expected = []
            for i in range(1, n):
                q = Fraction(comb(n, i), p)
                assert q.denominator == 1
                expected.append(((i, 0, 0), (n - i, 0, 0), q.numerator))
            assert b_class_terms(p, 1, k) == expected


def test_b_class_terms_symmetry():
    for p in (5, 7):
        n = p * p
        coeff = {left[0]: c for left, _, c in b_class_terms(p, 1, 1)}
        assert sorted(coeff) == list(range(1, n))
        for i in range(1, n):
            assert coeff[i] == coeff[n - i]


def test_b_class_terms_level2_oracle():
    for p in (5, 7):
        for k in (0, 1):
            n = p ** (k + 1)
            expected = []
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    if max(a, b, c) == n:
                        continue
                    q = Fraction(comb(n, a) * comb(n - a, b), p)
                    assert q.denominator == 1
                    expected.append(((b, a, 0), (p * b, c, 0), q.numerator))
            assert b_class_terms(p, 2, k) == expected


def test_b_class_terms_rejects_other_levels():
    with pytest.raises(ValueError, match="unsupported level"):
        b_class_terms(7, 3, 0)
