"""Exact linear algebra over a prime field F_p, plus exact binomial helpers.

All routines use Gaussian elimination over F_p with deterministic pivoting
(first nonzero column, lowest row) so that computed bases are reproducible
byte-for-byte between runs.  No floating point anywhere.

Vectors are lists of ints reduced mod p; matrices are lists of row lists.
"""

from __future__ import annotations

from math import comb, factorial


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The prime field F_p for a prime p > 3."""

    __slots__ = ("p",)

    def __init__(self, p: int = 7):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p <= 3:
            raise ValueError(f"prime must exceed 3, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def rref(rows, ncols, p):
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


def rank(rows, ncols, p) -> int:
    return len(rref(rows, ncols, p)[0])


def kernel_basis(rows, ncols, p):
    """Basis of {x : M x = 0} where the rows of M are the given equations.

    Returns a deterministic list of vectors of length ncols (one per free
    column, in ascending column order, free coordinate set to 1).
    """
    ech, pivots = rref(rows, ncols, p)
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


def solve(rows, rhs, p):
    """One solution x of M x = rhs, or None if inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    if not rows:
        return [0] * ncols if not any(b % p for b in rhs) else None
    ech, pivots = rref(aug, ncols + 1, p)
    x = [0] * ncols
    for r, pc in zip(ech, pivots):
        if pc == ncols:
            return None
        x[pc] = r[ncols]
    return x


def coordinates(v, basis, p):
    """Coordinates of v in the given list of basis vectors, or None.

    Solves sum_i c_i * basis[i] = v exactly; returns None when v is not in
    the span (used downstream to detect non-cocycles and non-exactness).
    """
    if not basis:
        return [] if not any(x % p for x in v) else None
    n = len(basis[0])
    rows = [[basis[i][r] % p for i in range(len(basis))] for r in range(n)]
    return solve(rows, list(v), p)


def binom_over_p(k: int, i: int, p: int) -> int:
    """(1/p) * C(p^(k+1), i) mod p for 0 < i < p^(k+1).

    Computed by exact big-integer arithmetic: C(p^(k+1), i) is always
    divisible by p in this range; one exact division, then reduction.  When
    the binomial is divisible by a higher power of p the result is 0.
    """
    n = p ** (k + 1)
    if not 0 < i < n:
        raise ValueError(f"index {i} outside (0, {n})")
    c = comb(n, i)
    q, r = divmod(c, p)
    if r:
        raise ArithmeticError("binomial not divisible by p")  # unreachable
    return q % p


def multinomials_over_p(n: int, p: int):
    """(a, b, c, (1/p) * (n; a, b, c) mod p) over a + b + c = n, corners
    (a, b or c equal to n) excluded, for the nonzero coefficients only.

    For n a power of p every non-corner multinomial is divisible by p; the
    order is a ascending, then b ascending.
    """
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            if n in (a, b, c):
                continue
            mult = factorial(n) // (factorial(a) * factorial(b) * factorial(c))
            coeff = (mult // p) % p
            if coeff:
                yield a, b, c, coeff
