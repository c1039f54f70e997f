"""Exact linear algebra over a prime field F_p, plus the b-class table.

Internally rows are sparse dicts {col: value} of the nonzero entries: one
elimination kernel, `sparse_rref`, with `sparse_kernel` and `sparse_solve`
on top and `sub_multiple` as the one row update; `SectorTower` keeps its
matrices in this form.  The public API
(`rref`, `kernel_basis`, `solve`, `coordinates`) takes and returns
dense lists of ints mod p.  Reduced row echelon forms are unique, so every
computed basis is reproducible byte-for-byte.  No floating point anywhere.

`sparse_rref` reduces each row in one pass: every pivot column in it is
replaced by that pivot's tail, and a tail is brought to reduced form (free
of every pivot found so far) when it is read, then kept so.  Staleness is
one counter: a tail is stamped with the number of pivots when it is
reduced, and one stamped with fewer is scanned again on its next read.
A tail reads only tails of larger pivots, so they are reduced in post-order
on an explicit stack; recursion would overflow on a chain of 3 000 pivots.
Two regimes meet here.  The cocycle equations are tall and low-rank (2 043
rows of rank 481 at the p = 7 bracket sector (84, 7), s = 2), so most rows
reduce to zero, and each of them used to re-walk the same unreduced tails:
the 3 512 x 2 043 equations at s = 3 take 0.35 s, against 0.78 s for a
per-row queue.  The coboundary rows are wide (2 043 x 3 512 at s = 3, row
form) and take 0.29-0.35 s, against 0.37-0.40 s.  Eager Gauss-Jordan,
which clears each new pivot from every tail at once, was tried and
rejected: as fast on the cobar towers, but it made the wide form
0.57-0.67 s (Python 3.11, 2 vCPU, best of 3 in each of two runs).

`b_class_terms` is the one table of the b-classes b_{1,k}, b_{2,k} that the
cobar model (`hopf_cobar`) and the BP model (`bp_cobar`) both read.
"""

from __future__ import annotations

from math import comb


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


def check_prime(p: int):
    """Raise ValueError unless p is a prime > 3, the primes every model here
    is defined over."""
    if p <= 3 or not is_prime(p):
        raise ValueError(f"prime required: p must be a prime > 3, got {p}")


def sparse_rref(rows, p):
    """Reduced row echelon form of sparse rows {col: value}: (rows, pivots).

    Rows are taken sparsest first (less fill-in), and each is reduced in
    one pass: every pivot column it holds is replaced by that pivot's tail,
    brought first to reduced form (free of every pivot found so far) by
    `_refresh`.  A row left nonzero gets its first column as a new pivot;
    its tail holds no pivot column, so it is stamped fresh.  Back-
    substitution from the last pivot then clears what later pivots left in
    the earlier tails.  Output rows have leading entry 1, sorted by pivot;
    being unique, they do not depend on row order.  Input rows are not
    modified.
    """
    tails = {}  # pivot col -> entries right of the pivot (the pivot is 1)
    stamp = {}  # pivot col -> len(tails) when its tail was last reduced
    for row in sorted(rows, key=len):
        n = len(tails)
        v = dict(row)
        for c in [c for c in v if c in tails]:
            f = v.pop(c) % p
            if not f:
                continue
            if stamp[c] < n:
                if tails.keys().isdisjoint(tails[c]):  # stale, but no new pivot in it
                    stamp[c] = n
                else:
                    _refresh(c, tails, stamp, p)
            for k, x in tails[c].items():
                if k in v:
                    v[k] -= f * x
                else:
                    v[k] = -f * x
        v = {k: x % p for k, x in v.items() if x % p}
        if v:
            c = min(v)
            inv = pow(v.pop(c), p - 2, p)
            tails[c] = {k: x * inv % p for k, x in v.items()}
            stamp[c] = len(tails)
    pivots = sorted(tails)
    for c in reversed(pivots):
        tail = tails[c]
        for k in [k for k in tail if k in tails]:
            sub_multiple(tail, tail.pop(k), tails[k], p)
    return [{c: 1, **tails[c]} for c in pivots], pivots


def _refresh(c, tails, stamp, p):
    """Reduce the tail of pivot c by every pivot found so far, and stamp it.
    A tail only holds columns right of its pivot, so the stale tails it
    reads are reduced first, in post-order on an explicit stack: the chain
    of tails can be as long as the rank."""
    n = len(tails)
    stack = [c]
    while stack:
        c = stack[-1]
        tail = tails[c]
        found = [k for k in tail if k in tails]
        stale = [k for k in found if stamp[k] < n]
        if stale:
            stack.extend(stale)
            continue
        stack.pop()
        for k in found:
            sub_multiple(tail, tail.pop(k), tails[k], p)
        stamp[c] = n


def sub_multiple(v, f, row, p):
    """v -= f * row over F_p, in place on the sparse vector v."""
    for k, x in row.items():
        y = (v.get(k, 0) - f * x) % p
        if y:
            v[k] = y
        else:
            v.pop(k, None)


def sparse_kernel(rows, ncols, p):
    """Basis of {x : M x = 0} for sparse equation rows, as sparse vectors.

    One vector per free column, in ascending column order, with the free
    coordinate set to 1.
    """
    ech, pivots = sparse_rref(rows, p)
    basis = {f: {f: 1} for f in range(ncols)}
    for pc in pivots:
        del basis[pc]
    for r, pc in zip(ech, pivots):
        for f, x in r.items():
            if f != pc:
                basis[f][pc] = -x % p
    return list(basis.values())


def sparse_solve(rows, rhs, ncols, p):
    """One solution x (a list) of M x = rhs for sparse rows, or None if
    inconsistent.  Free variables are set to 0."""
    aug = [{**r, ncols: b} if b % p else r for r, b in zip(rows, rhs)]
    ech, pivots = sparse_rref(aug, p)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for r, pc in zip(ech, pivots):
        x[pc] = r.get(ncols, 0)
    return x


def _sparse(rows):
    return [{i: x for i, x in enumerate(r) if x} for r in rows]


def to_dense(v, n):
    """The dense list of length n of a sparse vector."""
    return [v.get(i, 0) for i in range(n)]


def rref(rows, ncols, p):
    """Reduced row echelon form of dense rows: (echelon_rows, pivot_cols).

    Echelon rows have leading entry 1, zeros above and below each pivot;
    zero rows are dropped.
    """
    ech, pivots = sparse_rref(_sparse(rows), p)
    return [to_dense(r, ncols) for r in ech], pivots


def kernel_basis(rows, ncols, p):
    """Basis of {x : M x = 0} where the rows of M are the given equations.

    Returns a deterministic list of vectors of length ncols (one per free
    column, in ascending column order, free coordinate set to 1).
    """
    return [to_dense(v, ncols) for v in sparse_kernel(_sparse(rows), ncols, p)]


def solve(rows, rhs, p):
    """One solution x of M x = rhs, or None if inconsistent.

    Free variables are set to 0, so the result is deterministic.
    """
    return sparse_solve(_sparse(rows), rhs, len(rows[0]) if rows else 0, p)


def coordinates(v, basis, p):
    """Coordinates of v in the given list of basis vectors, or None.

    Solves sum_i c_i * basis[i] = v exactly; returns None when v is not in
    the span (used downstream to detect non-cocycles and non-exactness).
    """
    if not basis:
        return [] if not any(x % p for x in v) else None
    return solve(list(zip(*basis)), v, p)


def b_class_terms(p: int, level: int, k: int):
    """Terms (left, right, c) of the 2-cochain b_{level,k}, n = p^(k+1):
    (t1, t2, t3) exponent triples and the exact integer c.  Level 1: (1/p)
    C(n, i) on t1^i | t1^(n-i), 0 < i < n.  Level 2: (1/p) (n; a, b, c) on
    t2^a t1^b | t1^(p b) t2^c, a + b + c = n without the corners, a then b
    ascending.  Each binomial and multinomial is checked divisible by p."""
    n = p ** (k + 1)
    if level == 1:
        terms = (((i, 0, 0), (n - i, 0, 0), comb(n, i)) for i in range(1, n))
    elif level == 2:
        terms = (((b, a, 0), (p * b, n - a - b, 0), comb(n, a) * comb(n - a, b))
                 for a in range(n + 1) for b in range(n + 1 - a) if n not in (a, b, n - a - b))
    else:
        raise ValueError(f"unsupported level {level}")
    out = []
    for left, right, m in terms:
        c, r = divmod(m, p)
        if r:
            raise ArithmeticError(f"coefficient {m} of b_({level},{k}) not divisible by p")
        out.append((left, right, c))
    return out
