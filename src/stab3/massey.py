"""Massey products via explicit defining systems over a sector complex.

Works over any `cohomology.SectorEngine` (the exterior cohomology engine and
the cobar engine): the engine supplies the per-(t, w) `SectorTower`s,
element <-> vector conversion, `bar`, `sector_sum`, `dim` and
`class_coords`.  Conventions: x-bar = (-1)^(1 + deg x) * x, the engine's
`bar`; the identity at (i, j) is d(a_ij) = sum_{i<m<j} a-bar_{i,m} a_{m,j}
(`_bar_sum`), and the product representative is the same sum at (0, n).

For n in {3, 4} no identity multiplies two interior entries, so the
residuals r(u) = [d(a_ij) - sum a-bar_{i,m} a_{m,j}] over the interior
entries are affine in their joint coordinate vector u.  `massey_product`
builds its F_p system by evaluating them: column c is r(e_c) - r(0), the
right-hand side -r(0).  Only the identities that read column c's entry are
evaluated for it; its other rows are zero.  A single solve finds a defining
system or proves none exists, and `massey_from_system` checks the same
identities on every system it evaluates.  The value map V is quadratic on
the affine solution space part + span(n_1, ..., n_K), so the attainable
value differences span its linear and quadratic parts.  For p odd these
are spanned by V(part + n_a) - V(part) and V(part + n_a + n_b) - V(part),
a <= b, which is the reported indeterminacy subspace.
"""

from __future__ import annotations

from .cohomology import Trigrade
from .fplinalg import coordinates, kernel_basis, rref, solve


class MasseyError(ValueError):
    pass


def _bar_sum(engine, entries, i, j):
    """sum_{i<m<j} bar(a_im) a_mj: the right side of the identity at (i, j)."""
    out = engine.zero()
    for m in range(i + 1, j):
        out = out + engine.bar(entries[(i, m)]) * entries[(m, j)]
    return out


def _massey_layout(engine, reps, n):
    """Sectors for every triangular entry (i, j), 0 <= i < j <= n."""
    in_sectors = [None] + [r.grade_of() for r in reps]
    sector = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            sector[(i, j)] = engine.sector_sum(in_sectors[i + 1 : j + 1], j - i - 1)
    return sector


def massey_product(engine, reps):
    """n-fold Massey product of cocycle representatives, n in {3, 4}.

    Returns a dict with the value's class data, the indeterminacy span
    (list of class-coordinate vectors in the value sector), the defining
    system, and the engine's model name.  Raises MasseyError when consecutive
    products do not vanish or no defining system exists, or when a solved
    system fails an identity (checked by `massey_from_system`).
    """
    n = len(reps)
    if n not in (3, 4):
        raise MasseyError(f"only 3- and 4-fold products supported, got {n}")
    p = engine.p
    for r in reps:
        if not r.d().is_zero():
            raise MasseyError("input representative is not a cocycle")
    sectors = _massey_layout(engine, reps, n)
    fixed = {(i, i + 1): reps[i] for i in range(n)}
    unknowns = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n + 1)
        if (i, j) != (0, n)
    ]

    for i in range(n - 1):
        prod = engine.bar(fixed[(i, i + 1)]) * fixed[(i + 1, i + 2)]
        cc = engine.class_coords(prod)
        if cc is not None and any(cc[1]):
            raise MasseyError(f"product of inputs {i},{i+1} does not vanish")

    offsets = {}
    total = 0
    for u in unknowns:
        offsets[u] = total
        total += engine.dim(sectors[u])

    def entries_at(uvec):
        out = dict(fixed)
        for (i, j) in unknowns:
            off = offsets[(i, j)]
            d = engine.dim(sectors[(i, j)])
            out[(i, j)] = engine.from_vec(uvec[off : off + d], sectors[(i, j)])
        return out

    def residual(entries, i, j):
        """d(a_ij) - sum bar(a_im) a_mj as a vector in the sector above a_ij."""
        s, t, w = sectors[(i, j)]
        r = entries[(i, j)].d() - _bar_sum(engine, entries, i, j)
        return engine.to_vec(r, Trigrade(s + 1, t, w))

    # --- joint linear system: the residual is affine in the unknowns -------
    # Entry (a, b) occurs only in the identities at (a, b), at (a, j) for
    # j > b and at (i, b) for i < a; its columns are zero in every other row.
    base = entries_at([0] * total)
    r0 = {u: residual(base, *u) for u in unknowns}
    cols = []
    for (a, b) in unknowns:
        dim = engine.dim(sectors[(a, b)])
        for k in range(dim):
            entries = dict(base)
            entries[(a, b)] = engine.from_vec([int(x == k) for x in range(dim)], sectors[(a, b)])
            col = []
            for (i, j) in unknowns:
                if (i, j) == (a, b) or (i == a and j > b) or (j == b and i < a):
                    col += [(x - y) % p for x, y in zip(residual(entries, i, j), r0[(i, j)])]
                else:
                    col += [0] * len(r0[(i, j)])
            cols.append(col)
    rhs = [-x % p for u in unknowns for x in r0[u]]
    rows = [[col[r] for col in cols] for r in range(len(rhs))]

    part = solve(rows, rhs, p) if rows else []
    if part is None:
        raise MasseyError("no defining system (linear system inconsistent)")
    null = kernel_basis(rows, total, p) if total else []

    value_sector = engine.sector_sum([r.grade_of() for r in reps], n - 2)

    def value_coords(uvec):
        cc = engine.class_coords(massey_from_system(engine, entries_at(uvec), n))
        if cc is None:
            tower = engine.tower(value_sector.t, value_sector.w)
            return (0,) * tower.dim_h(value_sector.s)
        return cc[1]

    c0 = value_coords(part)

    def value_diff(*ns):
        """V(part + sum of ns) - V(part), in class coordinates."""
        u = part
        for nk in ns:
            u = [(x + y) % p for x, y in zip(u, nk)]
        return [(x - y) % p for x, y in zip(value_coords(u), c0)]

    diffs = [value_diff(na) for na in null]
    diffs += [value_diff(na, nb) for a, na in enumerate(null) for nb in null[a:]]
    indet, _ = rref([d for d in diffs if any(d)], len(c0), p) if c0 else ([], [])

    return {
        "model": engine.name,
        "value_sector": value_sector,
        "value_coords": tuple(c0),
        "indeterminacy": [tuple(r) for r in indet],
        "defining_system": entries_at(part),
        "kernel_dim": len(null),
    }


def class_in_coset(target_coords, result, p):
    """Is target in value + indeterminacy span?"""
    diff = [(a - b) % p for a, b in zip(target_coords, result["value_coords"])]
    if not any(diff):
        return True
    return coordinates(diff, result["indeterminacy"], p) is not None


def massey_from_system(engine, entries, n):
    """Validate an explicit defining system and return its value element.

    `entries` maps (i, j) for 0 <= i < j <= n, (i, j) != (0, n), to cochains.
    Every identity d(a_ij) = sum bar(a_im) a_mj is checked exactly; the
    value is the same sum at (0, n).
    """
    for (i, j), a in entries.items():
        if j - i >= 2 and not (a.d() - _bar_sum(engine, entries, i, j)).is_zero():
            raise MasseyError(f"defining-system identity fails at entry {(i, j)}")
    val = _bar_sum(engine, entries, 0, n)
    if not val.d().is_zero():
        raise MasseyError("value is not a cocycle")
    return val
