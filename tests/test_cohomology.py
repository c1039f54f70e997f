"""Cohomology engine: dimension oracles, reductions, pairings, Massey."""

import itertools

import pytest

from stab3.cohomology import ExteriorCohomology, NotCocycleError
from stab3.exterior import FULL_MASK, ExteriorElement, Trigrade
from stab3.fplinalg import to_dense
from stab3 import fplinalg, massey
from stab3.massey import MasseyError, class_in_coset, massey_from_system, massey_product
from stab3.named import NamedClasses

ENGINE = ExteriorCohomology(7)
NC = NamedClasses(ENGINE)


def test_total_dimension_oracle():
    # Poincare-series oracle: dim H^s totals for the rank-3 exterior model.
    totals = [0] * 10
    for (s, t, w, dim_c, dim_h) in ENGINE.dims_table():
        totals[s] += dim_h
    assert totals == [1, 4, 12, 25, 34, 34, 25, 12, 4, 1]


def test_d_of_reads_the_integral_differential():
    p = ENGINE.p
    for mask in range(FULL_MASK + 1):
        d = ENGINE._d_of(mask.bit_count(), mask)
        reduced = {k: c % p for k, c in d.items() if c % p}
        assert reduced == ExteriorElement(ENGINE.alg, {mask: 1}).d().terms, mask


def test_degree_one_classes():
    names = [n for n in ("h0", "h1", "h2", "zeta3") if not ENGINE.reduce(NC[n]).is_zero()]
    assert len(names) == 4


def test_reduce_rejects_non_cocycle():
    with pytest.raises(NotCocycleError):
        ENGINE.reduce(ENGINE.alg.gen(2, 0))


def test_bounding_cochain_roundtrip():
    x = NC["h0"] * NC["k1"]
    y = ENGINE.bounding_cochain(x)
    assert y is not None
    assert (y.d() - x).is_zero()


def test_bounding_cochain_none_for_nonzero_class():
    assert ENGINE.bounding_cochain(NC["b0"]) is None


def test_pair_top_normalization():
    top = ENGINE.alg.element(ENGINE.alg, {FULL_MASK: 1})
    assert ENGINE.pair_top(top) == 1


def test_euler_characteristic_every_sector():
    for row in ENGINE.euler_report():
        assert row["equal"], row


def test_duality_symmetric():
    rep = ENGINE.duality_report()
    assert rep["symmetric"], rep["dims"]


def _class_representatives(engine, s, t, w):
    """The echelon representatives of sector (s, t, w), as elements."""
    tower = engine.tower(t, w)
    sector = Trigrade(s, t, w)
    return [engine.from_vec(to_dense(rep, tower.dim(s)), sector) for rep in tower.h_reps(s)]


def test_cup_representative_independence():
    # sector (s=3, t=0, w=6) carries both a nonzero class and coboundaries
    x = _class_representatives(ENGINE, 3, 0, 6)[0]
    sector = x.grade_of()
    tower = ENGINE.tower(sector.t, sector.w)
    first = next(iter(tower._coboundary_rows(sector.s).values()))
    bound = ENGINE.from_vec(to_dense(first, tower.dim(sector.s)), sector)
    x2 = x + bound
    assert ENGINE.reduce(x).coords == ENGINE.reduce(x2).coords
    y = NC["h0"]
    c1 = ENGINE.reduce(x * y)
    c2 = ENGINE.reduce(x2 * y)
    assert tuple(c1.sector) == tuple(c2.sector)
    assert c1.coords == c2.coords


# -- Massey products --------------------------------------------------------


def test_fourfold_massey_contains_b2():
    res = massey_product(ENGINE, [NC["h0"], NC["h1"], NC["h2"], NC["h0"]])
    cls = ENGINE.reduce(NC["b2"])
    assert tuple(cls.sector) == tuple(res["value_sector"])
    plus = class_in_coset(cls.coords, res, 7)
    minus = class_in_coset(tuple((-c) % 7 for c in cls.coords), res, 7)
    assert plus or minus


def test_fourfold_massey_contains_b0():
    res = massey_product(ENGINE, [NC["h1"], NC["h2"], NC["h0"], NC["h1"]])
    cls = ENGINE.reduce(NC["b0"])
    assert class_in_coset(cls.coords, res, 7) or class_in_coset(
        tuple((-c) % 7 for c in cls.coords), res, 7
    )


def test_threefold_massey_h0_cubed_vanishes():
    res = massey_product(ENGINE, [NC["h0"], NC["h0"], NC["h0"]])
    assert not any(res["value_coords"])


def test_massey_coset_stable_under_system_perturbation():
    # Changing the defining system by a kernel vector moves the value only
    # inside the reported indeterminacy span.
    res = massey_product(ENGINE, [NC["h0"], NC["h1"], NC["h2"], NC["h0"]])
    base = {"value_coords": res["value_coords"], "indeterminacy": res["indeterminacy"]}
    # recompute: deterministic solver must reproduce the same value
    res2 = massey_product(ENGINE, [NC["h0"], NC["h1"], NC["h2"], NC["h0"]])
    assert res2["value_coords"] == base["value_coords"]
    # the value shifted by an indeterminacy vector is still in the coset
    for vec in res["indeterminacy"]:
        shifted = tuple((a + b) % 7 for a, b in zip(res["value_coords"], vec))
        assert class_in_coset(shifted, res, 7)


def test_massey_rejects_a_solve_that_is_not_a_solution(monkeypatch):
    # each solved defining system is checked identity by identity, so a
    # fault in the linear encoding or the solver cannot yield a class
    real_solve = massey.solve

    def off_by_one_column(rows, rhs, p):
        x = real_solve(rows, rhs, p)
        c = next(c for c in range(len(x)) if any(r[c] for r in rows))
        x[c] = (x[c] + 1) % p  # M x now differs from rhs by column c
        return x

    monkeypatch.setattr(massey, "solve", off_by_one_column)
    with pytest.raises(MasseyError, match="defining-system identity"):
        massey_product(ENGINE, [NC["h0"], NC["h1"], NC["h2"], NC["h0"]])


def test_massey_rejects_nonvanishing_consecutive_products():
    with pytest.raises(MasseyError):
        massey_product(ENGINE, [NC["b0"], NC["b0"], NC["b0"]])


# -- oracle for the Massey linear system -------------------------------------

MASSEY_INPUTS = [names for n in (3, 4)
                 for names in itertools.product(("h0", "h1", "h2", "k0", "k1"), repeat=n)]


def _assembled_system(engine, reps):
    """The Massey system (rows, rhs) assembled block by block: d of each
    interior basis element, and each product with a fixed neighbour, with the
    bar sign written out.  `massey_product` instead evaluates the identity."""
    n = len(reps)
    p = engine.p
    sectors = massey._massey_layout(engine, reps, n)
    fixed = {(i, i + 1): reps[i] for i in range(n)}
    unknowns = [(i, j) for i in range(n) for j in range(i + 2, n + 1) if (i, j) != (0, n)]

    def basis_elements(sector):
        return [engine.from_vec([int(c == k) for k in range(engine.dim(sector))], sector)
                for c in range(engine.dim(sector))]

    offsets = {}
    total = 0
    for u in unknowns:
        offsets[u] = total
        total += engine.dim(sectors[u])

    rows = []
    rhs = []
    for (i, j) in unknowns:
        tgt = sectors[(i, j)]
        tgt_up = Trigrade(tgt.s + 1, tgt.t, tgt.w)
        m_up = engine.dim(tgt_up)
        block_rows = [[0] * total for _ in range(m_up)]
        block_rhs = [0] * m_up

        def add_vec(vec, col=None, sign=1):
            for r in range(m_up):
                if vec[r]:
                    if col is None:
                        block_rhs[r] = (block_rhs[r] + sign * vec[r]) % p
                    else:
                        block_rows[r][col] = (block_rows[r][col] + sign * vec[r]) % p

        # d(u_ij) columns
        off = offsets[(i, j)]
        for c, e in enumerate(basis_elements(sectors[(i, j)])):
            de = e.d()
            if not de.is_zero():
                add_vec(engine.to_vec(de, tgt_up), col=off + c)

        # minus sum over middles of bar(a_im) * a_mj
        for m in range(i + 1, j):
            left_unknown = (i, m) in offsets
            right_unknown = (m, j) in offsets
            if left_unknown and right_unknown:
                raise MasseyError("nonlinear constraint (n too large)")
            if left_unknown:
                sgn = 1 if (1 + sectors[(i, m)].s) % 2 == 0 else -1
                off_l = offsets[(i, m)]
                for c, e in enumerate(basis_elements(sectors[(i, m)])):
                    prod = e * fixed[(m, j)]
                    if not prod.is_zero():
                        add_vec(engine.to_vec(prod, tgt_up), col=off_l + c, sign=-sgn)
            elif right_unknown:
                left = engine.bar(fixed[(i, m)])
                off_r = offsets[(m, j)]
                for c, e in enumerate(basis_elements(sectors[(m, j)])):
                    prod = left * e
                    if not prod.is_zero():
                        add_vec(engine.to_vec(prod, tgt_up), col=off_r + c, sign=-1)
            else:
                prod = engine.bar(fixed[(i, m)]) * fixed[(m, j)]
                if not prod.is_zero():
                    add_vec(engine.to_vec(prod, tgt_up), sign=1)

        rows.extend(block_rows)
        rhs.extend(block_rhs)

    return rows, rhs


def test_massey_system_matches_block_assembly(monkeypatch):
    captured = []
    real_solve = massey.solve

    def capture(rows, rhs, p):
        captured.append((rows, rhs))
        return real_solve(rows, rhs, p)

    monkeypatch.setattr(massey, "solve", capture)
    solved = 0
    for names in MASSEY_INPUTS:
        reps = [NC[name] for name in names]
        captured.clear()
        try:
            massey_product(ENGINE, reps)
        except MasseyError as exc:
            if "does not vanish" in str(exc):
                assert not captured
                continue
        rows, rhs = _assembled_system(ENGINE, reps)
        assert captured == ([(rows, rhs)] if rows else []), names
        solved += bool(captured)
    assert solved == 416  # the other inputs have a nonvanishing consecutive product


def test_massey_inconsistent_system():
    with pytest.raises(MasseyError, match="no defining system"):
        massey_product(ENGINE, [NC["h0"], NC["h0"], NC["h0"], NC["h1"]])


# -- oracle for the Massey indeterminacy -------------------------------------


def _difference_indeterminacy(engine, reps, part, null):
    """The indeterminacy spanned by the first, second and cross differences
    of the value map V along the kernel basis: V(u + n_k) - V(u),
    V(u + 2 n_k) - 2 V(u + n_k) + V(u) and
    V(u + n_a + n_b) - V(u + n_a) - V(u + n_b) + V(u), a < b.
    `massey_product` instead spans the plain differences V(u + ...) - V(u)."""
    n = len(reps)
    p = engine.p
    sectors = massey._massey_layout(engine, reps, n)
    unknowns = [(i, j) for i in range(n) for j in range(i + 2, n + 1) if (i, j) != (0, n)]
    value_sector = engine.sector_sum([r.grade_of() for r in reps], n - 2)

    def value_coords(uvec):
        entries = {(i, i + 1): reps[i] for i in range(n)}
        off = 0
        for u in unknowns:
            d = engine.dim(sectors[u])
            entries[u] = engine.from_vec(uvec[off : off + d], sectors[u])
            off += d
        cc = engine.class_coords(massey_from_system(engine, entries, n))
        if cc is None:
            return (0,) * engine.tower(value_sector.t, value_sector.w).dim_h(value_sector.s)
        return cc[1]

    def addv(a, b, scale=1):
        return [(x + scale * y) % p for x, y in zip(a, b)]

    base = list(value_coords(part))
    single = [value_coords(addv(part, nk)) for nk in null]
    diffs = []
    for nk, ck in zip(null, single):
        diffs.append([(x - y) % p for x, y in zip(ck, base)])
        c2 = value_coords(addv(part, nk, 2))
        diffs.append([(x - 2 * y + z) % p for x, y, z in zip(c2, ck, base)])
    for a in range(len(null)):
        for b in range(a + 1, len(null)):
            cab = value_coords(addv(addv(part, null[a]), null[b]))
            diffs.append([(x - y - z + w) % p
                          for x, y, z, w in zip(cab, single[a], single[b], base)])
    if not base:
        return []
    indet, _ = fplinalg.rref([d for d in diffs if any(d)], len(base), p)
    return [tuple(r) for r in indet]


def test_massey_indeterminacy_matches_difference_oracle(monkeypatch):
    # The plain differences V(u + n_a) - V(u) and V(u + n_a + n_b) - V(u),
    # a <= b, span what the first, second and cross differences span (p odd),
    # with as many evaluations of the value map.
    seen = {}

    def capture(name, real):
        def wrapped(*args):
            seen[name] = out = real(*args)
            return out
        return wrapped

    def count_values(*args):
        seen["values"] += 1
        return massey_from_system(*args)

    monkeypatch.setattr(massey, "solve", capture("part", massey.solve))
    monkeypatch.setattr(massey, "kernel_basis", capture("null", massey.kernel_basis))
    monkeypatch.setattr(massey, "massey_from_system", count_values)
    kernel_dims = []
    for names in MASSEY_INPUTS:
        reps = [NC[name] for name in names]
        seen.clear()
        seen["values"] = 0
        try:
            res = massey_product(ENGINE, reps)
        except MasseyError:
            continue
        part, null = seen.get("part", []), seen.get("null", [])
        k = len(null)
        assert res["kernel_dim"] == k
        assert seen["values"] == 1 + 2 * k + k * (k - 1) // 2, names
        kernel_dims.append(k)
        assert res["indeterminacy"] == _difference_indeterminacy(ENGINE, reps, part, null), names
    assert len(kernel_dims) == 276 and max(kernel_dims) >= 2  # cross differences occur
