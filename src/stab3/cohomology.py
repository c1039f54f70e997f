"""Sector-by-sector cohomology of the exterior complex.

The complex splits as a direct sum over (internal degree, weight) sectors;
each sector is a finite tower of F_p vector spaces graded by cohomological
degree s.  `SectorTower` holds the generic linear algebra (cocycles,
coboundaries, echelon cohomology representatives, reduction to class
coordinates, bounding-cochain solver).  `SectorEngine` builds one tower per
sector from the three members every engine supplies, the basis sizes
`_counts`, one basis `_sector_basis(t, w, s)` and the integral differential
`_d_of(s, key)` of one basis key; `ExteriorCohomology` here and the cobar
engine in `hopf_cobar` are its two subclasses.

The index shift g_{i,j} -> g_{i,j+1} is an automorphism of both complexes
that multiplies the internal degree by p mod 2(p^3 - 1) and keeps s and w,
so sectors (t, w) and (p t, w) have isomorphic towers.  `SectorEngine.dim_h`
reads dim H^s from the tower of the orbit's smallest sector: `dims_table`
reads its rows so, the other dimension reports are folds of them, and where
dim H^s <= 1 `class_coords` reads a class by its coboundary normal form, with
dim H^s read from the orbit.  The premise is tested key by key in
`tests/test_exterior.py` and `tests/test_cobar.py`, the tables against the
one-tower-per-sector loop in `tests/test_engines.py`, and the short path of
`reduce_vec` against the representatives' in `tests/test_fplinalg.py`.

All bases are deterministic: basis keys are sorted, and reduced row echelon
forms are unique.
"""

from __future__ import annotations

from .exterior import _D, ExteriorAlgebra, ExteriorElement, FULL_MASK, Trigrade
from .fplinalg import sparse_kernel, sparse_rref, sparse_solve, sub_multiple

# The towers use the sparse kernel; `kernel_basis` stays importable from here
# because the benchmark's tracer tests look it up as `cohomology.kernel_basis`.
from .fplinalg import kernel_basis  # noqa: F401


class NotCocycleError(ValueError):
    def __init__(self, x, dx):
        self.element = x
        self.differential = dx
        super().__init__(f"not a cocycle; d(x) = {dx!r}")


class Memo(dict):
    """A dict that fills a missing key k with fill(*args, k) on first use;
    an empty fill is returned but not kept.  Only `[]` fills: `get`, `in`
    and iteration see the keys filled so far."""

    __slots__ = ("_fill", "_args")

    def __init__(self, fill, *args):
        super().__init__()
        self._fill = fill
        self._args = args

    def __missing__(self, key):
        value = self._fill(*self._args, key)
        if value:
            self[key] = value
        return value


def _index_of(bases, s):
    return {k: i for i, k in enumerate(bases[s])}


class SectorTower:
    """Cochain complex of one sector, graded by s, over F_p.

    Parameters: p; bases, a `Memo` s -> sorted list of basis keys that
    answers every degree (empty outside the tower), filled on first use;
    d_of, a function (s, key) -> {key: int} giving the integral differential
    of a basis element in the s+1 basis (`dmat` reduces it mod p); degrees,
    the degrees with a nonempty basis, ascending.  `index` maps s -> {key: position}, also
    filled on first use.

    Matrices, cocycles and representatives are sparse rows {basis index:
    coeff} (see `fplinalg`); `reduce_vec` and `bound_vec` take and return
    dense vectors.
    """

    def __init__(self, p, bases, d_of, degrees):
        self.p = p
        self.bases = bases
        self.index = Memo(_index_of, bases)
        self.degrees = tuple(degrees)
        self._d_of = d_of
        self._dmat = {}
        self._coboundaries = {}
        self._h_reps = {}

    def dim(self, s: int) -> int:
        return len(self.bases[s])

    def dmat(self, s: int):
        """Sparse rows: d-image of each s-basis vector in s+1 coordinates."""
        if s not in self._dmat:
            # degree s is built before s + 1, so a basis cap names the lower one
            p, basis = self.p, self.bases[s]
            tgt_index = self.index[s + 1]
            rows = []
            for key in basis:
                row = {}
                for k2, c in self._d_of(s, key).items():
                    c %= p
                    if c:
                        i = tgt_index.get(k2)
                        if i is None:
                            raise ValueError(
                                f"differential leaves sector: {key!r} -> {k2!r}"
                            )
                        row[i] = c
                rows.append(row)
            self._dmat[s] = rows
        return self._dmat[s]

    def _dmat_columns(self, s: int):
        """Columns of `dmat(s)`: one sparse equation row per (s+1)-basis vector."""
        rows = self.dmat(s)  # before dim(s + 1), as in `dmat`
        cols = [{} for _ in range(self.dim(s + 1))]
        for i, row in enumerate(rows):
            for c, x in row.items():
                cols[c][i] = x
        return cols

    def cocycle_vectors(self, s):
        return sparse_kernel(self._dmat_columns(s), self.dim(s), self.p)

    def _coboundary_rows(self, s):
        """{pivot: row} of the echelon coboundary basis, in pivot order."""
        if s not in self._coboundaries:
            ech, pivots = sparse_rref(self.dmat(s - 1), self.p)
            self._coboundaries[s] = dict(zip(pivots, ech))
        return self._coboundaries[s]

    def _reduce(self, s, v, reps):
        """Reduce v in place by the coboundary rows, then by the {pivot: row}
        `reps` in order; return the rep coefficients.  A coboundary row
        vanishes on the other coboundary pivots, a rep on all earlier pivots,
        so for v in their span these are its coordinates and v ends empty."""
        p = self.p
        bnd = self._coboundary_rows(s)
        for pc, f in [(c, x) for c, x in v.items() if c in bnd]:
            sub_multiple(v, f, bnd[pc], p)
        coeffs = []
        for pc, row in reps.items():
            f = v.get(pc, 0)
            if f:
                sub_multiple(v, f, row, p)
            coeffs.append(f)
        return coeffs

    def h_reps(self, s):
        """Echelon cohomology representatives extending the coboundary space,
        in the order found (a view of the rows, kept by pivot)."""
        if s not in self._h_reps:
            p = self.p
            reps = {}
            for v in self.cocycle_vectors(s):
                self._reduce(s, v, reps)
                if v:
                    pc = min(v)
                    inv = pow(v[pc], p - 2, p)
                    reps[pc] = {k: x * inv % p for k, x in v.items()}
            self._h_reps[s] = reps
        return self._h_reps[s].values()

    def dim_h(self, s) -> int:
        return len(self.h_reps(s))

    def reduce_vec(self, s, vec, dim=None):
        """Class coordinates of a cocycle vector in the h_reps basis.

        Given dim = dim H^s <= 1 (read from the orbit) and no representatives
        yet, it builds none: v is checked to be a cocycle through `_d_of`, and
        its class read by its coboundary normal form v', a multiple of the one
        representative, which is 1 at its first entry: v'[min v']."""
        p = self.p
        v = {i: c % p for i, c in enumerate(vec) if c % p}
        if dim is not None and dim <= 1 and s not in self._h_reps:
            basis, dv = self.bases[s], {}
            for i, c in v.items():
                for key, x in self._d_of(s, basis[i]).items():
                    dv[key] = (dv.get(key, 0) + c * x) % p
            if any(dv.values()):
                raise ValueError("vector not in cocycle span (not a cocycle?)")
            self._reduce(s, v, {})
            if v and not dim:
                raise ValueError(f"nonzero class in degree {s}, where the orbit has dim H = 0")
            return [v[min(v)]] if v else [0] * dim
        self.h_reps(s)  # built once, on the first call
        coeffs = self._reduce(s, v, self._h_reps[s])
        if v:
            raise ValueError("vector not in cocycle span (not a cocycle?)")
        return coeffs

    def bound_vec(self, s, vec):
        """A vector y in degree s-1 with d(y) = vec, or None."""
        return sparse_solve(self._dmat_columns(s - 1), vec, self.dim(s - 1), self.p)


class CohomologyClass:
    """A class in one (s, t, w) sector, by its coordinates."""

    __slots__ = ("sector", "coords")

    def __init__(self, sector: Trigrade, coords):
        self.sector = sector
        self.coords = tuple(coords)

    def is_zero(self) -> bool:
        return not any(self.coords)


class SectorEngine:
    """Sector towers of a (t, w)-graded complex: the contract shared by the
    exterior model and the cobar complex.

    `alg` is an `exterior.FpAlgebra` whose `element` class builds the
    complex's elements, keyed by basis key.  A subclass sets `name`, the
    model label in Massey results, and supplies `_counts`, a list over s of
    {(t, w): nonzero basis size}; `_sector_basis(t, w, s)`, the sorted
    keys of one basis (empty outside the complex); and `_d_of(s, key)`, the
    differential of one basis key as {key: int}, read straight from the
    complex's integral kernel and not yet reduced (`dmat` reduces it mod
    p).  The base derives the sectors and their degrees from `_counts`, and
    gives each tower a `Memo` (kept in `_sector_bases`) that asks
    `_sector_basis` for a degree on first use; on the towers it builds
    element <-> vector conversion, dimension reports, and the Massey
    queries.  `dim_h` rests on the index shift mapping sector (t, w)
    isomorphically onto (p t mod tmod, w), as it does in both complexes: it
    reads dim H^s from one tower per orbit, for each row of `dims_table` (whose
    cochain sizes are each sector's own `_counts`) and for `class_coords`,
    which reads a class by its coboundary normal form where it is <= 1.
    """

    def __init__(self, alg):
        self.alg = alg
        self.p = alg.p
        self._towers = {}
        self._sector_bases = {}
        self._orbit_reps = {}  # t -> the least t' in its orbit, for every t walked

    def sector_keys(self):
        """The (t, w) sectors with a nonempty basis in some degree, sorted."""
        return sorted({key for level in self._counts for key in level})

    def _degrees(self, t, w):
        """The degrees in which sector (t, w) has basis keys, ascending."""
        return [s for s, level in enumerate(self._counts) if (t, w) in level]

    def _sector(self, t, w):
        """The `Memo` s -> sorted basis keys of sector (t, w)."""
        bases = self._sector_bases.get((t, w))
        if bases is None:
            bases = self._sector_bases[t, w] = Memo(self._sector_basis, t, w)
        return bases

    def _check_sector(self, w: int):
        """Hook: reject a sector weight the engine cannot represent."""

    def _element(self, terms):
        """The complex element with the given {basis key: coeff}."""
        return self.alg.element(self.alg, terms)

    def tower(self, t: int, w: int) -> SectorTower:
        key = t, w = (t % self.alg.tmod, w)
        if key not in self._towers:
            self._check_sector(w)
            self._towers[key] = SectorTower(self.p, self._sector(t, w), self._d_of,
                                            self._degrees(t, w))
        return self._towers[key]

    # -- element <-> vector -------------------------------------------------

    def to_vec(self, x, sector: Trigrade):
        idx = self.tower(sector.t, sector.w).index[sector.s]
        vec = [0] * len(idx)
        for key, c in x.terms.items():
            vec[idx[key]] = c
        return vec

    def from_vec(self, vec, sector: Trigrade):
        basis = self.tower(sector.t, sector.w).bases[sector.s]
        return self._element({k: c for k, c in zip(basis, vec) if c})

    # -- queries of the Massey routines --------------------------------------

    def zero(self):
        return self.alg.zero()

    def sector_sum(self, sectors, drop: int) -> Trigrade:
        return Trigrade(
            sum(g.s for g in sectors) - drop,
            sum(g.t for g in sectors) % self.alg.tmod,
            sum(g.w for g in sectors),
        )

    def bar(self, x):
        """x-bar = (-1)^(1 + deg x) x."""
        if x.is_zero() or x.grade_of().s % 2:
            return x
        return (-1) * x

    def dim(self, sector: Trigrade) -> int:
        return self.tower(sector.t, sector.w).dim(sector.s)

    def class_coords(self, x):
        """(sector, class coordinate tuple) of a cocycle; None for zero element."""
        if x.is_zero():
            return None
        sector = x.grade_of()
        t, w, s = sector.t, sector.w, sector.s
        vec = self.to_vec(x, sector)
        return sector, tuple(self.tower(t, w).reduce_vec(s, vec, self.dim_h(t, w, s)))

    # -- global reports -----------------------------------------------------

    def _orbit_tower(self, t, w) -> SectorTower:
        """The tower of the smallest sector of (t, w)'s orbit {t, p t, p^2 t,
        ...} mod tmod at the same w, which `dim_h` reads.  Each orbit is
        walked once per engine, and the least t kept for all its members."""
        tmod = self.alg.tmod
        t %= tmod
        rep = self._orbit_reps.get(t)
        if rep is None:
            orbit, u = [t], t * self.p % tmod
            while u != t:
                orbit.append(u)
                u = u * self.p % tmod
            rep = min(orbit)
            self._orbit_reps.update(dict.fromkeys(orbit, rep))
        return self.tower(rep, w)

    def dim_h(self, t, w, s) -> int:
        """dim H^s of sector (t, w), read from its orbit's tower."""
        return self._orbit_tower(t, w).dim_h(s)

    def dims_table(self, max_s=None):
        """Rows (s, t, w, dim cochains, dim cohomology) over all sectors, for
        the degrees s <= max_s (all degrees when max_s is None).  The sorted
        sectors are walked once, degrees ascending; each row's cochain
        dimension is its sector's own count and its cohomology is read as in
        `dim_h`, once per orbit, so an orbit's tower is built at its first
        (smallest) sector, and only its bases of degrees <= max_s + 1."""
        counts, rows, dims = self._counts, [], {}
        for t, w in self.sector_keys():
            tower = self._orbit_tower(t, w)
            if tower not in dims:
                dims[tower] = [(s, tower.dim_h(s)) for s in tower.degrees
                               if max_s is None or s <= max_s]
            rows += [(s, t, w, counts[s][t, w], dim_h) for s, dim_h in dims[tower]]
        rows.sort()
        return rows

    def euler_report(self):
        """Per-sector Euler characteristics of cochains vs cohomology, sorted
        by (t, w): a fold of `dims_table`, so the first is the sector's own
        counts and the second its orbit representative's tower."""
        chi = {}
        for s, t, w, dim_c, dim_h in self.dims_table():
            chi_c, chi_h = chi.get((t, w), (0, 0))
            sign = (-1) ** s
            chi[t, w] = chi_c + sign * dim_c, chi_h + sign * dim_h
        return [{"t": t, "w": w, "chi_cochains": chi_c, "chi_cohomology": chi_h,
                 "equal": chi_c == chi_h}
                for (t, w), (chi_c, chi_h) in sorted(chi.items())]


class ExteriorCohomology(SectorEngine):
    """Cohomology engine for the exterior complex at a fixed prime."""

    name = "exterior"

    def __init__(self, p: int):
        alg = ExteriorAlgebra(p)
        super().__init__(alg)
        self._masks = masks = {}  # (s, t, w) -> masks, ascending
        for mask, grade in enumerate(alg.mask_grade):
            masks.setdefault(grade, []).append(mask)
        self._counts = [{} for _ in range(FULL_MASK.bit_count() + 1)]
        for (s, t, w), keys in masks.items():
            self._counts[s][t, w] = len(keys)

    def _sector_basis(self, t, w, s):
        return self._masks.get((s, t, w), [])

    def _d_of(self, s, mask):
        return dict(_D[mask])

    # -- class operations ---------------------------------------------------

    def reduce(self, x: ExteriorElement) -> CohomologyClass:
        if x.is_zero():
            return CohomologyClass(Trigrade(0, 0, 0), ())
        dx = x.d()
        if not dx.is_zero():
            raise NotCocycleError(x, dx)
        sector, coords = self.class_coords(x)
        return CohomologyClass(sector, coords)

    def bounding_cochain(self, x: ExteriorElement):
        """y with d(y) = x, or None when x is not a coboundary."""
        if x.is_zero():
            return self.alg.zero()
        sector = x.grade_of()
        tower = self.tower(sector.t, sector.w)
        y = tower.bound_vec(sector.s, self.to_vec(x, sector))
        if y is None:
            return None
        return self.from_vec(y, Trigrade(sector.s - 1, sector.t, sector.w))

    def pair_top(self, x: ExteriorElement) -> int:
        """Coefficient of the canonical top monomial h0h1h2h20h21h22h30h31h32."""
        return x.coefficient(FULL_MASK) % self.p

    def duality_report(self):
        """Compare dim H^s and dim H^{9-s} per total degree (computed, not asserted)."""
        total = [0] * 10
        for (s, _, _, _, dim_h) in self.dims_table():
            total[s] += dim_h
        return {
            "dims": total,
            "symmetric": all(total[s] == total[9 - s] for s in range(10)),
        }
