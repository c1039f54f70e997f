"""Sector-by-sector cohomology of the exterior complex.

The complex splits as a direct sum over (internal degree, weight) sectors;
each sector is a finite tower of F_p vector spaces graded by cohomological
degree s.  `SectorTower` holds the generic linear algebra (cocycles,
coboundaries, echelon cohomology representatives, reduction to class
coordinates, bounding-cochain solver).  `SectorEngine` builds one tower per
sector from a basis and a differential; `ExteriorCohomology` here and the
cobar engine in `hopf_cobar` are its two subclasses.

All bases are deterministic: basis keys are sorted, and every echelon
computation uses the deterministic pivoting of `fplinalg`.
"""

from __future__ import annotations

from .exterior import ExteriorAlgebra, ExteriorElement, FULL_MASK, Trigrade
from .fplinalg import kernel_basis, solve


class NotCocycleError(ValueError):
    def __init__(self, x, dx):
        self.element = x
        self.differential = dx
        super().__init__(f"not a cocycle; d(x) = {dx!r}")


def _transpose(rows, ncols):
    return [[r[c] for r in rows] for c in range(ncols)]


class SectorTower:
    """Cochain complex of one sector, graded by s, over F_p.

    Parameters: p; bases, a dict s -> sorted list of basis keys; d_of, a
    function (s, key) -> dict key -> coeff giving the differential of a
    basis element in the s+1 basis.  Degrees outside `bases` are zero.
    """

    def __init__(self, p, bases, d_of):
        self.p = p
        self.bases = {s: list(b) for s, b in bases.items() if b}
        self.index = {s: {k: i for i, k in enumerate(b)} for s, b in self.bases.items()}
        self._d_of = d_of
        self._dmat = {}
        self._cocycles = {}
        self._coboundaries = {}
        self._h_reps = {}

    def dim(self, s: int) -> int:
        return len(self.bases.get(s, ()))

    def dmat(self, s: int):
        """Rows: d-image of each s-basis vector in s+1 coordinates."""
        if s not in self._dmat:
            src = self.bases.get(s, [])
            tgt_index = self.index.get(s + 1, {})
            ncols = len(tgt_index)
            rows = []
            for key in src:
                row = [0] * ncols
                for k2, c in self._d_of(s, key).items():
                    if c % self.p:
                        if k2 not in tgt_index:
                            raise ValueError(
                                f"differential leaves sector: {key!r} -> {k2!r}"
                            )
                        row[tgt_index[k2]] = c % self.p
                rows.append(row)
            self._dmat[s] = rows
        return self._dmat[s]

    def apply_d(self, s, vec):
        mat = self.dmat(s)
        ncols = self.dim(s + 1)
        out = [0] * ncols
        for xi, row in zip(vec, mat):
            if xi:
                for c in range(ncols):
                    if row[c]:
                        out[c] = (out[c] + xi * row[c]) % self.p
        return out

    def cocycle_vectors(self, s):
        if s not in self._cocycles:
            mat = self.dmat(s)
            n = self.dim(s)
            m = self.dim(s + 1)
            if m == 0:
                basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            else:
                basis = kernel_basis(_transpose(mat, m), n, self.p)
            self._cocycles[s] = basis
        return self._cocycles[s]

    def coboundary_vectors(self, s):
        if s not in self._coboundaries:
            if (s - 1) not in self.bases or self.dim(s) == 0:
                self._coboundaries[s] = []
            else:
                from .fplinalg import rref

                mat = self.dmat(s - 1)
                ech, _ = rref(mat, self.dim(s), self.p)
                self._coboundaries[s] = ech
        return self._coboundaries[s]

    def h_reps(self, s):
        """Echelon cohomology representatives extending the coboundary space."""
        if s not in self._h_reps:
            p = self.p
            rows = [list(r) for r in self.coboundary_vectors(s)]
            pivots = [next(i for i, x in enumerate(r) if x) for r in rows]
            reps = []
            for z in self.cocycle_vectors(s):
                v = list(z)
                for r, pc in zip(rows, pivots):
                    if v[pc]:
                        f = v[pc]
                        v = [(a - f * b) % p for a, b in zip(v, r)]
                if any(v):
                    pc = next(i for i, x in enumerate(v) if x)
                    inv = pow(v[pc], p - 2, p)
                    v = [(x * inv) % p for x in v]
                    rows.append(v)
                    pivots.append(pc)
                    reps.append(v)
            self._h_reps[s] = reps
        return self._h_reps[s]

    def dim_h(self, s) -> int:
        return len(self.h_reps(s))

    def is_cocycle_vec(self, s, vec) -> bool:
        return not any(self.apply_d(s, vec))

    def reduce_vec(self, s, vec):
        """Class coordinates of a cocycle vector in the h_reps basis."""
        reps = self.h_reps(s)
        bnd = self.coboundary_vectors(s)
        from .fplinalg import coordinates

        span = list(bnd) + list(reps)
        coords = coordinates(vec, span, self.p) if span else ([] if not any(vec) else None)
        if coords is None:
            raise ValueError("vector not in cocycle span (not a cocycle?)")
        return coords[len(bnd):]

    def bound_vec(self, s, vec):
        """A vector y in degree s-1 with d(y) = vec, or None."""
        if (s - 1) not in self.bases:
            return None if any(vec) else []
        mat = self.dmat(s - 1)
        m = self.dim(s)
        return solve(_transpose(mat, m), vec, self.p)


class CohomologyClass:
    """A class in one (s, t, w) sector: coordinates plus a representative."""

    __slots__ = ("sector", "coords", "representative")

    def __init__(self, sector: Trigrade, coords, representative):
        self.sector = sector
        self.coords = tuple(coords)
        self.representative = representative

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.sector == other.sector
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.sector, self.coords))

    def __repr__(self):
        return f"CohomologyClass(sector={tuple(self.sector)}, coords={self.coords})"


class SectorEngine:
    """Sector towers of a (t, w)-graded complex: the contract shared by the
    exterior model and the cobar complex.

    A subclass sets `name` (the model label in Massey results), `p`, `alg`
    (with `tmod` and `zero()`), `_sector_bases` ((t, w) -> {s: sorted basis
    keys}) and `_towers = {}`, and defines `_element(terms)`, the complex
    element with the given {basis key: coeff}; an element's term keys are
    its basis keys.  The base derives the towers, element <-> vector
    conversion, dimension reports, and the queries the Massey routines make.
    """

    def sector_keys(self):
        return sorted(self._sector_bases)

    def _check_sector(self, w: int):
        """Hook: reject a sector weight the engine cannot represent."""

    def _d_of(self, s, key):
        return self._element({key: 1}).d().terms

    def tower(self, t: int, w: int) -> SectorTower:
        key = (t % self.alg.tmod, w)
        if key not in self._towers:
            self._check_sector(w)
            bases = self._sector_bases.get(key, {})
            self._towers[key] = SectorTower(self.p, bases, self._d_of)
        return self._towers[key]

    # -- element <-> vector -------------------------------------------------

    def to_vec(self, x, sector: Trigrade):
        idx = self.tower(sector.t, sector.w).index.get(sector.s, {})
        vec = [0] * len(idx)
        for key, c in x.terms.items():
            vec[idx[key]] = c
        return vec

    def from_vec(self, vec, sector: Trigrade):
        basis = self.tower(sector.t, sector.w).bases.get(sector.s, [])
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

    def basis_elements(self, sector: Trigrade):
        basis = self.tower(sector.t, sector.w).bases.get(sector.s, [])
        return [self._element({k: 1}) for k in basis]

    def class_coords(self, x):
        """(sector, class coordinate tuple) of a cocycle; None for zero element."""
        if x.is_zero():
            return None
        sector = x.grade_of()
        tower = self.tower(sector.t, sector.w)
        return sector, tuple(tower.reduce_vec(sector.s, self.to_vec(x, sector)))

    # -- global reports -----------------------------------------------------

    def dims_table(self):
        """Rows (s, t, w, dim cochains, dim cohomology) over all sectors."""
        rows = []
        for (t, w) in self.sector_keys():
            tower = self.tower(t, w)
            for s in sorted(tower.bases):
                rows.append((s, t, w, tower.dim(s), tower.dim_h(s)))
        rows.sort()
        return rows

    def euler_report(self):
        """Per-sector Euler characteristics of cochains vs cohomology."""
        out = []
        for (t, w) in self.sector_keys():
            tower = self.tower(t, w)
            chi_c = sum((-1) ** s * tower.dim(s) for s in tower.bases)
            chi_h = sum((-1) ** s * tower.dim_h(s) for s in tower.bases)
            out.append({"t": t, "w": w, "chi_cochains": chi_c, "chi_cohomology": chi_h,
                        "equal": chi_c == chi_h})
        return out


class ExteriorCohomology(SectorEngine):
    """Cohomology engine for the exterior complex at a fixed prime."""

    name = "exterior"

    def __init__(self, p: int = 7):
        self.alg = ExteriorAlgebra(p)
        self.p = p
        self._sector_bases = {}
        for mask in range(1 << 9):
            g = self.alg.mask_grade(mask)
            bucket = self._sector_bases.setdefault((g.t, g.w), {})
            bucket.setdefault(g.s, []).append((mask, 0))
        for bases in self._sector_bases.values():
            for lst in bases.values():
                lst.sort()
        self._towers = {}

    def _element(self, terms) -> ExteriorElement:
        return ExteriorElement(self.alg, terms)

    def _check_plain(self, x: ExteriorElement):
        if any(v2 for (_, v2) in x.terms):
            raise ValueError("cohomology engine requires v2-free elements")

    # -- class operations ---------------------------------------------------

    def reduce(self, x: ExteriorElement) -> CohomologyClass:
        self._check_plain(x)
        if x.is_zero():
            return CohomologyClass(Trigrade(0, 0, 0), (), self.alg.zero())
        dx = x.d()
        if not dx.is_zero():
            raise NotCocycleError(x, dx)
        sector, coords = self.class_coords(x)
        return CohomologyClass(sector, coords, x)

    def bounding_cochain(self, x: ExteriorElement):
        """y with d(y) = x, or None when x is not a coboundary."""
        self._check_plain(x)
        if x.is_zero():
            return self.alg.zero()
        sector = x.grade_of()
        tower = self.tower(sector.t, sector.w)
        y = tower.bound_vec(sector.s, self.to_vec(x, sector))
        if y is None:
            return None
        return self.from_vec(y, Trigrade(sector.s - 1, sector.t, sector.w))

    def cohomology_basis(self, s, t=None, w=None):
        out = []
        for (st, sw) in self.sector_keys():
            if t is not None and st != t % self.alg.tmod:
                continue
            if w is not None and sw != w:
                continue
            tower = self.tower(st, sw)
            if s not in tower.bases:
                continue
            sector = Trigrade(s, st, sw)
            for rep in tower.h_reps(s):
                out.append(self.reduce(self.from_vec(rep, sector)))
        return out

    def pair_top(self, x: ExteriorElement) -> int:
        """Coefficient of the canonical top monomial h0h1h2h20h21h22h30h31h32."""
        self._check_plain(x)
        return x.coefficient(FULL_MASK) % self.p

    def duality_report(self):
        """Compare dim H^s and dim H^{9-s} per total degree (computed, not asserted)."""
        total = [0] * 10
        for (t, w) in self.sector_keys():
            tower = self.tower(t, w)
            for s in tower.bases:
                total[s] += tower.dim_h(s)
        return {
            "dims": total,
            "symmetric": all(total[s] == total[9 - s] for s in range(10)),
        }
