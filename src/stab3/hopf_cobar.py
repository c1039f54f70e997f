"""Cobar complex of a truncated-polynomial Hopf algebra on nine generators.

The algebra has generators g_{i,j} (i in {1,2,3}, j in Z/3) of height p
(exponents < p), with coproduct

    Delta(g_{i,j}) = sum_{k=0}^{i} g_{k,j} (x) g_{i-k, (k+j) mod 3},   g_{0,*} = 1.

A monomial with exponents (e_0, ..., e_8), each < p, on the generators in
`exterior.GENERATORS` order is the int code sum_k e_k p^(8-k); the unit is 0.
Since every digit is < p, comparing two codes compares their exponent tuples
lexicographically.  So each sorted basis lists its tensors in lexicographic
order of their exponent tuples, and the d-matrices, echelon forms, class
coordinates and certificates built on the bases follow that order.  A power
t1^e for e < p^3 puts e's base-p digits on g_{1,0}, g_{1,1}, g_{1,2} (and
similarly for t2, t3).

The cobar differential is the alternating sum of reduced-coproduct slot
insertions; the concatenation product satisfies the graded Leibniz rule.

Sectors are keyed by (internal degree mod 2(p^3-1), weight); both are
preserved by the differential, and every slot has weight >= 1, so a tensor
in a sector of weight w has at most w slots.  `CobarEngine` with weight
bound W holds the complete towers of every sector with w <= W, and builds
the basis of one (t, w, s) only when a tower first asks for it.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

from .cohomology import SectorEngine
from .exterior import GENERATORS, FpAlgebra, FpElement, Trigrade, gen_index
from .fplinalg import b_class_terms
from .massey import massey_from_system

UNIT = 0

# p -> ({m: Delta(m)}, {m: reduced Delta(m)}), shared by every TruncatedHopf(p)
_COPRODUCT_MEMO = {}


class SectorCapError(RuntimeError):
    pass


class CobarElement(FpElement):
    """F_p-linear combination of tensors of reduced monomials, keyed by the
    tuple of slots."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, CobarElement):
            return NotImplemented
        out = {}
        for sa, ca in self.terms.items():
            for sb, cb in other.terms.items():
                key = sa + sb
                out[key] = out.get(key, 0) + ca * cb
        return CobarElement(self.alg, out)

    def d(self):
        hopf = self.alg
        out = {}
        for slots, coeff in self.terms.items():
            for key, c in hopf.d_tensor(slots).items():
                out[key] = out.get(key, 0) + coeff * c
        return CobarElement(hopf, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        digits = self.alg.digits
        parts = []
        for slots, coeff in sorted(self.terms.items()):
            body = "|".join(
                "*".join(f"g{i}{j}^{e}" if e > 1 else f"g{i}{j}"
                         for (i, j), e in zip(GENERATORS, digits(m)) if e)
                for m in slots
            )
            parts.append(f"{coeff}[{body}]")
        return " + ".join(parts)


class TruncatedHopf(FpAlgebra):
    """Shared coproduct/degree data at a fixed prime."""

    element = CobarElement

    def __init__(self, p: int):
        super().__init__(p)
        # place[k] = p^(8-k), the code of the k-th generator
        self.place = place = tuple(p ** (8 - k) for k in range(9))
        # Delta(g_{i,j}): (left, right) generator places, None for the unit
        self._gen_coproduct = [
            [(None if k == 0 else place[gen_index(k, j)],
              None if k == i else place[gen_index(i - k, k + j)])
             for k in range(i + 1)]
            for i, j in GENERATORS
        ]
        self._coproducts, self._reduced = _COPRODUCT_MEMO.setdefault(
            p, ({UNIT: {(UNIT, UNIT): 1}}, {}))

    # -- monomial arithmetic -------------------------------------------------

    def digits(self, m):
        """The exponent 9-tuple of the monomial code m: digit k of m in base
        p, read from the highest place p^8 down."""
        p = self.p
        return tuple(m // q % p for q in self.place)

    def mon_tdeg(self, m):
        return sum(e * d for e, d in zip(self.digits(m), self.gen_tdeg)) % self.tmod

    def mon_weight(self, m):
        return sum(e * w for e, w in zip(self.digits(m), self.gen_weight))

    def key_grade(self, slots) -> Trigrade:
        """Trigrade of the basis tensor `slots`."""
        return Trigrade(
            len(slots),
            sum(self.mon_tdeg(m) for m in slots) % self.tmod,
            sum(self.mon_weight(m) for m in slots),
        )

    def power_monomial(self, row: int, e: int):
        """The code of t_row^e, e < p^3: digit j of e in base p, lowest
        first, is the exponent of g_{row,j}, so the code is
        sum_j digit_j place[g_{row,j}].  A row outside {1, 2, 3} raises
        `ValueError`."""
        places = [self.place[gen_index(row, j)] for j in range(3)]
        if not 0 <= e < self.p**3:
            raise ValueError(f"exponent {e} out of range")
        m = 0
        for q in places:
            e, digit = divmod(e, self.p)
            m += digit * q
        return m

    def t_monomial(self, exps):
        """The code of t1^e1 t2^e2 t3^e3 for exps = (e1, e2, e3), each e <
        p^3: the sum of the three power codes, whose digits sit on disjoint
        generators, so no digit carries."""
        if len(exps) != 3:
            raise ValueError(f"t_monomial takes three exponents (e1, e2, e3), not {exps!r}")
        return sum(map(self.power_monomial, (1, 2, 3), exps))

    # -- coproduct -----------------------------------------------------------

    def _times_generator(self, delta, idx):
        """Delta(m) Delta(g) for the generator g = g_idx, given delta = Delta(m).
        Multiplying a code by a generator adds the generator's place, unless
        that digit is already p - 1 (the power is then 0)."""
        p = self.p
        top = p - 1
        out = {}
        for (l, r), c in delta.items():
            for a, b in self._gen_coproduct[idx]:
                if a is not None:
                    if l // a % p == top:
                        continue
                    la = l + a
                else:
                    la = l
                if b is not None:
                    if r // b % p == top:
                        continue
                    rb = r + b
                else:
                    rb = r
                key = (la, rb)
                out[key] = out.get(key, 0) + c
        return {k: v % p for k, v in out.items() if v % p}

    def coproduct(self, m):
        """Delta(m) = Delta(m / g) Delta(g), g the last generator of m, built
        up from the longest memoised m / g^e; memoised for the prime, so
        callers only read it."""
        memo, p = self._coproducts, self.p
        path = []  # (n, n / g, g's index) from m down to a memoised n / g
        n = m
        while n not in memo:
            # g is the last generator with a nonzero digit: the lowest one of n
            idx, q = 8, n
            while not q % p:
                idx, q = idx - 1, q // p
            rest = n - self.place[idx]
            path.append((n, rest, idx))
            n = rest
        for n, rest, idx in reversed(path):
            memo[n] = self._times_generator(memo[rest], idx)
        return memo[m]

    def reduced_coproduct(self, m):
        """Coproduct of m minus m (x) 1 and 1 (x) m; memoised for the prime,
        so callers only read it."""
        out = self._reduced.get(m)
        if out is None:
            out = dict(self.coproduct(m))
            for key in ((m, UNIT), (UNIT, m)):
                out[key] = out.get(key, 0) - 1
            out = self._reduced[m] = {k: v % self.p for k, v in out.items() if v % self.p}
        return out

    def d_tensor(self, slots):
        """Cobar d of the basis tensor `slots`, {tensor: int}: the alternating
        sum over slots of the reduced coproduct put in that slot (the
        coefficients are not reduced, and may cancel to 0)."""
        out = {}
        for i, m in enumerate(slots):
            sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1) for 1-based slot i+1
            head, tail = slots[:i], slots[i + 1 :]
            for ab, c in self.reduced_coproduct(m).items():
                key = head + ab + tail
                out[key] = out.get(key, 0) + sign * c
        return out

    # -- element constructors ------------------------------------------------

    def slot(self, m):
        if m == UNIT:
            raise ValueError("slots must be reduced (nonzero) monomials")
        return CobarElement(self, {(m,): 1})

    def t_power_slot(self, row, e):
        return self.slot(self.power_monomial(row, e))


def b_class(hopf: TruncatedHopf, level: int, k: int) -> CobarElement:
    """The 2-cochain b_{level,k} mod p: c [left | right] for each term of
    `fplinalg.b_class_terms`."""
    return CobarElement(hopf, {
        (hopf.t_monomial(left), hopf.t_monomial(right)): c
        for left, right, c in b_class_terms(hopf.p, level, k) if c % hopf.p
    })


class CobarEngine(SectorEngine):
    """Sector towers of the cobar complex, truncated by total weight.

    Construction tabulates the reduced monomial codes of weight <= bound by
    (internal degree, weight), each list ascending; a tensor is the tuple of
    its slots' codes.  `_counts`, the number of tensors per
    (slots, t, w), is built on first use.  `_sector_basis(t, w, s)` puts a
    first monomial in front of each (s-1)-slot tensor of the remaining
    grade, read from that sector's own basis through `_sector`, over every
    monomial grade whose remainder `_counts` says is reachable.  A basis
    larger than `sector_cap` raises `SectorCapError`.  `_d_of` is
    `TruncatedHopf.d_tensor`, so `dmat` builds no elements.
    """

    name = "cobar"

    def __init__(self, p: int, weight_bound: int, sector_cap: int = 20000):
        self.weight_bound = weight_bound
        self.sector_cap = sector_cap
        super().__init__(TruncatedHopf(p))
        self._monomials = self._monomials_by_grade()

    def _monomials_by_grade(self):
        """(internal degree, weight) -> the reduced monomials of weight <=
        bound with that grade."""
        hopf = self.alg
        out = {}

        def rec(idx, m, t, w):
            if idx == 9:
                if w:
                    out.setdefault((t % hopf.tmod, w), []).append(m)
                return
            row, q, dt = hopf.gen_weight[idx], hopf.place[idx], hopf.gen_tdeg[idx]
            for e in range(min(hopf.p - 1, (self.weight_bound - w) // row) + 1):
                rec(idx + 1, m + e * q, t + e * dt, w + e * row)

        rec(0, UNIT, 0, 0)
        return out

    @cached_property
    def _counts(self):
        """[{(t, w): number of tensors with k slots of that grade}] for
        k = 0..bound, built on first use."""
        tmod, bound = self.alg.tmod, self.weight_bound
        by_weight = {}
        for (dt, dw), mons in self._monomials.items():
            by_weight.setdefault(dw, []).append((dt, len(mons)))
        counts = [{(0, 0): 1}]
        for _ in range(bound):
            nxt = {}
            for (t, w), n in counts[-1].items():
                for dw in range(1, bound - w + 1):
                    for dt, m in by_weight.get(dw, ()):
                        key = ((t + dt) % tmod, w + dw)
                        nxt[key] = nxt.get(key, 0) + n * m
            counts.append(nxt)
        return counts

    def _sector_basis(self, t, w, s):
        """The sorted tensors of sector (t, w) with s slots."""
        counts = self._counts
        n = counts[s].get((t, w), 0) if 0 <= s < len(counts) else 0
        if n > self.sector_cap:
            raise SectorCapError(
                f"sector {(t, w)} degree {s} has {n} basis tensors (cap {self.sector_cap})"
            )
        if not n:
            return []
        if not s:
            return [()]
        tmod, rest = self.alg.tmod, counts[s - 1]
        out = []
        for (dt, dw), mons in self._monomials.items():
            key = ((t - dt) % tmod, w - dw)
            if key in rest:
                tails = self._sector(*key)[s - 1]
                out.extend((m,) + tail for m in mons for tail in tails)
        out.sort()
        return out

    def _d_of(self, s, key):
        return self.alg.d_tensor(key)

    def _check_sector(self, w: int):
        if w > self.weight_bound:
            raise ValueError(f"sector weight {w} exceeds bound {self.weight_bound}")


def collapse_check(ext: SectorEngine, cob: CobarEngine):
    """Compare the cobar engine's cohomology dims against the exterior
    engine's, s <= 2, weight <= cob.weight_bound.  Below weight p the
    polynomial b-classes (weight p) do not contribute, so the prediction is
    exactly the exterior dimensions."""
    cobar = {(s, t, w): dim_h for (s, t, w, _, dim_h) in cob.dims_table(2)}
    predicted = {(s, t, w): dim_h for (s, t, w, _, dim_h) in ext.dims_table(2)
                 if w <= cob.weight_bound}
    rows = [{"s": s, "t": t, "w": w, "cobar": dim_h, "predicted": predicted.get((s, t, w), 0)}
            for (s, t, w), dim_h in cobar.items() if dim_h or predicted.get((s, t, w))]
    mismatches = [(*key, cobar.get(key, 0), predicted.get(key, 0))
                  for key in sorted(cobar.keys() | predicted.keys())
                  if cobar.get(key, 0) != predicted.get(key, 0)]
    return {"rows": rows, "mismatches": mismatches}


def p_fold_massey_check(p: int, k: int, engine: CobarEngine):
    """Explicit p-fold bracket <x, ..., x> for x = [t1^(p^k)] in an engine at p.

    The defining system a_{i,i+m} = ((-1)^(m+1)/m!) [t1^(m p^k)] satisfies
    every identity exactly, and the value equals b_class(1, k) on the nose;
    the value's class is then certified nonzero by its coboundary normal
    form, with dim H^2 read from the orbit (`SectorEngine.class_coords`).
    """
    if engine.p != p:
        raise ValueError(f"p-fold bracket at p = {p} asked of an engine at p = {engine.p}")
    hopf = engine.alg
    entries = {}
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            m = j - i
            if m >= p:
                continue
            c = ((-1) ** (m + 1) * pow(factorial(m), p - 2, p)) % p
            entries[(i, j)] = c * hopf.t_power_slot(1, m * p**k)
    value = massey_from_system(engine, entries, p)
    target = b_class(hopf, 1, k)
    if not (value - target).is_zero():
        raise AssertionError(f"p-fold bracket value {value!r} != b-class {target!r}")
    sector, coords = engine.class_coords(value)
    if not any(coords):
        raise AssertionError("p-fold bracket value is a coboundary")
    return {
        "name": f"p-fold bracket, p={p}, k={k}",
        "status": "pass",
        "value": repr(value),
        "sector": tuple(sector),
        "coords": list(coords),
    }
