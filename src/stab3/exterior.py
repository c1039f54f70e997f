"""Exterior complex on the nine odd generators h_{i,j}, i in {1,2,3}, j in Z/3.

Monomials are 9-bit masks over the canonical order
h_{1,0} < h_{1,1} < h_{1,2} < h_{2,0} < ... < h_{3,2}; the Koszul sign of a
product is the parity of the merge permutation, computed from inversion
counts.  The differential is

    d(h_{i,j}) = sum_{s=1}^{i-1} h_{s,j} h_{i-s, s+j}

extended as a derivation (d(ab) = d(a)b + (-1)^{deg a} a d(b)).

Gradings: cohomological degree s = word length; internal degree
2(p^i - 1)p^j summed and reduced mod 2(p^3 - 1); weight i summed.
Elements may optionally carry powers of a central, even polynomial
coefficient v2 of internal degree 2(p^2 - 1) and weight 0, with d(v2) = 0;
this is used for formal product expansions only.
"""

from __future__ import annotations

from typing import NamedTuple

from .fplinalg import check_prime

NGEN = 9
GENERATORS = tuple((i, j) for i in (1, 2, 3) for j in (0, 1, 2))
GEN_NAMES = ("h0", "h1", "h2", "h20", "h21", "h22", "h30", "h31", "h32")
FULL_MASK = (1 << NGEN) - 1


def gen_index(i: int, j: int) -> int:
    if i not in (1, 2, 3):
        raise ValueError(f"row index {i} must be 1, 2 or 3")
    return 3 * (i - 1) + (j % 3)


class Trigrade(NamedTuple):
    s: int
    t: int
    w: int


class InhomogeneousError(ValueError):
    """Raised by grade_of on elements mixing several trigrades."""

    def __init__(self, grades):
        self.grades = sorted(grades)
        super().__init__(f"inhomogeneous element with trigrades {self.grades}")


def _merge_sign(a: int, b: int) -> int:
    """Parity sign of merging two disjoint sorted generator words a, b."""
    sign = 1
    rest = b
    while rest:
        low = rest & -rest
        pos = low.bit_length() - 1
        if bin(a >> (pos + 1)).count("1") % 2:
            sign = -sign
        rest ^= low
    return sign


class FpAlgebra:
    """Generator degrees at a prime p > 3, shared by the exterior and cobar
    models: (i, j) has internal degree 2(p^i - 1)p^j mod 2(p^3 - 1), weight i.
    A subclass sets its `element` class and defines `key_grade(key)`."""

    element = None

    def __init__(self, p: int = 7):
        check_prime(p)
        self.p = p
        self.tmod = 2 * (p**3 - 1)
        self.gen_tdeg = tuple(
            (2 * (p**i - 1) * p**j) % self.tmod for (i, j) in GENERATORS
        )
        self.gen_weight = tuple(i for (i, _) in GENERATORS)

    def zero(self):
        return self.element(self, {})


class FpElement:
    """F_p-linear combination {basis key: coeff mod p, zeros dropped} over an
    `FpAlgebra`; sums and equality hold only between elements of one type."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: FpAlgebra, terms):
        self.alg = alg
        self.terms = {k: v % alg.p for k, v in terms.items() if v % alg.p}

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = (out.get(k, 0) + v) % self.alg.p
        return type(self)(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.alg, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return type(self)(self.alg, {k: scalar * v for k, v in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alg.p == other.alg.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alg.p, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def grades(self):
        return {self.alg.key_grade(k) for k in self.terms}

    def grade_of(self) -> Trigrade:
        gs = self.grades()
        if len(gs) != 1:
            raise InhomogeneousError(gs)
        return next(iter(gs))


class ExteriorElement(FpElement):
    """F_p-linear combination of sorted exterior monomials (times v2 powers),
    keyed by (mask, v2exp)."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        p = self.alg.p
        out = {}
        for (ma, va), ca in self.terms.items():
            for (mb, vb), cb in other.terms.items():
                if ma & mb:
                    continue
                sign = _merge_sign(ma, mb)
                key = (ma | mb, va + vb)
                out[key] = (out.get(key, 0) + sign * ca * cb) % p
        return ExteriorElement(self.alg, out)

    # -- differential -------------------------------------------------------

    def d(self) -> "ExteriorElement":
        alg = self.alg
        p = alg.p
        out = {}
        for (mask, v2exp), coeff in self.terms.items():
            rest = mask
            sign = 1  # (-1)^(number of generators to the left)
            while rest:
                low = rest & -rest
                pos = low.bit_length() - 1
                lower = mask & (low - 1)
                upper = mask & ~((low << 1) - 1)
                for dmask, dcoeff in alg._dgen[pos].items():
                    if dmask & (mask ^ low):
                        continue
                    s = sign * _merge_sign(lower, dmask) * _merge_sign(lower | dmask, upper)
                    key = ((mask ^ low) | dmask, v2exp)
                    out[key] = (out.get(key, 0) + s * coeff * dcoeff) % p
                sign = -sign
                rest ^= low
        return ExteriorElement(alg, out)

    # -- misc ---------------------------------------------------------------

    def shift(self, delta: int = 1) -> "ExteriorElement":
        """Index-shift automorphism h_{i,j} -> h_{i,j+delta} (a DGA map)."""
        out = self.alg.zero()
        for (mask, v2exp), coeff in sorted(self.terms.items()):
            piece = self.alg.v2(v2exp) if v2exp else self.alg.one()
            rest = mask
            while rest:
                low = rest & -rest
                i, j = GENERATORS[low.bit_length() - 1]
                piece = piece * self.alg.gen(i, j + delta)
                rest ^= low
            out = out + coeff * piece
        return out

    def coefficient(self, mask: int, v2exp: int = 0) -> int:
        return self.terms.get((mask, v2exp), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (mask, v2exp), coeff in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            names = []
            if coeff != 1 or (mask == 0 and v2exp == 0):
                names.append(str(coeff))
            if v2exp == 1:
                names.append("v2")
            elif v2exp > 1:
                names.append(f"v2^{v2exp}")
            rest = mask
            while rest:
                low = rest & -rest
                names.append(GEN_NAMES[low.bit_length() - 1])
                rest ^= low
            parts.append("*".join(names))
        return " + ".join(parts)


class ExteriorAlgebra(FpAlgebra):
    """Shared immutable data (degrees, differential table) at a fixed prime."""

    element = ExteriorElement

    def __init__(self, p: int = 7):
        super().__init__(p)
        self.v2_tdeg = (2 * (p**2 - 1)) % self.tmod
        self._dgen = self._build_differential_table()

    def _build_differential_table(self):
        table = []
        for (i, j) in GENERATORS:
            terms = {}
            for s in range(1, i):
                a = gen_index(s, j)
                b = gen_index(i - s, s + j)
                if a == b:
                    continue
                sign = 1 if a < b else -1
                key = (1 << a) | (1 << b)
                terms[key] = (terms.get(key, 0) + sign) % self.p
            table.append({k: v for k, v in terms.items() if v})
        return tuple(table)

    # -- constructors -------------------------------------------------------

    def one(self) -> ExteriorElement:
        return ExteriorElement(self, {(0, 0): 1})

    def gen(self, i: int, j: int) -> ExteriorElement:
        return ExteriorElement(self, {(1 << gen_index(i, j), 0): 1})

    def v2(self, exp: int = 1) -> ExteriorElement:
        return ExteriorElement(self, {(0, exp): 1})

    def monomial(self, mask: int, v2exp: int = 0, coeff: int = 1) -> ExteriorElement:
        return ExteriorElement(self, {(mask, v2exp): coeff % self.p})

    def from_gen_names(self, *names) -> ExteriorElement:
        out = self.one()
        for n in names:
            out = out * self.gen(*GENERATORS[GEN_NAMES.index(n)])
        return out

    # -- grading helpers ----------------------------------------------------

    def mask_tdeg(self, mask: int, v2exp: int = 0) -> int:
        t = v2exp * self.v2_tdeg
        rest = mask
        while rest:
            low = rest & -rest
            t += self.gen_tdeg[low.bit_length() - 1]
            rest ^= low
        return t % self.tmod

    def mask_weight(self, mask: int) -> int:
        w = 0
        rest = mask
        while rest:
            low = rest & -rest
            w += self.gen_weight[low.bit_length() - 1]
            rest ^= low
        return w

    def key_grade(self, key) -> Trigrade:
        """Trigrade of the basis key (mask, v2exp)."""
        mask, v2exp = key
        return Trigrade(
            bin(mask).count("1"), self.mask_tdeg(mask, v2exp), self.mask_weight(mask)
        )
