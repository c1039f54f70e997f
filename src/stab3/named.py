"""Canonical named cocycles of the exterior model and their verification suites.

The table collects the standard degree-1 generators together with the
composite classes k0, k1, b0, b1, b2, zeta3, l, l' used throughout the
product computations, and b20, the exterior image of the BP class b_{2,0}
(not a cocycle here).  b1 is defined as the index-shift image of b0 (the
shift j -> j+1 is a DGA automorphism, so this is automatically a cocycle);
verify_b1_identity pins the choice down against an exact cochain identity.

Every "nonzero" verdict carries an explicit certificate: either a nonzero
top pairing against a stated complementary element (the duality argument)
or nonzero class coordinates (a rank argument).
"""

from __future__ import annotations

from .cohomology import ExteriorCohomology


def _signed(value: int, p: int) -> int:
    """Balanced representative of value mod p, for readable certificates."""
    value %= p
    return value - p if value > p // 2 else value


class NamedClasses:
    """Dictionary of named cocycles over a fixed exterior cohomology engine."""

    def __init__(self, engine: ExteriorCohomology):
        self.engine = engine
        self.p = engine.p
        g = self.engine.alg.gen
        h0, h1, h2 = g(1, 0), g(1, 1), g(1, 2)
        h20, h21, h22 = g(2, 0), g(2, 1), g(2, 2)
        h30, h31, h32 = g(3, 0), g(3, 1), g(3, 2)
        b0 = h1 * h32 + h21 * h20 + h31 * h1
        self.table = {
            "h0": h0,
            "h1": h1,
            "h2": h2,
            "h20": h20,
            "h21": h21,
            "h22": h22,
            "h30": h30,
            "h31": h31,
            "h32": h32,
            "k0": h20 * h1,
            "k1": h21 * h2,
            "b0": b0,
            "b1": b0.shift(1),
            "b2": h0 * h31 + h20 * h22 + h30 * h0,
            "b20": h21 * h30 + h31 * h21,
            "zeta3": h30 + h31 + h32,
            "l": h2 * h21 * h30,
            "lprime": h0 * h22 * h31,
        }

    def __getitem__(self, name: str):
        return self.table[name]

    # -- verification suites -------------------------------------------------

    def verify_generators(self):
        """Certify six product classes as nonzero; report per-element records."""
        t = self.table
        eng = self.engine
        p = self.p
        elements = {
            "h1*k1*zeta3": t["h1"] * t["k1"] * t["zeta3"],
            "b0*k1*zeta3": t["b0"] * t["k1"] * t["zeta3"],
            "h0*l": t["h0"] * t["l"],
            "k0*l": t["k0"] * t["l"],
            "h0*b0*b2*l": t["h0"] * t["b0"] * t["b2"] * t["l"],
            "h1*l": t["h1"] * t["l"],
        }
        pairings = {
            "h0*b0*b2*l": ("zeta3", t["zeta3"], -2),
            "k0*l": ("lprime*zeta3", t["lprime"] * t["zeta3"], 1),
        }
        report = []
        for name, x in elements.items():
            if not x.d().is_zero():
                raise AssertionError(f"{name} is not a cocycle: d = {x.d()!r}")
            cls = eng.reduce(x)
            if cls.is_zero():
                raise AssertionError(f"{name} reduces to the zero class")
            entry = {
                "name": name,
                "sector": tuple(cls.sector),
                "coords": cls.coords,
                "certificate": {"kind": "rank", "value": list(cls.coords)},
                "status": "nonzero",
            }
            if name in pairings:
                partner, comp, expected = pairings[name]
                val = _signed(eng.pair_top(x * comp), p)
                if val != expected:
                    raise AssertionError(
                        f"top pairing of {name} against {partner}: got {val}, want {expected}"
                    )
                entry["certificate"] = {
                    "kind": "top-pairing",
                    "partner": partner,
                    "value": val,
                }
            report.append(entry)
        return report

    def verify_relations(self):
        """h0*k1 and k0*k1 are coboundaries (bounding cochains exhibited);
        k1*h30 = -l exactly at the cochain level."""
        t = self.table
        eng = self.engine
        report = []
        for name, x in (("h0*k1", t["h0"] * t["k1"]), ("k0*k1", t["k0"] * t["k1"])):
            cls = eng.reduce(x)
            if not cls.is_zero():
                raise AssertionError(f"{name} is a nonzero class: coords {cls.coords}")
            y = eng.bounding_cochain(x)
            if y is None or not (y.d() - x).is_zero():
                raise AssertionError(f"no bounding cochain found for {name}")
            report.append(
                {
                    "name": name,
                    "status": "coboundary",
                    "bounding_cochain": repr(y),
                }
            )
        lhs = t["k1"] * t["h30"]
        rhs = -1 * t["l"]
        if not (lhs - rhs).is_zero():
            raise AssertionError(f"k1*h30 != -l: {lhs!r} vs {rhs!r}")
        report.append({"name": "k1*h30 = -l", "status": "exact", "value": repr(lhs)})
        return report

    def verify_b1_identity(self):
        """Exact cochain identity fixing b1:
        -(h21*h30 + h31*h21)*h2 + h21*b1 = -3*l - k1*zeta3."""
        t = self.table
        lhs = -1 * (t["b20"] * t["h2"]) + t["h21"] * t["b1"]
        rhs = -3 * t["l"] - t["k1"] * t["zeta3"]
        if not (lhs - rhs).is_zero():
            raise AssertionError(f"b1 identity fails: {lhs!r} vs {rhs!r}")
        sub = t["h21"] * t["b1"]
        sub_expected = -1 * t["l"] - t["k1"] * t["h32"]
        if not (sub - sub_expected).is_zero():
            raise AssertionError(f"h21*b1 subterm: {sub!r} vs {sub_expected!r}")
        b1_deg = t["b1"].grade_of()
        expected_deg = (2 * (self.p - 1) * self.p**2) % self.engine.alg.tmod
        if b1_deg.t != expected_deg:
            raise AssertionError(f"b1 internal degree {b1_deg.t} != {expected_deg}")
        return [
            {"name": "b1-identity", "status": "exact", "value": repr(lhs)},
            {"name": "h21*b1 subterm", "status": "exact", "value": repr(sub)},
            {"name": "b1 internal degree", "status": "exact", "value": b1_deg.t},
        ]

    def verify_shift_cycle(self):
        """The index shift maps b0 -> b1 -> b2 -> b0; the double shift of b0
        is compared with the table's b2 and the exact relation recorded."""
        t = self.table
        report = []
        for src, dst in (("b0", "b1"), ("b1", "b2"), ("b2", "b0")):
            shifted = t[src].shift(1)
            if not (shifted - t[dst]).is_zero():
                raise AssertionError(f"shift({src}) != {dst}: {shifted!r}")
            report.append({"name": f"shift({src}) = {dst}", "status": "exact"})
        double = t["b0"].shift(2)
        relation = "equal" if (double - t["b2"]).is_zero() else repr(double - t["b2"])
        report.append({"name": "shift^2(b0) vs b2", "status": "recorded", "value": relation})
        return report
