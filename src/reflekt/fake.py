"""Fake degrees, graded characters, and the identity verifiers built on them.

The fake degree of a character chi is computed from the class-grouped sum

    F_chi(T) = (1/|W|) sum_w chi(w) * prod_i (1 - T^{d_i}) / det_V(1 - T w)

truncated at #reflections (the top degree of the coinvariant algebra), and is
asserted to be a polynomial with nonnegative integer coefficients summing to
chi(1).  R_chi denotes the fake degree of the complex-conjugate character.

All verifiers return JSON-ready dicts with a top-level "passed" flag; the one
unconditional identity (T^{#R} R_chi(1/T) = F_{chi (x) det}) raises instead of
reporting, since its failure can only mean an arithmetic bug.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exact import (
    CycNum,
    ExactError,
    PolyT,
    SeriesT,
    poly_divide_exact,
    poly_one_minus_Tk,
    series_inverse,
)
from .groups import ReflectionGroup
from .chars import (
    CharacterTable,
    ClassFunction,
    LocalData,
    det_character,
    local_data,
    orbit_det_power,
    tensor_with_linear,
)


class VerificationError(Exception):
    """An unconditional identity failed; indicates a bug, not a finding."""


@dataclass(frozen=True)
class FakeDegree:
    polynomial: PolyT
    exponents: tuple[int, ...]
    convention: str  # "chi" normally; "conjugate" if the fallback was needed

    def to_json(self) -> dict:
        return {
            "coefficients": [
                int(c.as_fraction()) for c in self.polynomial.coeffs
            ],
            "exponents": list(self.exponents),
            "convention": self.convention,
        }


def degree_numerator(g: ReflectionGroup) -> PolyT:
    """prod_i (1 - T^{d_i})."""
    p = PolyT([CycNum.one()])
    for d in g.degrees:
        p = p * poly_one_minus_Tk(d)
    return p


def graded_character(g: ReflectionGroup, w: int, order: int) -> SeriesT:
    """Graded trace of w on the coinvariant algebra, to the given order."""
    numer = SeriesT(list(degree_numerator(g).coeffs), order)
    den = g.char_poly_one_minus_Tw(g.inverse(w))
    return numer * series_inverse(den, order)


def coinvariant_poincare(g: ReflectionGroup) -> PolyT:
    """Poincare polynomial of the coinvariant algebra: prod (1-T^d)/(1-T)^n."""
    p = degree_numerator(g)
    for _ in range(g.dimension):
        p = poly_divide_exact(p, poly_one_minus_Tk(1))
    return p


def _fake_degree_from_values(g: ReflectionGroup, values) -> PolyT:
    order = len(g.reflections)
    numer = SeriesT(list(degree_numerator(g).coeffs), order)
    acc = SeriesT([], order)
    for idx, cls in enumerate(g.classes):
        acc = acc + g.class_inverse_series[idx] * (values[idx] * cls.size)
    total = (numer * acc).scale(Fraction(1, g.order))
    return PolyT(list(total.coeffs))


def fake_degree(g: ReflectionGroup, chi: ClassFunction) -> FakeDegree:
    """Fake degree of a character; sums constituents when chi is reducible."""
    poly = _fake_degree_from_values(g, chi.values)
    convention = "chi"
    try:
        exps = poly.exponents()
    except ExactError:
        # The integrality arbiter rejected the primary convention; try the
        # conjugate one once and report the discrepancy loudly.
        poly2 = _fake_degree_from_values(g, [v.conjugate() for v in chi.values])
        exps = poly2.exponents()
        print(
            "warning: fake degree needed the conjugate character convention",
            file=sys.stderr,
        )
        poly, convention = poly2, "conjugate"
    deg = chi.degree_int()
    if poly.evaluate(1) != deg:
        raise VerificationError("fake degree does not evaluate to deg(chi) at T=1")
    if exps and (exps[-1] > len(g.reflections) or exps[0] < 0):
        raise VerificationError("fake degree exponent out of [0, #R]")
    return FakeDegree(polynomial=poly, exponents=tuple(exps), convention=convention)


class FakeDegreeSet:
    """Fake degrees, local data and the conjugation permutation for a table."""

    def __init__(self, g: ReflectionGroup, table: CharacterTable):
        self.group = g
        self.table = table
        self.fds = [fake_degree(g, row) for row in table.rows]
        self.local = [local_data(row, g) for row in table.rows]
        self.conj_perm = [table.row_index(row.conjugate()) for row in table.rows]

    def f_poly(self, i: int) -> PolyT:
        return self.fds[i].polynomial

    def r_poly(self, i: int) -> PolyT:
        """R of row i = fake degree of the conjugate row."""
        return self.fds[self.conj_perm[i]].polynomial


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_pn_identity(fs: FakeDegreeSet, i: int) -> dict:
    """Exponent-sum identity: sum_j p_j = sum_C |C| sum_j j n_{C,j}."""
    g = fs.group
    lhs = sum(fs.fds[i].exponents)
    rhs = 0
    for c, orbit in enumerate(g.orbits):
        rhs += len(orbit.members) * sum(
            j * n for j, n in enumerate(fs.local[i].multiplicities[c])
        )
    return {"row": i, "lhs": lhs, "rhs": rhs, "passed": lhs == rhs}


def poincare_identity(fs: FakeDegreeSet) -> dict:
    """sum_tau deg(tau) F_tau = Poincare polynomial of the coinvariant algebra."""
    g = fs.group
    acc = PolyT([])
    for i, row in enumerate(fs.table.rows):
        acc = acc + fs.f_poly(i) * row.degree_int()
    target = coinvariant_poincare(g)
    return {
        "lhs": [str(c.as_fraction()) for c in acc.coeffs],
        "rhs": [str(c.as_fraction()) for c in target.coeffs],
        "passed": acc == target,
    }


def symmetry_shift(fs: FakeDegreeSet, i: int, b: tuple[int, ...]) -> Fraction:
    """N(tau, b) = sum_C |C| sum_{j<b_C} (e_C n_{C,j} / deg - 1)."""
    g = fs.group
    deg = fs.table.rows[i].degree_int()
    total = Fraction(0)
    for c, orbit in enumerate(g.orbits):
        e = orbit.order
        size = len(orbit.members)
        for j in range(b[c]):
            total += size * (Fraction(e * fs.local[i].multiplicities[c][j], deg) - 1)
    return total


def _pi_b_character(fs: FakeDegreeSet, b: tuple[int, ...]) -> ClassFunction:
    """Linear character of pi_b = prod_C pi_C^{e_C - b_C}, from the orbit characters."""
    g = fs.group
    chis = [g.orbit_character(c) for c in range(len(g.orbits))]
    vals = []
    for k in range(len(g.classes)):
        acc = CycNum.one()
        for c, orbit in enumerate(g.orbits):
            acc = acc * chis[c][k] ** (orbit.order - b[c])
        vals.append(acc)
    return ClassFunction(g, tuple(vals))


def all_b_vectors(g: ReflectionGroup):
    return product(*(range(orbit.order) for orbit in g.orbits))


def verify_symmetry(fs: FakeDegreeSet) -> dict:
    """Fake-degree symmetry: every (tau, b) has a partner with F = T^N F_tau.

    Also reports, per matched partner, whether its local data equals the
    chi_b-twisted cyclic shift of tau's (a diagnostic, not an assertion).
    """
    g = fs.group
    items = []
    all_passed = True
    for i, row in enumerate(fs.table.rows):
        deg = row.degree_int()
        for b in all_b_vectors(g):
            n_shift = symmetry_shift(fs, i, b)
            entry: dict = {"row": i, "b": list(b)}
            if n_shift.denominator != 1:
                entry.update(passed=False, reason=f"N = {n_shift} is not an integer")
                items.append(entry)
                all_passed = False
                continue
            n_int = int(n_shift)
            entry["N"] = n_int
            fp = fs.f_poly(i)
            min_exp = min(fs.fds[i].exponents) if fs.fds[i].exponents else 0
            if min_exp + n_int < 0:
                entry.update(passed=False, reason="T^N F has negative exponents")
                items.append(entry)
                all_passed = False
                continue
            target = fp.shift(n_int) if n_int >= 0 else _unshift(fp, -n_int)
            matches = [
                j
                for j in range(len(fs.table.rows))
                if fs.table.rows[j].degree_int() == deg and fs.f_poly(j) == target
            ]
            chi_b = _pi_b_character(fs, b)
            shifts = [orbit_det_power(g, chi_b, c) for c in range(len(g.orbits))]
            diag = []
            for j in matches:
                ok = True
                for c, orbit in enumerate(g.orbits):
                    e = orbit.order
                    want = tuple(
                        fs.local[i].multiplicities[c][(jj - shifts[c]) % e]
                        for jj in range(e)
                    )
                    if fs.local[j].multiplicities[c] != want:
                        ok = False
                diag.append({"partner": j, "local_data_shift_matches": ok})
            passed = bool(matches)
            entry.update(passed=passed, matches=matches, local_data_diagnostic=diag)
            items.append(entry)
            all_passed = all_passed and passed
    return {"items": items, "passed": all_passed}


def _unshift(p: PolyT, k: int) -> PolyT:
    if any(not c.is_zero() for c in p.coeffs[:k]):
        raise ExactError("negative shift would lose terms")
    return PolyT(list(p.coeffs[k:]))


def palindrome_check(fs: FakeDegreeSet) -> dict:
    """Semi-palindromicity of fake degrees.

    (a) T^{#R} R_tau(1/T) = F_{tau (x) det} exactly - raises on failure.
    (b) with c = #R - sum_r chi(r)/chi(1), T^c R_tau(1/T) is the R of some
        row of equal degree - reported, failure flips "passed".
    """
    g = fs.group
    nrefl = len(g.reflections)
    det_row = det_character(g)
    items = []
    all_passed = True
    for i, row in enumerate(fs.table.rows):
        r_rev = fs.r_poly(i).reversed_shift(nrefl)
        twisted = tensor_with_linear(row, det_row)
        f_twisted = fake_degree(g, twisted).polynomial
        if r_rev != f_twisted:
            raise VerificationError(
                f"row {i}: T^#R R(1/T) != F of the det twist (arithmetic bug)"
            )
        # (b)
        acc = CycNum.zero()
        for r in g.reflections:
            acc = acc + row.value_on_element(r)
        ratio = acc / row.degree_int()
        c_val = CycNum.rational(nrefl) - ratio
        entry: dict = {"row": i}
        if not c_val.is_integer() or c_val.as_fraction() < 0:
            entry.update(passed=False, reason=f"c = {c_val!r} is not a nonneg integer")
            items.append(entry)
            all_passed = False
            continue
        c_int = int(c_val.as_fraction())
        entry["c"] = c_int
        try:
            target = fs.r_poly(i).reversed_shift(c_int)
        except ExactError:
            entry.update(passed=False, reason="T^c R(1/T) is not a polynomial")
            items.append(entry)
            all_passed = False
            continue
        deg = row.degree_int()
        partners = [
            j
            for j in range(len(fs.table.rows))
            if fs.table.rows[j].degree_int() == deg and fs.r_poly(j) == target
        ]
        passed = bool(partners)
        entry.update(passed=passed, partners=partners)
        items.append(entry)
        all_passed = all_passed and passed
    return {"items": items, "passed": all_passed, "checked_identity_a": True}


def verify_all_pn(fs: FakeDegreeSet) -> dict:
    items = [verify_pn_identity(fs, i) for i in range(len(fs.table.rows))]
    return {"items": items, "passed": all(it["passed"] for it in items)}
