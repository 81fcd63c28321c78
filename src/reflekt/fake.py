"""Fake degrees, graded characters, and the identity verifiers built on them.

The fake degree of a character chi is its graded multiplicity in the
coinvariant algebra, the class-weighted sum

    F_chi(T) = (1/|W|) sum_c |c| chi(c) G_c(T),
    G_c(T) = prod_i (1 - T^{d_i}) / det_V(1 - T c),

of the coinvariant graded traces G_c, polynomials of degree <= #reflections
that the group computes once per class (`class_coinvariant_traces`).  The class
sums run on the packed Z[zeta_N] kernel `exact.weighted_sums`: each G_c is
packed once per table into one Python int, a block of 2 phi(N) - 1 slots per
power of T, so the fake degree of a row is r big-integer products, reduced
modulo Phi_N once per power of T.  F_chi is asserted to be a polynomial with
nonnegative integer coefficients summing to chi(1), with exponents in
[0, #R].  R_chi denotes the fake degree of the complex-conjugate character.

Such a polynomial is fixed by its exponent tuple (each power of T repeated by
its coefficient), so the verifiers compare fake degrees on exponents: a
partner with F = T^N F_tau, or R = T^c R_tau(1/T), is one lookup in a dict
from exponent tuples to rows, and T^k p(1/T) reverses and shifts the tuple.

The symmetry verifier's local-data diagnostic twists by
chi_b = prod_C chi_C^{e_C - b_C}, chi_C the character of the orbit product
pi_C.  By Stanley's lemma chi_C is det^-1 on the reflections of C and 1 on
every other reflection, so on orbit c's stabilizer chi_b is det^{b_c}, a
cyclic shift by -b_c mod e_c, with no character values computed.

All verifiers return JSON-ready dicts with a top-level "passed" flag; the one
unconditional identity (T^{#R} R_chi(1/T) = F_{chi (x) det}) raises instead of
reporting, since its failure can only mean an arithmetic bug.  The det twist
chi (x) det is looked up in the certified table, so a twist that is not
irreducible raises there.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .exact import CycNum, PolyT, weighted_sums
from .groups import ReflectionGroup
from .chars import (
    CharacterTable,
    ClassFunction,
    det_character,
    local_data,
)


class VerificationError(Exception):
    """An unconditional identity failed; indicates a bug, not a finding."""


class FakeDegree(NamedTuple):
    polynomial: PolyT
    exponents: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "coefficients": [
                int(c.as_fraction()) for c in self.polynomial.coeffs
            ],
            "exponents": list(self.exponents),
            "convention": "chi",
        }


def graded_character(g: ReflectionGroup, w: int) -> PolyT:
    """Graded trace of w on the coinvariant algebra: G_c for c the class of w^-1."""
    return g.class_coinvariant_traces[g.inverse_class[g.class_of[w]]]


def coinvariant_poincare(g: ReflectionGroup) -> PolyT:
    """Poincare polynomial of the coinvariant algebra:
    prod (1 - T^d) / (1 - T)^n = prod (1 + T + ... + T^(d-1))."""
    p = PolyT([1])
    for d in g.degrees:
        p = p * PolyT([1] * d)
    return p


def _class_sums(g: ReflectionGroup, rows) -> list[PolyT]:
    """(1/|W|) sum_c |c| chi(c) G_c for each value vector chi in rows.

    One call to the packed kernel `exact.weighted_sums`: every G_c is packed
    once, a block of 2 phi(N) - 1 slots per power of T, so each class sum is r
    big-integer products.  Coefficients stay at the label N of the traces
    (the group conductor, or the lcm with the labels of the values).
    """
    N = lcm(g.conductor, *(v.N for vals in rows for v in vals))
    sizes = [c.size for c in g.classes]
    traces = [[t.coeffs for t in g.class_coinvariant_traces]]
    scale = Fraction(1, g.order)
    sums = weighted_sums(N, sizes, rows, traces, [(i, 0) for i in range(len(rows))])
    return [PolyT([c * scale for c in s]) for s in sums]


def _checked_fake_degree(g: ReflectionGroup, chi: ClassFunction, poly: PolyT) -> FakeDegree:
    exps = poly.exponents()
    deg = chi.degree_int()
    if poly.evaluate(1) != deg:
        raise VerificationError("fake degree does not evaluate to deg(chi) at T=1")
    if exps and (exps[-1] > len(g.reflections) or exps[0] < 0):
        raise VerificationError("fake degree exponent out of [0, #R]")
    return FakeDegree(polynomial=poly, exponents=tuple(exps))


def fake_degree(g: ReflectionGroup, chi: ClassFunction) -> FakeDegree:
    """Fake degree of a character; sums constituents when chi is reducible."""
    return _checked_fake_degree(g, chi, _class_sums(g, [chi.values])[0])


class FakeDegreeSet:
    """Fake degrees, local data and the conjugation permutation for a table."""

    def __init__(self, g: ReflectionGroup, table: CharacterTable):
        self.group = g
        self.table = table
        polys = _class_sums(g, [row.values for row in table.rows])
        self.fds = [_checked_fake_degree(g, row, p) for row, p in zip(table.rows, polys)]
        self.local = [local_data(row, g) for row in table.rows]
        self.conj_perm = [table.row_index(ClassFunction(g, tuple(c))) for c in table.conjugates]

    def f_poly(self, i: int) -> PolyT:
        return self.fds[i].polynomial


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_pn_identity(fs: FakeDegreeSet, i: int) -> dict:
    """Exponent-sum identity: sum_j p_j = sum_C |C| sum_j j n_{C,j}."""
    lhs = sum(fs.fds[i].exponents)
    rhs = sum(len(o.members) * s for o, s in zip(fs.group.orbits, fs.local[i].exponent_sums()))
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


def verify_symmetry(fs: FakeDegreeSet) -> dict:
    """Fake-degree symmetry: every (tau, b) has a partner with F = T^N F_tau.

    Also reports, per matched partner, whether its local data equals the
    chi_b-twisted cyclic shift of tau's (a diagnostic, not an assertion).
    """
    g = fs.group
    # Stanley's lemma: chi_C(s) = det(s)^-1 for a reflection s whose hyperplane
    # H_s lies in C, and 1 otherwise.  Proof: s^-1 fixes H_s pointwise, so
    # alpha o s^-1 = alpha mod alpha_{H_s} for every form alpha, hence
    # pi_C o s^-1 = chi_C(s) pi_C = pi_C mod alpha_{H_s}; if H_s is not in C,
    # alpha_{H_s} does not divide pi_C and chi_C(s) = 1, and if it is, the
    # factor alpha_{H_s} o s^-1 = det(s)^-1 alpha_{H_s} leaves det(s)^-1.  So
    # chi_b = prod_C chi_C^{e_C - b_C} is det^{b_c - e_c} = det^{-s_c} on the
    # stabilizer <s_H> of orbit c, with s_c = -b_c mod e_c, whatever the row.
    b_shifts = [
        (b, [-bc % orbit.order for bc, orbit in zip(b, g.orbits)])
        for b in product(*(range(orbit.order) for orbit in g.orbits))
    ]
    by_exponents = _rows_by_exponents([fd.exponents for fd in fs.fds])
    items = []
    all_passed = True
    for i, fd in enumerate(fs.fds):
        exps = fd.exponents
        for b, shifts in b_shifts:
            n_shift = symmetry_shift(fs, i, b)
            entry: dict = {"row": i, "b": list(b)}
            if n_shift.denominator != 1:
                entry.update(passed=False, reason=f"N = {n_shift} is not an integer")
                items.append(entry)
                all_passed = False
                continue
            n_int = int(n_shift)
            entry["N"] = n_int
            if exps and exps[0] + n_int < 0:
                entry.update(passed=False, reason="T^N F has negative exponents")
                items.append(entry)
                all_passed = False
                continue
            matches = list(by_exponents.get(tuple(p + n_int for p in exps), ()))
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


def _rows_by_exponents(exponents) -> dict[tuple[int, ...], list[int]]:
    """Row indices by exponent tuple.  A polynomial with nonnegative integer
    coefficients is fixed by its exponents, and its value at T = 1, the row
    degree, is their count, so equal tuples mean equal polynomials and degrees."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for j, exps in enumerate(exponents):
        rows.setdefault(exps, []).append(j)
    return rows


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
    r_exponents = [fs.fds[j].exponents for j in fs.conj_perm]
    by_r_exponents = _rows_by_exponents(r_exponents)
    for i, row in enumerate(fs.table.rows):
        r_exps = r_exponents[i]
        try:
            twisted = fs.table.row_index(row.tensor(det_row))
        except KeyError:
            raise VerificationError(f"row {i}: the det twist is not a row of the table") from None
        if tuple(nrefl - p for p in reversed(r_exps)) != fs.fds[twisted].exponents:
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
        if r_exps and r_exps[-1] > c_int:
            entry.update(passed=False, reason="T^c R(1/T) is not a polynomial")
            items.append(entry)
            all_passed = False
            continue
        partners = list(by_r_exponents.get(tuple(c_int - p for p in reversed(r_exps)), ()))
        passed = bool(partners)
        entry.update(passed=passed, partners=partners)
        items.append(entry)
        all_passed = all_passed and passed
    return {"items": items, "passed": all_passed, "checked_identity_a": True}


def verify_all_pn(fs: FakeDegreeSet) -> dict:
    items = [verify_pn_identity(fs, i) for i in range(len(fs.table.rows))]
    return {"items": items, "passed": all(it["passed"] for it in items)}
