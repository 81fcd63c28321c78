"""Exact irreducible character tables and local restriction data.

The table is computed with the classical Burnside-Dixon method: the class
constant matrices are simultaneously diagonalized over a prime field F_p with
p = 1 (mod exponent(W)), p not dividing |W| and p > 2*sqrt(|W|); eigenvalue
multiplicities of each element recover the character values as exact sums of
roots of unity: all multiplicities of a class are read off at once, and each
value is built once, at the group conductor.  The finished table is certified
by exact row and column orthogonality at every pair, and any inconsistency
raises - there is no approximate fallback.  The certificate runs on the packed
Z[zeta_N] kernel `exact.weighted_sums`: character values are algebraic
integers, so each is packed into one Python int and every Hermitian product
sum_c |c| chi(c) conj(psi(c)) is r big-integer multiply-adds, reduced modulo
Phi_N once.  ClassFunction.inner (and so norm()) uses the same product.  The
table keeps every value's conjugate (`conjugates`) for the checks and `fake`;
the certificate puts the values and conjugates in integer form once for both
checks.  A row is found by its values, whose hashes agree across labels.

Row order is canonical: by degree, then lexicographically on the numerically
embedded values (exact JSON as the final tiebreak), so cross-run row
references are stable.
"""
from __future__ import annotations

from functools import cached_property, reduce
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from .exact import CycNum, integral_coefficients, integral_weighted_sums, weighted_sums
from .groups import ReflectionGroup
from .linalg import _fp_bits, _fp_nullspace, _fp_pack, _fp_rref, _fp_unpack, _is_prime, _primitive_root_power


class CharTableError(Exception):
    """Internal failure of the character table computation."""


def _products(weights, xs, ys, pairs) -> list[CycNum]:
    """sum_k weights[k] xs[i][k] ys[j][k] for each (i, j) in pairs, on the
    packed kernel `exact.weighted_sums`.  Hermitian products pass conjugates
    as ys."""
    N = lcm(*(v.N for vec in (*xs, *ys) for v in vec))
    return [acc for (acc,) in weighted_sums(N, weights, xs, [[(v,) for v in vec] for vec in ys], pairs)]


class ClassFunction(NamedTuple):
    """Exact class function: one CycNum per conjugacy class, in class order."""

    group: ReflectionGroup
    values: tuple[CycNum, ...]

    def value_on_element(self, i: int) -> CycNum:
        return self.values[self.group.class_of[i]]

    @property
    def degree(self) -> CycNum:
        return self.values[self.group.class_of[self.group.identity]]

    def degree_int(self) -> int:
        d = self.degree
        if not d.is_integer():
            raise CharTableError("character degree is not an integer")
        return int(d.as_fraction())

    def inner(self, other: ClassFunction) -> CycNum:
        """(1/|W|) sum_c |c| self(c) conj(other(c)); the values must be
        algebraic integers (ExactError otherwise), as character values are."""
        g = self.group
        sizes = [c.size for c in g.classes]
        conj = [v.conjugate() for v in other.values]
        return _products(sizes, [self.values], [conj], [(0, 0)])[0] / g.order

    def norm(self) -> CycNum:
        return self.inner(self)

    def conjugate(self) -> ClassFunction:
        return ClassFunction(self.group, tuple(v.conjugate() for v in self.values))

    def tensor(self, other: ClassFunction) -> ClassFunction:
        return ClassFunction(
            self.group, tuple(a * b for a, b in zip(self.values, other.values))
        )

    def to_json(self) -> list:
        return [v.to_json() for v in self.values]


class LocalData(NamedTuple):
    """Restriction multiplicities n_{C,j} to cyclic hyperplane stabilizers.

    multiplicities[c][j] = multiplicity of det^{-j} in the restriction of the
    character to the stabilizer of a hyperplane in orbit c, 0 <= j < e_C.
    """

    multiplicities: tuple[tuple[int, ...], ...]

    def exponent_sums(self) -> list[int]:
        """sum_j j n_{C,j} for each orbit C."""
        return [sum(j * n for j, n in enumerate(row)) for row in self.multiplicities]

    def to_json(self) -> list:
        return [list(row) for row in self.multiplicities]


class CharacterTable:
    def __init__(self, group: ReflectionGroup, rows: list[ClassFunction]):
        self.group = group
        self.rows = tuple(rows)
        self._validate()
        self._row_of = {tuple(row.values): i for i, row in enumerate(self.rows)}

    def _validate(self) -> None:
        """The exact certificate: one row per class, squared degrees summing
        to |W|, and row and column orthogonality at every pair.

        With X the table and D = diag(|c|), X D X* = |W| I holds exactly when
        X* X = |W| D^-1 does, since X is square; so a wrong table fails both
        relations, and each is checked in full.  Every value is conjugated
        once, and the table and its conjugates are put in integer form once
        (`exact.integral_coefficients`), for both.
        """
        g = self.group
        if len(self.rows) != len(g.classes):
            raise CharTableError("row count differs from class count")
        if sum(r.degree_int() ** 2 for r in self.rows) != g.order:
            raise CharTableError("sum of squared degrees != |W|")
        table = self._integral_table()
        self._check_rows(table)
        self._check_columns(table)

    @cached_property
    def conjugates(self) -> list[list[CycNum]]:
        """The complex conjugate of every value, row by row."""
        return [[v.conjugate() for v in row.values] for row in self.rows]

    def _integral_table(self) -> tuple[int, list, list]:
        """(N, values, conjugates): the table and its conjugates row by row
        in the integer form of `exact.integral_coefficients` at their common
        label N (conjugation keeps labels), which `_validate` makes once for
        both checks."""
        N = lcm(*(v.N for row in self.rows for v in row.values))
        values = [integral_coefficients(N, row.values) for row in self.rows]
        return N, values, [integral_coefficients(N, row) for row in self.conjugates]

    def _hermitian_products(self, N, weights, xs, conj_ys) -> list[tuple[tuple[int, int], CycNum]]:
        """((i, j), sum_k weights[k] xs[i][k] conj_ys[j][k]) for each pair
        i <= j, on vectors from `_integral_table`."""
        pairs = [(i, j) for i in range(len(xs)) for j in range(i, len(xs))]
        sums = integral_weighted_sums(N, weights, xs, [[(c,) for c in vec] for vec in conj_ys], pairs)
        return [(pair, acc) for pair, (acc,) in zip(pairs, sums)]

    def _check_rows(self, table=None) -> None:
        g = self.group
        N, values, conjugates = table or self._integral_table()
        for (i, j), acc in self._hermitian_products(N, [c.size for c in g.classes], values, conjugates):
            if acc != (g.order if i == j else 0):
                raise CharTableError(f"row orthogonality fails at ({i},{j})")

    def _check_columns(self, table=None) -> None:
        g = self.group
        N, values, conjugates = table or self._integral_table()
        columns, conj_columns = list(zip(*values)), list(zip(*conjugates))
        for (ci, cj), acc in self._hermitian_products(N, [1] * len(columns), columns, conj_columns):
            want = Fraction(g.order, g.classes[ci].size) if ci == cj else 0
            if acc != want:
                raise CharTableError(f"column orthogonality fails at ({ci},{cj})")

    def row_index(self, f: ClassFunction) -> int:
        """The index of the row equal to f; KeyError when f is not a row."""
        try:
            return self._row_of[tuple(f.values)]
        except KeyError:
            raise KeyError("class function is not a row of the table") from None

    def to_json(self) -> dict:
        g = self.group
        return {
            "classes": [
                {"size": c.size, "rep_word": list(g.words[c.rep])} for c in g.classes
            ],
            "degrees": [r.degree_int() for r in self.rows],
            "rows": [r.to_json() for r in self.rows],
        }


# ---------------------------------------------------------------------------
# the Dixon prime and F_p eigenvalues (the F_p helpers live in linalg)
# ---------------------------------------------------------------------------

def _dixon_prime(exponent: int, order: int, nclasses: int) -> int:
    p = exponent + 1
    lower = max(2 * isqrt(order) + 1, nclasses + 2)
    while True:
        if p > lower and _is_prime(p) and order % p and (p - 1) % exponent == 0:
            return p
        p += 1


def _fp_eigenvalues(a: list[list[int]], p: int) -> list[int]:
    """Distinct eigenvalues of a over F_p: the roots of its characteristic
    polynomial sum_k c_k x^(d-k), by Faddeev-LeVerrier on packed rows of M_k
    (c_0 = 1, M_1 = I, c_k = -tr(a M_k) / k, M_(k+1) = a M_k + c_k I; slots
    stay below d p^2).  Each k <= d is invertible: the Dixon prime exceeds d."""
    d = len(a)
    c, m = [1], _fp_pack([[int(i == j) for i in range(d)] for j in range(d)], d, p)
    for k in range(1, d + 1):
        prod = _fp_unpack([sum(map(mul, row, m)) for row in a], d, p)
        c.append(-sum(prod[i][i] for i in range(d)) * pow(k, -1, p) % p)
        m = _fp_pack([[x + c[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(prod)], d, p)
    return [x for x in range(p) if not reduce(lambda v, ck: (v * x + ck) % p, c, 0)]  # Horner's rule


# ---------------------------------------------------------------------------
# Burnside-Dixon
# ---------------------------------------------------------------------------

def _class_constants(g: ReflectionGroup) -> list[list[list[int]]]:
    """a[i][j][k] = #{x in C_i : x^{-1} z_k in C_j} for fixed reps z_k."""
    r = len(g.classes)
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, ci in enumerate(g.classes):
        for k, ck in enumerate(g.classes):
            zk = ck.rep
            for x in ci.members:
                j = g.class_of[g.mult(g.inverse(x), zk)]
                mats[i][j][k] += 1
    return mats


def character_table(g: ReflectionGroup) -> CharacterTable:
    r = len(g.classes)
    exponent = lcm(*(g.element_orders[c.rep] for c in g.classes))
    p = _dixon_prime(exponent, g.order, r)
    z = _primitive_root_power(p, exponent)

    mats = _class_constants(g)
    # Simultaneous eigenspace refinement over F_p: split the r-dim space by
    # each class matrix in turn until all joint eigenspaces are 1-dimensional.
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(r):
        if g.classes[i].rep == g.identity or all(len(b) == 1 for b in spaces):
            continue
        mi = mats[i]
        new_spaces: list[list[list[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            imgs = [[sum(mi[row][c] * b[c] for c in range(r)) % p for row in range(r)] for b in basis]
            # Solve for all images at once: M_i b_s = sum_t act[t][s] b_t.
            system = _fp_pack([[b[c] for b in basis + imgs] for c in range(r)], 2 * d, p)
            red, pivots = _fp_rref(system, 2 * d, p)
            if pivots != list(range(d)):
                raise CharTableError("class matrix leaves subspace (bug)")
            act = [row[d:] for row in _fp_unpack(red, 2 * d, p)]
            packed = _fp_pack(act, d, p)
            bits = _fp_bits(p, d)
            for lam in _fp_eigenvalues(act, p):
                # act - lam I: p - lam added at each diagonal slot
                null = _fp_nullspace([row + (p - lam << bits * a) for a, row in enumerate(packed)], d, p)
                joined = [
                    [sum(c[t] * basis[t][col] for t in range(d)) % p for col in range(r)]
                    for c in null
                ]
                new_spaces.append(joined)
        spaces = new_spaces
    if any(len(b) != 1 for b in spaces) or len(spaces) != r:
        raise CharTableError("class algebra did not split into 1-dim eigenspaces")

    id_class = g.class_of[g.identity]
    inv_class = g.inverse_class
    # Row-independent, per class of element order m: the classes of the
    # powers rep^s, and the inverse DFT matrix zeta_m^(-t s) mod p, s, t < m.
    powers = []
    for cls in g.classes:
        m = g.element_orders[cls.rep]
        zm = pow(z, exponent // m, p)
        cur, seq = g.identity, []
        for _ in range(m):
            seq.append(g.class_of[cur])
            cur = g.mult(cur, cls.rep)
        powers.append((m, seq, [[pow(zm, -t * s % m, p) for s in range(m)] for t in range(m)]))
    N = g.conductor  # m | exponent | conductor
    rows: list[ClassFunction] = []
    for (vec,) in spaces:
        if vec[id_class] % p == 0:
            raise CharTableError("eigenvector vanishes on the identity class (bug)")
        scale = pow(vec[id_class], p - 2, p)
        omega = [x * scale % p for x in vec]
        s = sum(
            omega[j] * omega[inv_class[j]] * pow(g.classes[j].size, p - 2, p)
            for j in range(r)
        ) % p
        if s == 0:
            raise CharTableError("degree denominator vanished (bug)")
        d2 = g.order * pow(s, p - 2, p) % p
        deg = next((d for d in range(1, isqrt(g.order) + 1) if d * d % p == d2), None)
        if deg is None:
            raise CharTableError("no valid degree square root (bug)")
        chi_mod = [
            deg * omega[j] % p * pow(g.classes[j].size, p - 2, p) % p for j in range(r)
        ]
        values = []
        for m, seq, dft in powers:
            minv = pow(m, p - 2, p)
            chi_pows = [chi_mod[c] for c in seq]
            mults = [sum(map(mul, chi_pows, row)) * minv % p for row in dft]
            if max(mults) > deg:
                raise CharTableError("eigenvalue multiplicity exceeds degree (bug)")
            if sum(mults) != deg:
                raise CharTableError("eigenvalue multiplicities do not sum to degree")
            values.append(CycNum(N, {t * (N // m): k for t, k in enumerate(mults) if k}))
        rows.append(ClassFunction(g, tuple(values)))

    rows.sort(key=_row_sort_key)
    return CharacterTable(g, rows)


def _row_sort_key(row: ClassFunction):
    import json as _json

    embedded = []
    for v in row.values:
        c = v.to_complex()
        embedded.append((round(c.real, 10), round(c.imag, 10)))
    # exact JSON as the final tiebreak keeps the order fully deterministic
    return (row.degree_int(), embedded, _json.dumps(row.to_json()))


# ---------------------------------------------------------------------------
# derived characters and local data
# ---------------------------------------------------------------------------

def det_character(g: ReflectionGroup) -> ClassFunction:
    return ClassFunction(g, tuple(g.det(c.rep) for c in g.classes))


def trivial_character(g: ReflectionGroup) -> ClassFunction:
    return ClassFunction(g, tuple(CycNum.one() for _ in g.classes))


def defining_character(g: ReflectionGroup) -> ClassFunction:
    return ClassFunction(g, tuple(g.trace(c.rep) for c in g.classes))


def local_data(tau: ClassFunction, g: ReflectionGroup) -> LocalData:
    """Multiplicities of det^{-j} in the restriction to each orbit stabilizer.

    The stabilizer is <s_H> with det(s_H) = zeta_e, so det^{-j} is the
    eigenvalue zeta_e^{-j} of s_H.
    """
    deg = tau.degree_int()
    out = []
    for orbit in g.orbits:
        hp = g.hyperplanes[orbit.members[0]]
        mults = g.cyclic_multiplicities(hp.generator, tau.value_on_element)
        row = tuple(mults[-j % hp.order] for j in range(hp.order))
        if sum(row) != deg:
            raise CharTableError("local multiplicities do not sum to the degree")
        out.append(row)
    return LocalData(tuple(out))
