"""Exact irreducible character tables and local restriction data.

The table is computed with the classical Burnside-Dixon method: the class
constant matrices, counted column-wise over the Cayley graph, are
simultaneously diagonalized over a prime field F_p with p = 1 (mod
exponent(W)), p not dividing |W| and p > 2*sqrt(|W|).  F_p vectors are packed
one int each (`linalg._fp_pack`), so an image M_i b or a join of basis vectors
is at most r big-integer multiply-adds, and each block's eigenvalues are the
roots of its Krylov chain polynomials, which multiply to its characteristic
polynomial.  Eigenvalue multiplicities of each element recover the character
values as exact sums of roots of unity, each built once, at the group
conductor.  The finished table is certified by exact row and column
orthogonality at every pair; any inconsistency raises, with no approximate
fallback.  Character values are algebraic integers, each packed into one int
(`exact.integral_coefficients`, once for the table and its `conjugates`), so
every Hermitian product sum_c |c| chi(c) conj(psi(c)) is r big-integer
multiply-adds, reduced modulo Phi_N once; ClassFunction.inner uses the same
product.  A row is found by its values, whose hashes agree across labels.

Row order is canonical: by degree, then lexicographically on the numerically
embedded values (exact JSON as the final tiebreak), so cross-run row
references are stable.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from fractions import Fraction
from math import isqrt, lcm
from operator import add, mul
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
    """Distinct eigenvalues of a over F_p, from Krylov chains v, a v, a^2 v, ...
    on packed columns of a, started from e_0, e_1, ... until they span F_p^d.
    A chain stops at its first vector that depends on all earlier ones; each
    vector is reduced with a unit slot of its own beside its d entries, so the
    dependency leaves the monic q with q(a) v in the earlier chains' span.
    That span is a-invariant, so a is block triangular with companion blocks
    in the chain basis and the q multiply to its characteristic polynomial:
    their roots are exactly a's eigenvalues, for every matrix."""
    d = len(a)
    columns, bits = _fp_pack(list(zip(*a)), d, p), _fp_bits(p, 2 * d + 1)
    mask, stored, factors = (1 << bits) - 1, [], []  # stored: (pivot, packed row with 1 there)
    for start in range(d):
        first, vec = d + len(stored), [int(i == start) for i in range(d)]
        while True:
            w = sum(x << bits * i for i, x in enumerate(vec)) + (1 << bits * (d + len(stored)))
            for c, row in stored:
                if f := (w >> bits * c & mask) % p:
                    w += (p - f) * row
            slots = [(w >> bits * i & mask) % p for i in range(d + len(stored) + 1)]
            if not any(slots[:d]):
                factors.append(slots[first:])
                break
            c, inv = next((i, pow(x, -1, p)) for i, x in enumerate(slots) if x)
            stored.append((c, sum(x * inv % p << bits * i for i, x in enumerate(slots))))
            vec = _fp_unpack([sum(map(mul, vec, columns))], d, p)[0]
        if len(stored) == d:
            break
    roots = set()
    for q in factors:  # Horner's rule at every x at once
        values = reduce(lambda vs, ck: [(v * x + ck) % p for x, v in enumerate(vs)], reversed(q), [0] * p)
        roots.update(x for x, v in enumerate(values) if not v)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Burnside-Dixon
# ---------------------------------------------------------------------------

def _class_constants(g: ReflectionGroup) -> list[list[list[int]]]:
    """a[i][j][k] = #{x in C_i : x^{-1} z_k in C_j} for the class reps z_k,
    counted column-wise: each z_k's word is applied letter by letter to the
    list of all inverses, one generator column w -> w s per letter, and the
    pairs (class of x, class of x^{-1} z_k) are counted over all x at once."""
    r, class_of = len(g.classes), g.class_of
    columns = [[g.mult(w, s) for w in range(g.order)] for s in g.generator_elements]
    keys = [r * c for c in class_of]
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, ck in enumerate(g.classes):
        cur = g.inverse_table
        for a in g.words[ck.rep]:
            cur = list(map(columns[a].__getitem__, cur))
        for key, n in Counter(map(add, keys, map(class_of.__getitem__, cur))).items():
            mats[key // r][key % r][k] = n
    return mats


def character_table(g: ReflectionGroup) -> CharacterTable:
    r = len(g.classes)
    exponent = lcm(*(g.element_orders[c.rep] for c in g.classes))
    p = _dixon_prime(exponent, g.order, r)
    z = _primitive_root_power(p, exponent)

    mats = _class_constants(g)
    # Simultaneous eigenspace refinement over F_p: split the r-dim space by
    # each class matrix in turn until all joint eigenspaces are 1-dimensional.
    # Images M_i b and joins sum_t c_t b_t are packed products, r slots each.
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(r):
        if g.classes[i].rep == g.identity or all(len(b) == 1 for b in spaces):
            continue
        columns = _fp_pack(list(zip(*mats[i])), r, p)
        new_spaces: list[list[list[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            imgs = _fp_unpack([sum(map(mul, b, columns)) for b in basis], r, p)
            # Solve for all images at once: M_i b_s = sum_t act[t][s] b_t.
            system = _fp_pack([[b[c] for b in basis + imgs] for c in range(r)], 2 * d, p)
            red, pivots = _fp_rref(system, 2 * d, p)
            if pivots != list(range(d)):
                raise CharTableError("class matrix leaves subspace (bug)")
            act = [row[d:] for row in _fp_unpack(red, 2 * d, p)]
            packed, packed_basis = _fp_pack(act, d, p), _fp_pack(basis, r, p)
            bits = _fp_bits(p, d)
            for lam in _fp_eigenvalues(act, p):
                # act - lam I: p - lam added at each diagonal slot
                null = _fp_nullspace([row + (p - lam << bits * a) for a, row in enumerate(packed)], d, p)
                new_spaces.append(_fp_unpack([sum(map(mul, c, packed_basis)) for c in null], r, p))
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
