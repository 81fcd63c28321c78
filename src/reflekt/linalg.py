"""Small dense linear algebra over CycNum.

Matrices are immutable tuples of tuples of CycNum (row major), so they can be
hashed and used as dictionary keys during group enumeration.
"""
from __future__ import annotations

from typing import Sequence

from .exact import CycNum, ZERO, ONE

Matrix = tuple[tuple[CycNum, ...], ...]
Vector = tuple[CycNum, ...]


def mat(rows: Sequence[Sequence[CycNum]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    bt = list(zip(*b))
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            bj = bt[j]
            s = ZERO
            for t in range(k):
                x = ai[t]
                if not x.is_zero():
                    y = bj[t]
                    if not y.is_zero():
                        s = s + x * y
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence[CycNum]) -> Vector:
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if not x.is_zero() and not y.is_zero():
                s = s + x * y
        out.append(s)
    return tuple(out)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: CycNum) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j].conjugate() for i in range(len(a))) for j in range(len(a[0])))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def is_identity(a: Matrix) -> bool:
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x != (1 if i == j else 0):
                return False
    return True


def is_unitary(a: Matrix) -> bool:
    return is_identity(mat_mul(a, conj_transpose(a)))


def trace(a: Matrix) -> CycNum:
    s = ZERO
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def rref(rows: Sequence[Sequence[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + m[r:], pivots


def rank(a: Sequence[Sequence[CycNum]]) -> int:
    _, pivots = rref(a)
    return len(pivots)


def nullspace(a: Sequence[Sequence[CycNum]]) -> list[Vector]:
    """Basis of {v : a v = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def column_space_basis(a: Sequence[Sequence[CycNum]]) -> list[Vector]:
    """Basis of the column span, as original columns (greedy pivot selection)."""
    return independent_subset(list(zip(*a)))


def independent_subset(vectors: Sequence[Sequence[CycNum]]) -> list[Vector]:
    """Greedy maximal linearly independent subset, in the given order."""
    reduced: list[list[CycNum]] = []  # echelon accumulators
    pivots: list[int] = []
    out: list[Vector] = []
    for v in vectors:
        w = list(v)
        for row, p in zip(reduced, pivots):
            if not w[p].is_zero():
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        p = next((i for i, x in enumerate(w) if not x.is_zero()), None)
        if p is None:
            continue
        inv = w[p].inverse()
        w = [x * inv for x in w]
        reduced.append(w)
        pivots.append(p)
        out.append(tuple(v))
    return out


def det(a: Matrix) -> CycNum:
    n = len(a)
    m = [list(r) for r in a]
    out = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out = out * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def mat_to_complex(a: Matrix):
    import numpy as np

    return np.array([[x.to_complex() for x in row] for row in a], dtype=complex)
