"""Small dense linear algebra over CycNum, and the one F_p toolkit.

Matrices are immutable tuples of tuples of CycNum (row major).  There is no exact
determinant or rank here: a group element's determinant and its fixed space
come from its spectrum (`groups`), which the traces give.

The F_p helpers (primes, roots of unity, elimination modulo a prime) serve
both the Burnside-Dixon character table in `chars` and the exact solves
here.  Their one elimination, `_fp_rref`, takes and returns packed rows: one
int per row, a slot of `_fp_bits` bits per column, so a row operation is one
big-integer multiply-add (Kronecker substitution; Harvey, J. Symbolic Comput.
44, 2009).  A slot holds a residue plus one elimination step per column;
`chars` and `_embeddings` pack and unpack lists at their boundary.
`nullspace` (and `rref` through it) works over Q(zeta_L) multi-modularly on
integer power-basis coefficients (`integral_nullspace`, which minmat feeds
directly): it eliminates the images of the system modulo primes p = 1
(mod L) under every embedding zeta_L -> r^j, each row packed straight from
its integer terms, recovers power-basis coefficients by inverting the
Vandermonde matrix of the embeddings, lifts them by CRT and rational
reconstruction, and accepts the lift only once every row times every vector
is checked to be 0 exactly, in Z[zeta_L] on packed integers (`_certified`).
The integer forms come from `exact`: `integral_terms` for the rows and the
lifted vectors, `kronecker_pack` for the packed certificate.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from .exact import (
    CycNum, ExactError, ZERO, ONE, euler_phi, from_integral, integral_terms, kronecker_pack, prime_factors,
    slot_bits,
)

Matrix = tuple[tuple[CycNum, ...], ...]
Vector = tuple[CycNum, ...]
Term = tuple[int, int, Sequence[int]]  # (column, conductor N, integer coefficients at N)


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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: CycNum) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j].conjugate() for i in range(len(a))) for j in range(len(a[0])))


def is_identity(a: Matrix) -> bool:
    return all(x == (1 if i == j else 0) for i, row in enumerate(a) for j, x in enumerate(row))


def is_unitary(a: Matrix) -> bool:
    return is_identity(mat_mul(a, conj_transpose(a)))


def trace(a: Matrix) -> CycNum:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def rref(rows: Sequence[Sequence[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Read off the `nullspace` basis: row t has 1 at pivot t and -v[pivot t] at
    the free column of each basis vector v; zero rows pad to the input count.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    free = {max(c for c, x in enumerate(v) if not x.is_zero()): v for v in nullspace(rows)}
    pivots = [c for c in range(ncols) if c not in free]
    red = [
        [ONE if c == pc else -free[c][pc] if c in free else ZERO for c in range(ncols)]
        for pc in pivots
    ]
    return red + [[ZERO] * ncols for _ in range(len(rows) - len(red))], pivots


def nullspace(a: Sequence[Sequence[CycNum]]) -> list[Vector]:
    """Basis of {v : a v = 0}: the reduced-echelon basis, one vector per free
    column, with 1 there, 0 at the other free columns and after it.

    Recovered entries carry the lcm of the conductor labels of `a`, zeros
    included; the ones at free columns have conductor 1.  The rows go to
    `integral_nullspace` scaled to integers by `exact.integral_terms`.
    """
    if not a:
        return []
    label = lcm(1, *(x.N for row in a for x in row))
    rows = [[(c, N, co) for c, (N, co) in enumerate(integral_terms(row)[1]) if any(co)] for row in a]
    return integral_nullspace(rows, len(a[0]), label)


def integral_nullspace(rows: Sequence[Sequence[Term]], ncols: int, label: int) -> list[Vector]:
    """`nullspace` of the system whose row i has the entry of each of its
    terms (column c, conductor N, integer power-basis coefficients at N, one
    per exponent 0 .. phi(N) - 1) at column c, terms at one column adding, and
    zeros elsewhere.  Rational entries have conductor 1.  Recovered entries
    carry `label`.  Without rows every column is free: the basis is the
    identity.

    Found modulo primes and then checked exactly (see the module docstring).
    Each distinct term is evaluated once per embedding and shifted into its
    column's slot, so a row of the image is one packed int (`_fp_rref`), and
    embeddings that give the same image are eliminated once.  Over F_p the
    nullity can only grow, so a lift that passes the check spans the whole
    kernel and, having the reduced-echelon shape, is its unique
    reduced-echelon basis.

    Raises ExactError if no lift passes within _PRIME_BUDGET primes, enough
    for coefficients of up to about 990 bits (the corpus needs one prime).
    """
    # Eliminate at the conductor of the irrational terms; rationals need none.
    conductors = {1} | {N for row in rows for _, N, _ in row}
    L = lcm(*conductors)
    phi = euler_phi(L)
    index: dict[tuple[int, tuple[int, ...]], int] = {}  # distinct (N, coeffs) -> its number
    shape = [[(c, index.setdefault((N, tuple(co)), len(index))) for c, N, co in row] for row in rows]
    best = None  # (nullity, negated free columns) of the reductions kept
    moduli: list[int] = []
    images: list[list[int]] = []  # per kept prime: coefficients of every entry
    for i in range(_PRIME_BUDGET):
        p, nodes, vinv = _embeddings(L, i)
        bits = _fp_bits(p, ncols)
        spaces = []
        seen: dict[tuple[int, ...], list[list[int]]] = {}  # entries' images -> kernel
        for w in nodes:
            # zeta_N = zeta_L^(L/N) maps to w^(L/N)
            powers = {N: [pow(w, L // N * k, p) for k in range(euler_phi(N))] for N in conductors}
            values = tuple(sum(map(mul, co, powers[N])) % p for N, co in index)
            # Embeddings that agree on the entries agree on the result.
            if values not in seen:
                seen[values] = _fp_nullspace([sum(values[t] << bits * c for c, t in row) for row in shape], ncols, p)
            spaces.append(seen[values])
        # A bad prime or embedding gains nullity or moves free columns left.
        keys = [
            (len(space), [-max(c for c in range(ncols) if v[c]) for v in space])
            for space in spaces
        ]
        if best is None or min(keys) < best:
            best, moduli, images = min(keys), [], []
        if any(k != best for k in keys):
            continue
        moduli.append(p)
        images.append([
            sum(map(mul, vrow, ys)) % p
            for vecs in zip(*spaces) for ys in zip(*vecs) for vrow in vinv
        ])
        lifted = _lift(moduli, images, ncols * phi)
        if lifted is None:
            continue
        vectors = [
            [from_integral(L, enumerate(nums[c * phi : (c + 1) * phi]), den) for c in range(ncols)]
            for den, nums in lifted
        ]
        if _certified(rows, L, vectors):
            return [
                tuple(
                    ONE if c == fc else ZERO if x.is_zero() else x.promote(label)
                    for c, x in enumerate(vec)
                )
                for fc, vec in zip((-c for c in best[1]), vectors)
            ]
    raise ExactError(f"nullspace not certified within {_PRIME_BUDGET} primes")


def _certified(rows: Sequence[Sequence[Term]], L: int, vectors: list[list[CycNum]]) -> bool:
    """Exact check, in Z[zeta_L], that every row annihilates every vector.

    Each vector is scaled to integers by the lcm of its denominators, which
    roots of unity keep.  For each column c and each power zeta_L^j a term
    can carry (j = k L/N), the coefficients of zeta_L^j v[c] for all the
    vectors are packed into one int, vector b from slot b phi(L) on.  A row
    is then one big-integer multiply-add per term and power, and its digits
    are the reduced coefficients of row . v for every v.  Each digit is at
    most the l1 norm of the row times the largest such coefficient, which
    sizes the slots; balanced digits that fit pack 0 only when all are 0.
    """
    if not rows or not vectors:
        return True
    phi = euler_phi(L)
    conductors = {N for row in rows for _, N, _ in row}
    shifts = {k * (L // N) for N in conductors for k in range(euler_phi(N))}
    scaled = [[co if any(co) else [] for _, co in integral_terms(vec)[1]] for vec in vectors]
    # power j -> vector -> column: the integer coefficients of zeta_L^j v[c],
    # coefficient t being sum_s v[c]_s times coefficient t of zeta_L^(j + s)
    zetas = _zeta_powers(L)
    images = {}
    for j in shifts:
        by_coeff = list(zip(*(zetas[(j + s) % L] for s in range(phi))))
        images[j] = [[[sum(map(mul, co, t)) for t in by_coeff] if co else co for co in v] for v in scaled]
    bound = max(sum(sum(map(abs, coeffs)) for _, _, coeffs in row) for row in rows) * max(
        (max(map(abs, co)) for vecs in images.values() for vec in vecs for co in vec if co), default=0
    )
    bits = slot_bits(bound)
    packed = {j: [kronecker_pack(col, bits, phi) for col in zip(*vecs)] for j, vecs in images.items()}
    # conductor N, column c -> the packed zeta_N^k v[c], k < phi(N)
    powers = {N: list(zip(*(packed[k * (L // N)] for k in range(euler_phi(N))))) for N in conductors}
    return not any(sum(sum(map(mul, coeffs, powers[N][c])) for c, N, coeffs in row) for row in rows)


@lru_cache(maxsize=None)
def _zeta_powers(L: int) -> tuple[tuple[int, ...], ...]:
    """The power-basis coefficients at L of zeta_L^e, for each e < L."""
    phi = euler_phi(L)
    _, terms = integral_terms(CycNum.zeta(L, e) for e in range(L))
    return tuple(tuple(co) + (0,) * (phi - len(co)) for _, co in terms)


def _lift(moduli: list[int], images: list[list[int]], width: int) -> list[tuple[int, list[int]]] | None:
    """CRT of the residue lists, then the fraction a/b = x (mod m) with
    |a|, b <= sqrt(m/2) for each entry; each block of `width` entries comes
    back as (den, numerators): the lcm of its b, and each a times den / b.
    None while some entry has none."""
    m, acc = moduli[0], images[0]
    for p, res in zip(moduli[1:], images[1:]):
        minv = pow(m, -1, p)
        acc = [x + m * ((y - x) * minv % p) for x, y in zip(acc, res)]
        m *= p
    bound = isqrt(m // 2)
    out = []
    for start in range(0, len(acc), width):
        fractions = []
        for x in acc[start : start + width]:
            r0, r1, s0, s1 = m, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound or gcd(r1, s1) != 1:
                return None
            fractions.append((r1, s1) if s1 > 0 else (-r1, -s1))
        den = lcm(1, *(b for _, b in fractions))
        out.append((den, [a * (den // b) for a, b in fractions]))
    return out


def mat_to_complex(a: Matrix):
    import numpy as np

    return np.array([[x.to_complex() for x in row] for row in a], dtype=complex)


# ---------------------------------------------------------------------------
# F_p toolkit
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7, which is exact below 3215031751."""
    if n >= 3215031751:
        raise ValueError("primality test out of range")
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in (2, 3, 5, 7):
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive_root_power(p: int, e: int) -> int:
    """An element of multiplicative order exactly e in F_p (requires e | p-1)."""
    if e == 1:
        return 1
    qs = prime_factors(e)
    for g in range(2, p):
        x = pow(g, (p - 1) // e, p)
        if x != 1 and all(pow(x, e // q, p) != 1 for q in qs):
            return x
    raise ExactError("no element of the requested order found (bug)")


_PRIME_LIMIT = 1 << 31  # keeps the packed slots of _fp_rref small
_PRIME_BUDGET = 64  # primes nullspace tries before it gives up


@lru_cache(maxsize=None)
def _embeddings(L: int, i: int) -> tuple[int, list[int], list[list[int]]]:
    """The i-th largest prime p < 2^31 with p = 1 (mod L); the images r^j of
    zeta_L in F_p under its phi(L) embeddings (j prime to L, r of order L);
    and the inverse of their Vandermonde matrix, which maps the images of an
    element of Q(zeta_L) back to its power-basis coefficients modulo p."""
    p = (_PRIME_LIMIT - 2) // L * L + 1 if i == 0 else _embeddings(L, i - 1)[0] - L
    while not _is_prime(p):
        p -= L
    r = _primitive_root_power(p, L)
    nodes = [pow(r, j, p) for j in range(L) if gcd(j, L) == 1]
    n = len(nodes)
    # [V | I] reduces to [I | V^-1]
    vander = [[pow(w, k, p) for k in range(n)] + [int(j == k) for k in range(n)]
              for j, w in enumerate(nodes)]
    red, _ = _fp_rref(_fp_pack(vander, 2 * n, p), 2 * n, p)
    return p, nodes, [row[n:] for row in _fp_unpack(red, 2 * n, p)]


def _fp_bits(p: int, n: int) -> int:
    """Width of a slot of a packed F_p row of n columns: room for a value
    below p^2 (a residue, or the sum of fewer than p of them) plus n
    elimination steps of at most (p - 1)^2 each."""
    return 2 * p.bit_length() + n.bit_length()


def _fp_pack(rows: Sequence[Sequence[int]], n: int, p: int) -> list[int]:
    """Rows of n integers as packed F_p rows: slot c holds entry c mod p."""
    bits = _fp_bits(p, n)
    return [sum(x % p << bits * c for c, x in enumerate(row)) for row in rows]


def _fp_unpack(rows: Sequence[int], n: int, p: int) -> list[list[int]]:
    bits = _fp_bits(p, n)
    mask = (1 << bits) - 1
    return [[(r >> bits * c & mask) % p for c in range(n)] for r in rows]


def _fp_rref(rows: Sequence[int], n: int, p: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F_p of packed rows of n columns: (the
    nonzero rows, packed, their pivot columns).

    A packed row is one int with a slot of `_fp_bits(p, n)` bits per column,
    column c at bit c * bits, each holding a nonnegative value below p^2, so
    a row operation is one big-integer multiply-add.  Slots are reduced mod p
    only when read: x - f*y is done as x + (p - f)*y with y < p, and a slot
    has room for one such step per column.  The rows still to reduce are
    shifted one slot right per column, so their lowest slot is the current
    column and a row whose slots are all 0 drops out.  A pivot row is
    normalized from its own slots after the pivot (those before are 0 mod p).
    """
    bits = _fp_bits(p, n)
    mask = (1 << bits) - 1
    todo = [r for r in rows if r]
    done: list[int] = []
    pivots: list[int] = []
    for c in range(n):
        k = next((i for i, r in enumerate(todo) if (r & mask) % p), None)
        if k is None:
            todo = [x for r in todo if (x := r >> bits)]
            continue
        row = todo.pop(k)
        inv = pow((row & mask) % p, -1, p)
        prow = 1
        for s in range(bits, bits * (n - c), bits):
            if v := (row >> s & mask) % p:
                prow += v * inv % p << s
        todo = [x for r in todo if (x := (r + (p - f) * prow if (f := (r & mask) % p) else r) >> bits)]
        prow <<= bits * c
        done = [r + (p - f) * prow if (f := (r >> bits * c & mask) % p) else r for r in done]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def _fp_nullspace(rows: Sequence[int], n: int, p: int) -> list[list[int]]:
    """Reduced-echelon basis of the kernel of rows packed as for `_fp_rref`,
    one list of n residues per free column: 1 there, and at each pivot minus
    the pivot row's slot at that free column, the only slots read."""
    red, pivots = _fp_rref(rows, n, p)
    bits = _fp_bits(p, n)
    mask = (1 << bits) - 1
    out = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = [int(c == fc) for c in range(n)]
        for r, pc in zip(red, pivots):
            v[pc] = -(r >> bits * fc & mask) % p
        out.append(v)
    return out
