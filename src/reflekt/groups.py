"""Finite complex reflection groups as permutation groups on their roots.

A group is built from a descriptor:

    S<n>            symmetric group on the (n-1)-dimensional zero-sum subspace
    G(<m>,<p>,<n>)  imprimitive group of m-th-root monomial matrices, p | m
    file:<path>     JSON list of square unitary generator matrices

The symmetric group is realized in the discrete-Fourier basis of the zero-sum
subspace of C^n, which keeps the permutation matrices exactly unitary with
entries in Q(zeta_n) (the 1/sqrt(n) normalizations cancel in conjugation).

The group acts faithfully on X, the W-orbit of a basis B of V drawn from the
columns of the s - 1, and from a basis of V^W when they miss it
(V = V^W + sum_s im(s - 1) for unitary s).  X is searched on integers, each
vector keyed by its B-coordinates' power-basis coefficients over one
denominator in lowest terms, and kept as CycNum coordinates at the
generators' label N0.  Enumeration is breadth-first over generator words; an
element w is keyed by w(b_0), .., w(b_{n-1}), which determine it, and its
whole permutation of X is kept only from its discovery to its expansion.  It
stores the first word reaching each element (shortest, then
lexicographically smallest), the Cayley graph of right multiplication
(rmul[i][g] = index of w_i * s_g), the BFS tree (w_j = w_parent(j) * s_last)
and, from the tree, left multiplication by each s_g^-1.  Products walk the
word of w_j from i; inverses and conjugacy classes are lookups, element
orders the powers of the class representatives, and the hyperplanes come
from the graph too: W_H is cyclic, 1 and the reflections of H, so taken by
decreasing order each unassigned reflection generates its W_H
(`hyperplane_of`); since w s_H w^-1 = s_{w(H)}, the orbit of H is the
hyperplanes whose s_H' is conjugate to s_H, and its product pi_C of forms is
built when read.  The matrix M of w in B-coordinates has the
w(b_j) for columns: the trace of w is a sum of n coordinates, a moving row of
M - 1 times B^-1 is the form of a reflection, and B M B^-1 is built on each
call of `matrix`, for the substitution f(w v) (`substitute`), the
equivariant solves of `minmat` and numerical transport.  Substitution runs
on integers: with delta the lcm of the denominators of the matrix A of w
(or of its M, for the root orbit) and N the label of its irrational
entries, the images (delta A v)^e of the monomials e of degree q are
integer power-basis coefficients at N (denominator delta^q), built degree
by degree, reduced modulo Phi_N and kept per element (`_MonomialImages`,
`monomial_images`), in the integer form of
`exact` (`integral_terms` in, `from_integral` out).  The spectrum of each class
representative is the discrete Fourier transform of the traces of its powers,
on integers; the determinant, the reflections (eigenvalue 1 of multiplicity
dim - 1) and det(1 - T w) come from it, and so do the degrees: by
Shephard-Todd, sum_w T^{dim V^w} = prod_i (T + d_i - 1), an integer
polynomial whose roots are peeled off exactly.  The coinvariant graded trace
G_c = prod_i (1 - T^{d_i}) / det(1 - T c) divides the integer numerator by
1 - lambda T per eigenvalue lambda in Z[x]/(x^o - 1), and each remainder must
reduce to 0.  Everything is exact; all data is immutable after construction.

Where rescaling the b_j makes every generator's M rational, B is rescaled
(`_act_on_roots`): S_n's M are then integer matrices on its simple roots and
its X is its root system.  `minmat` imposes the elements that are `diagonal`
on V, S_n's `coxeter_element` among them, on the unknowns of its solves.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from collections import deque
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .exact import (
    CycNum,
    ExactError,
    MultiPoly,
    PolyT,
    ZERO,
    ONE,
    euler_phi,
    from_integral,
    integral_terms,
    poly_one_minus_Tk,
)
from . import linalg
from .linalg import Matrix, Vector

DEFAULT_MAX_ORDER = 50_000


class GroupBuildError(Exception):
    """Invalid descriptor or a constructor-level failure."""


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class Descriptor(NamedTuple):
    kind: str  # "sym" | "imprimitive" | "file"
    n: int = 0
    m: int = 0
    p: int = 0
    path: str = ""

    def canonical(self) -> str:
        if self.kind == "sym":
            return f"S{self.n}"
        if self.kind == "imprimitive":
            return f"G({self.m},{self.p},{self.n})"
        return f"file:{self.path}"


def parse_descriptor(text: str) -> Descriptor:
    text = text.strip()
    if text.startswith("file:"):
        return Descriptor(kind="file", path=text[5:])
    if text.startswith("S") or text.startswith("s"):
        try:
            n = int(text[1:])
        except ValueError:
            raise GroupBuildError(f"bad symmetric-group descriptor {text!r}")
        if n < 2:
            raise GroupBuildError("S<n> needs n >= 2")
        return Descriptor(kind="sym", n=n)
    if text.startswith("G(") and text.endswith(")"):
        parts = text[2:-1].split(",")
        if len(parts) != 3:
            raise GroupBuildError(f"bad imprimitive descriptor {text!r}")
        try:
            m, p, n = (int(x) for x in parts)
        except ValueError:
            raise GroupBuildError(f"bad imprimitive descriptor {text!r}")
        if p < 1 or n < 1 or m < 1:
            raise GroupBuildError("G(m,p,n) needs positive m, p, n")
        if m % p:
            raise GroupBuildError(f"G({m},{p},{n}): p does not divide m")
        if m < 2:
            raise GroupBuildError("G(m,p,n) needs m >= 2")
        if n == 1 and p != 1:
            raise GroupBuildError("G(m,p,1) needs p = 1")
        return Descriptor(kind="imprimitive", m=m, p=p, n=n)
    raise GroupBuildError(f"unrecognized group descriptor {text!r}")


# ---------------------------------------------------------------------------
# generator constructions
# ---------------------------------------------------------------------------

def _sym_generator_matrices(n: int) -> list[Matrix]:
    """Adjacent transpositions of S_n on the zero-sum subspace, Fourier basis.

    Basis vectors are v_j = sum_b zeta_n^{jb} e_b / sqrt(n), j = 1..n-1.  The
    conjugated permutation matrix has (j,k) entry (1/n) sum_b zeta^{j sigma(b) - k b}.
    """
    mats = []
    ninv = Fraction(1, n)
    for t in range(n - 1):
        sigma = list(range(n))
        sigma[t], sigma[t + 1] = sigma[t + 1], sigma[t]
        rows = []
        for j in range(1, n):
            row = []
            for k in range(1, n):
                raw: dict[int, Fraction] = {}
                for b in range(n):
                    e = (j * sigma[b] - k * b) % n
                    raw[e] = raw.get(e, Fraction(0)) + ninv
                row.append(CycNum(n, raw))
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return mats


def _imprimitive_generator_matrices(m: int, p: int, n: int) -> list[Matrix]:
    """Standard generators of G(m,p,n) as monomial matrices over Q(zeta_m)."""
    zeta = CycNum.zeta(m)
    gens: list[Matrix] = []

    def monomial(perm: list[int], scalars: list[CycNum]) -> Matrix:
        # e_j -> scalars[j] * e_{perm[j]}:  column j has scalars[j] at row perm[j]
        rows = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            rows[perm[j]][j] = scalars[j]
        return tuple(tuple(r) for r in rows)

    if p < m:
        # diagonal reflection of order m/p
        gens.append(monomial(list(range(n)), [zeta**p] + [ONE] * (n - 1)))
    if n >= 2 and p > 1:
        # twisted transposition: e_1 -> zeta^-1 e_2, e_2 -> zeta e_1
        perm = list(range(n))
        perm[0], perm[1] = 1, 0
        scal = [zeta ** (m - 1), zeta] + [ONE] * (n - 2)
        gens.append(monomial(perm, scal))
    for t in range(n - 1):
        perm = list(range(n))
        perm[t], perm[t + 1] = perm[t + 1], perm[t]
        gens.append(monomial(perm, [ONE] * n))
    return gens


def _file_generator_matrices(path: str) -> list[Matrix]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GroupBuildError(f"cannot read generator file: {exc}")
    except json.JSONDecodeError as exc:
        raise GroupBuildError(f"generator file is not valid JSON: {exc}")
    if not isinstance(data, list) or not data:
        raise GroupBuildError("generator file must be a nonempty JSON list of matrices")
    mats = []
    for mdata in data:
        try:
            rows = [tuple(CycNum.from_json(x) for x in row) for row in mdata]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise GroupBuildError(f"generator file has a malformed entry: {exc!r}") from None
        if not rows or any(len(r) != len(rows) for r in rows):
            raise GroupBuildError("generator matrices must be square and nonempty")
        mats.append(tuple(rows))
    if len({len(m) for m in mats}) != 1:
        raise GroupBuildError("generator matrices must share one dimension")
    return mats


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomials(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of total degree q in n variables, in descending
    lexicographic order."""
    if n == 1:
        return ((q,),)
    return tuple((a,) + rest for a in range(q, -1, -1) for rest in monomials(n - 1, q - a))


@lru_cache(maxsize=None)
def _monomial_index(n: int, q: int) -> dict[tuple[int, ...], int]:
    return {e: d for d, e in enumerate(monomials(n, q))}


@lru_cache(maxsize=None)
def _monomial_steps(n: int, q: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """(down, up) between degrees q - 1 and q >= 1, by index in `monomials`:
    down[d] = (k, index of x^e / x_k) with e the d-th monomial of degree q and
    x_k its last variable; up[d][j] = index of x_j x^e, e the d-th monomial of
    degree q - 1."""
    lower = _monomial_index(n, q - 1)
    index = _monomial_index(n, q)
    down = []
    for e in monomials(n, q):
        k = max(j for j, a in enumerate(e) if a)
        down.append((k, lower[e[:k] + (e[k] - 1,) + e[k + 1 :]]))
    up = tuple(
        tuple(index[e[:j] + (e[j] + 1,) + e[j + 1 :]] for j in range(n)) for e in monomials(n, q - 1)
    )
    return tuple(down), up


class _MonomialImages:
    """The integer images (delta A v)^e of the monomials e under one matrix A,
    kept for every degree up to the highest one asked and built degree by
    degree: the image of e is the image of e over its last variable x_k,
    times row k of delta A.

    N is the lcm of the labels of A's irrational entries (1 when all are
    rational) unless given, and delta the lcm of their denominators; rows[k]
    holds one (j, cols) per nonzero b = delta A[k][j], with cols[t][a]
    coefficient t of zeta_N^a b reduced modulo Phi_N, so (c b)_t = sum_a c_a
    cols[t][a].  Only ints are stored, so one group's conductor labels cannot
    reach another's.
    """

    def __init__(self, a: Matrix, N: int | None = None):
        entries = [(k, j, x) for k, row in enumerate(a) for j, x in enumerate(row) if not x.is_zero()]
        N = N or lcm(1, *(x.N for _, _, x in entries if not x.is_rational()))
        phi = euler_phi(N)
        delta, terms = integral_terms(x * CycNum.zeta(N, b) for _, _, x in entries for b in range(phi))
        self.rows: list[list[tuple[int, tuple]]] = [[] for _ in a]
        for m, (k, j, _) in enumerate(entries):
            block = [c + [0] * (phi - len(c)) for _, c in terms[m * phi : (m + 1) * phi]]
            self.rows[k].append((j, tuple(zip(*block))))
        self.N, self.delta = N, delta
        self.layers = [[{0: (1,) + (0,) * (phi - 1)}]]

    def degree(self, q: int) -> tuple[int, int, list[dict[int, tuple[int, ...]]]]:
        """(N, delta, images) at degree q, as `ReflectionGroup.monomial_images`."""
        if q == 0:
            return 1, 1, [{0: (1,)}]
        layers, rows, n = self.layers, self.rows, len(self.rows)
        while len(layers) <= q:
            down, up = _monomial_steps(n, len(layers))
            prev = layers[-1]
            layer = []
            for k, lower in down:
                out: dict[int, tuple[int, ...]] = {}
                for m, c in prev[lower].items():
                    ups = up[m]
                    for j, cols in rows[k]:
                        t = ups[j]
                        prod = [sum(map(mul, c, col)) for col in cols]
                        acc = out.get(t)
                        out[t] = tuple(prod) if acc is None else tuple(map(add, acc, prod))
                layer.append({t: v for t, v in out.items() if any(v)})
            layers.append(layer)
        return self.N, self.delta, layers[q]


# ---------------------------------------------------------------------------
# group data
# ---------------------------------------------------------------------------

class Hyperplane(NamedTuple):
    """One reflection hyperplane: normalized linear form, cyclic stabilizer."""

    form: Vector            # row covector, first nonzero coefficient = 1
    alpha: MultiPoly        # the same form as a polynomial on V
    order: int              # e_H
    generator: int          # element index of s_H, det(s_H) = zeta_{e_H}
    stabilizer: tuple[int, ...]


class HyperplaneOrbit:
    def __init__(self, members: tuple[int, ...], order: int, alphas: tuple[MultiPoly, ...]):
        self.members = members
        self.order = order  # common e_C
        self.alphas = alphas  # the member forms

    @cached_property
    def pi(self) -> MultiPoly:
        """The product of the member forms, built when first read."""
        return reduce(mul, self.alphas, MultiPoly.constant(self.alphas[0].nvars, 1))


class ConjugacyClass(NamedTuple):
    rep: int
    members: tuple[int, ...]
    size: int


class ReflectionGroup:
    """Fully enumerated unitary reflection group with its invariant data."""

    def __init__(self, descriptor: Descriptor, max_order: int = DEFAULT_MAX_ORDER):
        self.descriptor = descriptor
        self.max_order = max_order
        if descriptor.kind == "sym":
            gen_mats = _sym_generator_matrices(descriptor.n)
            expected = math.factorial(descriptor.n)
        elif descriptor.kind == "imprimitive":
            gen_mats = _imprimitive_generator_matrices(descriptor.m, descriptor.p, descriptor.n)
            expected = descriptor.m ** descriptor.n * math.factorial(descriptor.n) // descriptor.p
        else:
            gen_mats = _file_generator_matrices(descriptor.path)
            expected = None
        if expected is not None and expected > max_order:
            raise GroupBuildError(
                f"estimated order {expected} exceeds the cap {max_order}"
            )

        # Uniform conductor across generator entries.
        n0 = lcm(*(x.N for mt in gen_mats for row in mt for x in row))
        gen_mats = [
            tuple(tuple(x.promote(n0) for x in row) for row in mt) for mt in gen_mats
        ]
        self.dimension = len(gen_mats[0])
        for mt in gen_mats:
            if not linalg.is_unitary(mt):
                raise GroupBuildError("non-unitary generator matrix")
        self.generator_matrices = gen_mats
        self.entry_label = n0  # N0, the label of every generator entry
        self._images: dict[int, _MonomialImages] = {}  # see monomial_images

        self._enumerate(max_order)
        if expected is not None and self.order != expected:
            raise GroupBuildError(
                f"enumeration found {self.order} elements, expected {expected} (bug)"
            )
        self._find_classes()
        self._element_orders()
        self.conductor = lcm(n0, *self.element_orders) if self.order > 1 else n0
        self._find_spectra()
        self._find_reflections()
        self._find_hyperplanes()
        if descriptor.kind == "file":
            self._check_reflections_generate()
        self._find_orbits()
        self._find_degrees()

    # -- enumeration --------------------------------------------------------

    def _enumerate(self, max_order: int) -> None:
        """Breadth-first search over generator words, each element keyed by
        its first n points: w s by w's whole permutation of X at the s(b_j).
        That permutation is composed only for a new element and dropped once
        it is expanded; the keys are what `_coordinate_matrix` reads."""
        gens = self._act_on_roots(max_order)
        n = self.dimension
        heads = [s[:n] for s in gens]
        ident = tuple(range(len(self._roots)))
        keys: list[tuple[int, ...]] = [ident[:n]]
        index = {ident[:n]: 0}
        pending = deque([ident])
        words: list[tuple[int, ...]] = [()]
        parent = [0]
        rmul: list[tuple[int, ...]] = []
        while pending:
            # (w s)(x) = w(s(x))
            cur, head, row = pending.popleft(), len(rmul), []
            for g, (s, h) in enumerate(zip(gens, heads)):
                key = tuple(map(cur.__getitem__, h))
                j = index.get(key)
                if j is None:
                    if len(keys) >= max_order:
                        raise GroupBuildError(f"group order exceeds the cap {max_order}")
                    j = index[key] = len(keys)
                    keys.append(key)
                    pending.append(tuple(map(cur.__getitem__, s)))
                    words.append(words[head] + (g,))
                    parent.append(head)
                row.append(j)
            rmul.append(tuple(row))
        self._perms = keys
        self.words = words
        self.order = len(keys)
        self.identity = 0
        self._rmul = rmul
        self.generator_elements = rmul[0]
        # s_a^-1 = s_a^(o-1), the last element of the s_a-cycle through 1; and
        # s_a^-1 w_j = (s_a^-1 w_parent(j)) s_last(j) down the BFS tree.
        self._lmul = []
        for a in range(len(gens)):
            prev, cur = 0, rmul[0][a]
            while cur != 0:
                prev, cur = cur, rmul[cur][a]
            col = [prev] * self.order
            for j in range(1, self.order):
                col[j] = rmul[col[parent[j]]][words[j][-1]]
            self._lmul.append(col)
        # w_j^-1 = s_last(j)^-1 w_parent(j)^-1
        inv = [0] * self.order
        for j in range(1, self.order):
            inv[j] = self._lmul[words[j][-1]][inv[parent[j]]]
        self.inverse_table = inv

    def _act_on_roots(self, max_order: int) -> list[tuple[int, ...]]:
        """The generators as permutations of X, the W-orbit of a basis B of V
        drawn from the columns of the s - 1 and, when those miss V^W, a basis
        of it: perms[a][x] is the index in X of s_a(x), and b_j = X[j].  X is
        the union of the W-orbits of the n vectors b_j, so |X| <= n |W|, and a
        larger X means |W| is over the cap.  Each generator's delta M acts as
        integer rows on the power-basis coefficients at N (1 when every M is
        rational, else N0) of a vector's B-coordinates, its key in lowest
        terms over one denominator; CycNum coordinates are made at the end."""
        n, n0 = self.dimension, self.entry_label
        ident = linalg.identity(n)
        diffs = [linalg.mat_sub(s, ident) for s in self.generator_matrices]
        columns = [c for d in diffs for c in zip(*d)]
        # [columns | 1] reduces to [B^-1 columns | B^-1], B its pivot columns.
        red, pivots = linalg.rref([[c[r] for c in columns] + list(ident[r]) for r in range(n)])
        if pivots[-1] >= len(columns):  # the s - 1 span the complement of V^W
            columns += linalg.nullspace([r for d in diffs for r in d])
            red, pivots = linalg.rref([[c[r] for c in columns] + list(ident[r]) for r in range(n)])

        def promoted(rows) -> Matrix:
            return tuple(tuple(x.promote(n0) for x in row) for row in rows)

        basis = tuple(zip(*(columns[p] for p in pivots)))
        inverse = tuple(tuple(row[len(columns):]) for row in red)
        gens = [linalg.mat_mul(inverse, linalg.mat_mul(s, basis)) for s in self.generator_matrices]
        # b_j -> d_j b_j, so M -> D^-1 M D, with -1 = M'[i][j] = x d_j / d_i at a
        # coupling x = M[i][j] along a spanning tree (d_j = 1 where none reaches
        # b_j); kept where that makes every M rational.
        d: list[CycNum | None] = [ONE] + [None] * (n - 1)
        while None in d:
            i, j, x = next(((i, j, m[i][j]) for m in gens for i in range(n) for j in range(n)
                            if d[i] is not None and d[j] is None and not m[i][j].is_zero()), (0, d.index(None), -ONE))
            d[j] = -d[i] / x
        scaled = [tuple(tuple(x * d[j] / d[i] for j, x in enumerate(row)) for i, row in enumerate(m)) for m in gens]
        rational = [all(x.is_rational() for m in ms for row in m for x in row) for ms in (gens, scaled)]
        if rational == [False, True]:
            basis = tuple(tuple(x * dj for x, dj in zip(row, d)) for row in basis)
            inverse = tuple(tuple(x / di for x in row) for row, di in zip(inverse, d))
            gens = scaled
        self._basis, self._basis_inverse = promoted(basis), promoted(inverse)
        N = 1 if all(x.is_rational() for m in gens for row in m for x in row) else n0
        phi = euler_phi(N)
        acts = []  # (delta, rows): coefficient k phi + t of delta M v is rows[k phi + t] . v
        for m in gens:
            images, rows = _MonomialImages(m, N), [[0] * (n * phi) for _ in range(n * phi)]
            for k, j, cols in ((k, j, cols) for k, row in enumerate(images.rows) for j, cols in row):
                for t, col in enumerate(cols):
                    rows[k * phi + t][j * phi : (j + 1) * phi] = col
            acts.append((images.delta, rows))
        roots = [(1, tuple(int(i == j * phi) for i in range(n * phi))) for j in range(n)]
        index = {v: j for j, v in enumerate(roots)}
        perms: list[list[int]] = [[] for _ in gens]
        for den, v in roots:
            for perm, (delta, rows) in zip(perms, acts):
                u = [sum(map(mul, row, v)) for row in rows]
                e = den * delta
                if e != 1 and (c := gcd(e, *u)) != 1:
                    e, u = e // c, [x // c for x in u]
                key = (e, tuple(u))
                j = index.get(key)
                if j is None:
                    if len(roots) >= n * max_order:
                        raise GroupBuildError(f"group order exceeds the cap {max_order}")
                    j = index[key] = len(roots)
                    roots.append(key)
                perm.append(j)
        step = n0 // N
        self._roots = [tuple(from_integral(n0, ((a * step, v[k * phi + a]) for a in range(phi)), den)
                             for k in range(n)) for den, v in roots]
        return [tuple(p) for p in perms]

    def mult(self, i: int, j: int) -> int:
        """w_i * w_j: walk the word of w_j from i through the Cayley graph."""
        rmul = self._rmul
        for a in self.words[j]:
            i = rmul[i][a]
        return i

    def inverse(self, i: int) -> int:
        return self.inverse_table[i]

    def _element_orders(self) -> None:
        """The order of each class representative, by its powers; every
        member of a class has its representative's order."""
        orders = []
        for cls in self.classes:
            k, cur = 1, cls.rep
            while cur != 0:
                cur = self.mult(cur, cls.rep)
                k += 1
            orders.append(k)
        self.element_orders = [orders[c] for c in self.class_of]

    def _coordinate_matrix(self, i: int) -> Matrix:
        """M, the matrix of w_i in B-coordinates: column j is w_i(b_j)."""
        perm, roots = self._perms[i], self._roots
        return tuple(zip(*(roots[perm[j]] for j in range(self.dimension))))

    def matrix(self, i: int) -> Matrix:
        """The matrix of w_i, B M B^-1, every entry at N0, built on each call."""
        m = linalg.mat_mul(self._basis, linalg.mat_mul(self._coordinate_matrix(i), self._basis_inverse))
        return tuple(tuple(x.promote(self.entry_label) for x in row) for row in m)

    def trace(self, i: int) -> CycNum:
        """tr w_i: the sum of the B-coordinates b_j^*(w_i(b_j))."""
        perm, roots = self._perms[i], self._roots
        return sum((roots[perm[j]][j] for j in range(self.dimension)), ZERO)

    def det(self, i: int) -> CycNum:
        """det(w_i) = zeta_o^{sum t m} over the spectrum of its class."""
        spectrum = self.class_spectra[self.class_of[i]]
        return CycNum.zeta(spectrum[0][0], sum(t * m for _, t, m in spectrum))

    def cyclic_multiplicities(self, w: int, value) -> list[int]:
        """Multiplicity of zeta_o^t, t = 0..o-1, in the restriction to <w>.

        o is the order of w and value maps an element to its character value
        (a trace, or ClassFunction.value_on_element); the multiplicities are
        the exact discrete Fourier transform (1/o) sum_s value(w^s) zeta_o^{-ts},
        summed on integers at M = lcm(o, labels), where multiplying by
        zeta_o^{-ts} shifts exponents by -ts M/o.
        """
        o = self.element_orders[w]
        values, cur = [], self.identity
        for _ in range(o):
            values.append(value(cur))
            cur = self.mult(cur, w)
        den, terms = integral_terms(values)
        M = lcm(o, *(N for N, _ in terms))
        out = []
        for t in range(o):
            shifted = (((e * (M // N) - t * s * (M // o)) % M, c)
                       for s, (N, coeffs) in enumerate(terms) for e, c in enumerate(coeffs) if c)
            mult = from_integral(M, shifted, den * o)
            if not mult.is_integer() or mult.as_fraction() < 0:
                raise ExactError("restriction multiplicity is not a nonnegative integer")
            out.append(int(mult.as_fraction()))
        return out

    def _find_spectra(self) -> None:
        """Eigenvalues of each class representative as (order o, power t,
        multiplicity): those of a unitary w of order o are o-th roots of unity,
        with the multiplicities of the restriction of its trace to <w>."""
        spectra = []
        for cls in self.classes:
            o = self.element_orders[cls.rep]
            mults = self.cyclic_multiplicities(cls.rep, self.trace)
            if sum(mults) != self.dimension:
                raise ExactError("eigenvalue multiplicities do not sum to dim (bug)")
            spectra.append(tuple((o, t, m) for t, m in enumerate(mults) if m))
        self.class_spectra = tuple(spectra)

    @cached_property
    def coxeter_element(self) -> int | None:
        """c = s_0 s_1 .. s_{r-1} where every generator is an involution, c is
        diagonal and <c, s_0> = W (on the Cayley graph), else None.  Then
        f(s v) = tau(s) f(v) on the generators is f(w v) = tau(w) f(v) on W,
        which c and s_0 pose too.  S_n's c is diag(zeta_n, .., zeta_n^(n-1))
        in the Fourier basis, G(m,m,2)'s diag(zeta_m, zeta_m^-1)."""
        if any(self.element_orders[s] > 2 for s in self.generator_elements):
            return None
        c = reduce(lambda i, a: self._rmul[i][a], range(len(self.generator_elements)), 0)
        if self.diagonal(c) is None or self._generated((c, self.generator_elements[0])) != self.order:
            return None
        return c

    def diagonal(self, i: int) -> tuple[int, ...] | None:
        """(k_0, .., k_{n-1}) when w_i = diag(zeta_o^k_0, .., zeta_o^k_{n-1})
        on V, o the order of w_i; None when w_i is not diagonal."""
        m, o = self.matrix(i), self.element_orders[i]
        if any(not x.is_zero() for r, row in enumerate(m) for c, x in enumerate(row) if r != c):
            return None
        zetas = [CycNum.zeta(o, k) for k in range(o)]
        return tuple(zetas.index(m[j][j]) for j in range(self.dimension))

    def monomial_images(self, i: int, q: int) -> tuple[int, int, list[dict[int, tuple[int, ...]]]]:
        """(N, delta, images) with images[d] the degree-q polynomial
        (delta A v)^e for e = monomials(n, q)[d] and A the matrix of w_i: a
        map from the index of each monomial of monomials(n, q) to its nonzero
        power-basis coefficients at conductor N, as ints.  The coefficients
        of (A v)^e are these over delta^q.  N is the lcm of the labels of A's
        irrational entries: 1 when they are all rational, and at q = 0, where
        the only image is 1.  Kept per element, built degree by degree.
        """
        store = self._images.get(i)
        if store is None:
            store = self._images[i] = _MonomialImages(self.matrix(i))
        return store.degree(q)

    def substitute(self, f: MultiPoly, i: int) -> MultiPoly:
        """f(w_i v): every monomial x^e of f becomes its image (A v)^e, A the
        matrix of w_i, through its `monomial_images`.

        Each degree of f is summed on integers (with f's coefficients scaled
        to integers) in Z[x]/(x^M - 1), M the lcm of all the labels involved,
        and each output monomial becomes one CycNum.  Its label is the lcm of
        N0 (1 at degree 0) and the labels of the coefficients of f that reach
        it, as a CycNum sum of the products would have it: A's entries carry
        N0.
        """
        n = self.dimension
        by_degree: dict[int, list[tuple[tuple[int, ...], CycNum]]] = {}
        for e, c in f.terms.items():
            by_degree.setdefault(sum(e), []).append((e, c))
        out: dict[tuple[int, ...], CycNum] = {}
        for q, terms in by_degree.items():
            N, delta, images = self.monomial_images(i, q)
            base = self.entry_label if q else 1
            index = _monomial_index(n, q)
            M = lcm(N, *(c.N for _, c in terms))
            den, scaled_terms = integral_terms(c for _, c in terms)
            sums: dict[int, dict[int, int]] = {}
            labels: dict[int, int] = {}
            step = M // N
            for (e, c), (Nc, coeffs) in zip(terms, scaled_terms):
                scaled = [(k * (M // Nc), v) for k, v in enumerate(coeffs) if v]
                for t, a in images[index[e]].items():
                    labels[t] = lcm(labels.get(t, base), c.N)
                    acc = sums.setdefault(t, {})
                    for k, v in enumerate(a):
                        if v:
                            for kc, vc in scaled:
                                s = (k * step + kc) % M
                                acc[s] = acc.get(s, 0) + v * vc
            scale = delta**q * den
            monos = monomials(n, q)
            for t, acc in sums.items():
                label = labels[t]
                out[monos[t]] = from_integral(label, ((s * label // M, v) for s, v in acc.items()), scale)
        return MultiPoly(n, out)

    # -- reflections and hyperplanes -----------------------------------------

    def _fixed_dimension(self, k: int) -> int:
        """dim V^w for w in class k: the multiplicity of eigenvalue 1 (t = 0)."""
        return sum(m for _, t, m in self.class_spectra[k] if t == 0)

    def _find_reflections(self) -> None:
        # w is a reflection when its fixed space has dimension dim - 1.
        refl = []
        for k, cls in enumerate(self.classes):
            if self._fixed_dimension(k) == self.dimension - 1:
                refl.extend(cls.members)
        self.reflections = tuple(sorted(refl))

    def _reflection_form(self, i: int) -> Vector:
        """The moving rows of the reflection w_i - 1 = B (M - 1) B^-1 are
        multiples of one form, and so are those of (M - 1) B^-1: the first of
        them, scaled to first nonzero coefficient 1."""
        diff = linalg.mat_sub(self._coordinate_matrix(i), linalg.identity(self.dimension))
        row = next((r for r in diff if any(not x.is_zero() for x in r)), None)
        if row is None:
            raise ExactError("reflection without a moving row (bug)")
        form = linalg.mat_mul((row,), self._basis_inverse)[0]
        inv = next(x for x in form if not x.is_zero()).inverse()
        return tuple(x * inv for x in form)

    def _find_hyperplanes(self) -> None:
        # W_H is cyclic: 1 and the reflections with hyperplane H.  Taken by
        # decreasing order, each unassigned reflection generates its W_H, and
        # its powers are the other reflections of H.
        orders = self.element_orders
        assigned: set[int] = set()
        stabilizers = []
        for r in sorted(self.reflections, key=lambda i: -orders[i]):
            if r in assigned:
                continue
            members, cur = [], r
            while cur != 0:
                members.append(cur)
                cur = self.mult(cur, r)
            if not assigned.isdisjoint(members):
                raise ExactError("hyperplane stabilizers overlap (bug)")
            assigned.update(members)
            stabilizers.append(tuple([0] + sorted(members)))
        self.hyperplane_of: dict[int, int] = {}
        hyperplanes = []
        for stab in sorted(stabilizers, key=lambda st: st[1]):
            e = len(stab)
            target = CycNum.zeta(e)
            gen = next((i for i in stab if self.det(i) == target), None)
            if gen is None:
                raise ExactError("no distinguished generator with det = zeta_e (bug)")
            for i in stab[1:]:
                self.hyperplane_of[i] = len(hyperplanes)
            form = self._reflection_form(stab[1])
            hyperplanes.append(
                Hyperplane(
                    form=form,
                    alpha=MultiPoly.linear_form(form),
                    order=e,
                    generator=gen,
                    stabilizer=stab,
                )
            )
        self.hyperplanes = tuple(hyperplanes)

    def _generated(self, elements) -> int:
        """The order of the subgroup the elements generate, on the Cayley graph."""
        seen, frontier = {0}, [0]
        while frontier:
            cur = frontier.pop()
            new = {self.mult(cur, r) for r in elements} - seen
            seen |= new
            frontier.extend(new)
        return len(seen)

    def _check_reflections_generate(self) -> None:
        if (order := self._generated(self.reflections)) != self.order:
            raise GroupBuildError(
                "generator file does not define a reflection group: "
                f"reflections generate only {order} of {self.order} elements"
            )

    def _find_orbits(self) -> None:
        # w s_H w^-1 = s_{w(H)}: the orbit of H is the hyperplanes whose
        # distinguished reflection is conjugate to s_H.
        by_class: dict[int, list[int]] = {}
        for h, hp in enumerate(self.hyperplanes):
            by_class.setdefault(self.class_of[hp.generator], []).append(h)
        orbits = []
        self.orbit_of_hyperplane = [0] * len(self.hyperplanes)
        for members in by_class.values():
            for h in members:
                self.orbit_of_hyperplane[h] = len(orbits)
            order = self.hyperplanes[members[0]].order
            alphas = tuple(self.hyperplanes[h].alpha for h in members)
            orbits.append(HyperplaneOrbit(members=tuple(members), order=order, alphas=alphas))
        self.orbits = tuple(orbits)

    # -- conjugacy classes ----------------------------------------------------

    def _find_classes(self) -> None:
        # s^-1 w s for each generator s, by two lookups
        class_of = [-1] * self.order
        classes: list[ConjugacyClass] = []
        rmul, lmul = self._rmul, list(enumerate(self._lmul))
        for i in range(self.order):
            if class_of[i] >= 0:
                continue
            seen = {i}
            frontier = [i]
            while frontier:
                cur = frontier.pop()
                for a, col in lmul:
                    conj = rmul[col[cur]][a]
                    if conj not in seen:
                        seen.add(conj)
                        frontier.append(conj)
            members = tuple(sorted(seen))
            rep = min(members, key=lambda j: (len(self.words[j]), self.words[j]))
            for j in members:
                class_of[j] = len(classes)
            classes.append(ConjugacyClass(rep=rep, members=members, size=len(members)))
        self.classes = tuple(classes)
        self.class_of = class_of
        self.inverse_class = [
            class_of[self.inverse(c.rep)] for c in classes
        ]
        if sum(c.size for c in classes) != self.order:
            raise ExactError("class sizes do not sum to |W| (bug)")

    # -- degrees ---------------------------------------------------------------

    def _find_degrees(self) -> None:
        # Shephard-Todd: sum_w T^{dim V^w} = prod_i (T + d_i - 1).  The count
        # is monic of degree dim (only 1 fixes V) with integer roots
        # -(d_i - 1) in [-#R, 0], peeled by synthetic division.
        nrefl = len(self.reflections)
        count = [0] * (self.dimension + 1)
        for k, cls in enumerate(self.classes):
            count[self._fixed_dimension(k)] += cls.size
        degrees = []
        for m in range(nrefl + 1):
            while len(count) > 1:
                quotient, remainder = _divide_by_linear(count, -m)
                if remainder:
                    break
                count = quotient
                degrees.append(m + 1)
        if count != [1]:
            raise ExactError("the fixed-space count is not a product of T + d - 1 (bug)")
        self.degrees = tuple(degrees)
        if math.prod(self.degrees) != self.order:
            raise ExactError("product of degrees != |W| (bug)")
        if sum(d - 1 for d in self.degrees) != nrefl:
            raise ExactError("sum of (d_i - 1) != number of reflections (bug)")
        # G_c = prod (1 - T^{d_i}) / det(1 - T c), a polynomial of degree #R:
        # divide the integer numerator by 1 - zeta_o^t T once per eigenvalue,
        # q_k = a_k + zeta_o^t q_{k-1}, in Z[x]/(x^o - 1), where multiplying
        # by zeta_o^t rotates by t.  The remainder a_top + zeta_o^t q_last
        # must reduce to 0 in Z[zeta_o].
        numer = [int(c.as_fraction()) for c in degree_numerator(self).coeffs]
        traces = []
        for spectrum in self.class_spectra:
            o = spectrum[0][0]
            coeffs = [[a] + [0] * (o - 1) for a in numer]
            for _, t, mult in spectrum:
                for _ in range(mult):
                    quotient, q = [], [0] * o
                    for a in coeffs:
                        q = [a[k] + q[k - t] for k in range(o)]
                        quotient.append(q)
                    if not from_integral(o, enumerate(quotient.pop())).is_zero():
                        raise ExactError("det(1 - T c) does not divide prod (1 - T^d_i) (bug)")
                    coeffs = quotient
            traces.append(PolyT([from_integral(o, enumerate(c)) for c in coeffs]))
        self.class_coinvariant_traces = tuple(traces)

    # -- reporting -------------------------------------------------------------

    def info(self) -> dict:
        return {
            "descriptor": self.descriptor.canonical(),
            "order": self.order,
            "dimension": self.dimension,
            "conductor": self.conductor,
            "degrees": list(self.degrees),
            "reflections": len(self.reflections),
            "hyperplanes": len(self.hyperplanes),
            "orbits": [
                {
                    "size": len(c.members),
                    "order": c.order,
                    "pi_degree": len(c.members),
                }
                for c in self.orbits
            ],
            "classes": [
                {"size": c.size, "rep_word": list(self.words[c.rep])}
                for c in self.classes
            ],
            "alpha_normalization": "first nonzero coordinate coefficient = 1",
        }


def _divide_by_linear(coeffs: list[int], r: int) -> tuple[list[int], int]:
    """(quotient, remainder) of the integer polynomial sum_k coeffs[k] T^k by
    T - r, by Horner's rule; the remainder is the value at r."""
    acc, high_first = 0, []
    for c in reversed(coeffs):
        acc = acc * r + c
        high_first.append(acc)
    remainder = high_first.pop()
    return high_first[::-1], remainder


def degree_numerator(g: ReflectionGroup) -> PolyT:
    """prod_i (1 - T^{d_i})."""
    return reduce(mul, map(poly_one_minus_Tk, g.degrees), PolyT([ONE]))


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------

def build_group(descriptor: str | Descriptor, max_order: int = DEFAULT_MAX_ORDER) -> ReflectionGroup:
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return ReflectionGroup(descriptor, max_order=max_order)
