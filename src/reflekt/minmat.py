"""Minimal equivariant polynomial matrices.

For an irreducible character chi with explicit matrix realization tau, a
minimal matrix M is an l x l polynomial matrix with nonzero determinant,
column j homogeneous of degree p_j (the j-th fake-degree exponent), and
M(w^{-1} v) = tau(w) M(v) for all w.  Columns come from the space of
equivariant polynomial maps V -> C^l of each degree, posed as conditions
f(A v) = T f(v) (`Realization.conditions`; for S_n, its Coxeter element and
s_0).  One whose A = diag(a) is diagonal is imposed on the unknowns, never as
rows: x^e maps to a^e x^e, so the coefficients of monomial e lie in the
a^e-eigenspace of T, a column selection in an eigenbasis of T.  The others
form one linear system on integer power-basis coefficients, built
from the integer monomial images of the group (`monomial_images`) and the
realization matrices in `exact`'s integer form, and solved by
`linalg.integral_nullspace` (modular, then certified exactly on integers).
When the solution space is bigger than the number of columns needed, a
deterministic pseudo-random mixing is drawn.  Its determinant det(M) is
expanded once, by Laplace along the first row, and certified nonzero by its
exact value at a random rational point (one nonzero value is a proof); both
verifiers read it from the `MinimalTauMatrix`.

Matrix realizations come from the defining representation (possibly twisted
by a linear character) when the character matches, and otherwise from
projecting a multiplicity-one induced module C[W] e_lambda for a cyclic
subgroup, with one exact solve: the isotypic idempotent P factors as B R (R
the nonzero rows of rref(P), B its pivot columns), so R gives coordinates on
B.  Those matrices are unitary for the explicit invariant Hermitian Gram form
carried alongside (exactly certified), not for the standard form, which would
require square-root field extensions.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .exact import ONE, ZERO, CycNum, ExactError, MultiPoly, PolyT, integral_terms, series_inverse
from . import linalg
from .linalg import Matrix
from .groups import ReflectionGroup, degree_numerator, monomials
from .chars import CharacterTable, ClassFunction
from .fake import FakeDegreeSet

# Pseudo-random column mixings tried before a zero determinant is reported.
MIXING_ATTEMPTS = 32
# (degrees, p) -> the Molien series 1 / prod_i (1 - T^d_i) to degree p
_MOLIEN: dict[tuple[tuple[int, ...], int], PolyT] = {}


class RealizationError(Exception):
    """Could not produce or validate an explicit matrix realization."""


class Realization:
    """Exact matrices for the group generators affording a character row."""

    def __init__(self, group: ReflectionGroup, row: int, character: ClassFunction,
                 generator_matrices: list[Matrix], gram: Matrix, method: str):
        self.group = group
        self.row = row
        self.character = character
        self.generator_matrices = generator_matrices
        self.gram = gram
        self.method = method
        self._cache: dict[int, Matrix] = {}
        self._bases: dict[int, tuple] = {}  # degree -> its equivariant_basis

    @cached_property
    def conditions(self) -> tuple:
        """(weights, o, eigen, P, rows): the conditions f(A v) = T f(v) its
        equivariant maps are solved under are (s^-1, tau(s)) for each
        generator s or, where the group has a `coxeter_element` c, (c, tau(c))
        and (s_0, tau(s_0)).  The first with A = diag(zeta_o^weights[j])
        diagonal is imposed on the unknowns, those of f' = P^-1 f, P an
        eigenbasis of its T (None where T is diagonal), column t with
        eigenvalue zeta_o^eigen[t]; rows holds (A, P^-1 T P) of the others,
        A by element index.  Without a diagonal one, weights = () and o = 1."""
        g, l, c = self.group, self.dim, self.group.coxeter_element
        conds = ({g.inverse(s): t for s, t in zip(g.generator_elements, self.generator_matrices)} if c is None
                 else {c: self.element_matrix(c), g.generator_elements[0]: self.generator_matrices[0]})
        a, weights = next(((a, w) for a in conds if (w := g.diagonal(a)) is not None), (None, ()))
        o, tau = (1, linalg.identity(l)) if a is None else (g.element_orders[a], conds.pop(a))
        zetas = [CycNum.zeta(o, k) for k in range(o)]
        if all(x.is_zero() for s, row in enumerate(tau) for t, x in enumerate(row) if s != t):
            return weights, o, tuple(zetas.index(tau[t][t]) for t in range(l)), None, list(conds.items())
        ident = linalg.identity(l)
        eigen = [(k, v) for k, z in enumerate(zetas) for v in linalg.nullspace(linalg.mat_sub(tau, linalg.mat_scale(ident, z)))]
        basis = tuple(zip(*(v for _, v in eigen)))
        # [P | 1] reduces to [1 | P^-1]
        inverse = tuple(tuple(row[l:]) for row in linalg.rref([row + e for row, e in zip(basis, ident)])[0])
        rows = [(b, linalg.mat_mul(inverse, linalg.mat_mul(t, basis))) for b, t in conds.items()]
        return weights, o, tuple(k for k, _ in eigen), basis, rows

    @property
    def dim(self) -> int:
        return len(self.generator_matrices[0])

    def element_matrix(self, i: int) -> Matrix:
        got = self._cache.get(i)
        if got is None:
            m = linalg.identity(self.dim)
            for a in self.group.words[i]:
                m = linalg.mat_mul(m, self.generator_matrices[a])
            got = self._cache[i] = m
        return got

    def validate(self, table_row: ClassFunction) -> None:
        g = self.group
        for idx, cls in enumerate(g.classes):
            if linalg.trace(self.element_matrix(cls.rep)) != table_row.values[idx]:
                raise RealizationError(
                    f"realization character mismatch on class {idx}"
                )
        for m in self.generator_matrices:
            lhs = linalg.mat_mul(linalg.mat_mul(linalg.conj_transpose(m), self.gram), m)
            if lhs != self.gram:
                raise RealizationError("realization is not unitary for its Gram form")


def _linear_realization(g, table, row_idx) -> Realization:
    row = table.rows[row_idx]
    mats = [((row.value_on_element(e),),) for e in g.generator_elements]
    return Realization(g, row_idx, row, mats, ((CycNum.one(),),), "linear")


def _defining_twist_realization(g, table, row_idx) -> Realization | None:
    row = table.rows[row_idx]
    if row.degree_int() != g.dimension:
        return None
    linear_rows = [r for r in table.rows if r.degree_int() == 1]
    gen_elts = g.generator_elements
    for lam in linear_rows:
        candidate = tuple(
            g.trace(c.rep) * lam.values[i] for i, c in enumerate(g.classes)
        )
        if all(a == b for a, b in zip(candidate, row.values)):
            mats = [
                linalg.mat_scale(g.generator_matrices[a], lam.value_on_element(gen_elts[a]))
                for a in range(len(gen_elts))
            ]
            method = "defining" if all(v == 1 for v in lam.values) else "defining_tensor_linear"
            return Realization(g, row_idx, row, mats, linalg.identity(g.dimension), method)
    return None


def _induced_realization(g, table, row_idx) -> Realization:
    row = table.rows[row_idx]
    deg = row.degree_int()
    # Find a cyclic subgroup <z> and a character lambda = det^j-style power with
    # restriction multiplicity exactly one.
    choice = None
    for cls in sorted(g.classes, key=lambda c: -g.element_orders[c.rep]):
        z = cls.rep
        m = g.element_orders[z]
        if m == 1:
            continue
        mults = g.cyclic_multiplicities(z, row.value_on_element)
        if 1 in mults:
            choice = (z, m, mults.index(1))
            break
    if choice is None:
        raise RealizationError(
            "no cyclic subgroup with multiplicity-one restriction found"
        )
    z, m, j = choice

    # Left cosets w<z>; transversal in BFS element order.
    coset_of: dict[int, tuple[int, int]] = {}
    transversal: list[int] = []
    for i in range(g.order):
        if i in coset_of:
            continue
        r = len(transversal)
        transversal.append(i)
        cur = i
        for t in range(m):
            coset_of[cur] = (r, t)
            cur = g.mult(cur, z)
    nx = len(transversal)

    # Induced module matrices as monomial (perm, scalar) pairs, for every element.
    def induced_monomial(w: int) -> tuple[list[int], list[CycNum]]:
        perm = [0] * nx
        scal = [CycNum.zero()] * nx
        for r, wr in enumerate(transversal):
            u = g.mult(w, wr)
            r2, t = coset_of[u]
            perm[r] = r2
            scal[r] = CycNum.zeta(m, (j * t) % m)
        return perm, scal

    # Projection onto the chi-isotypic component (one copy by construction).
    proj = [[CycNum.zero() for _ in range(nx)] for _ in range(nx)]
    for w in range(g.order):
        chi_bar = row.value_on_element(w).conjugate()
        if chi_bar.is_zero():
            continue
        perm, scal = induced_monomial(w)
        for r in range(nx):
            proj[perm[r]][r] = proj[perm[r]][r] + chi_bar * scal[r]
    scale = Fraction(deg, g.order)
    proj = [[x * scale for x in rw] for rw in proj]

    # proj = B R, with R the nonzero rows of rref(proj) and B its columns at
    # their pivots; proj fixes its image, so R y are the coordinates of y on B.
    red, pivots = linalg.rref(proj)
    if len(pivots) != deg:
        raise RealizationError(f"isotypic projection has rank {len(pivots)}, expected {deg}")
    rmat = tuple(map(tuple, red[:deg]))
    bmat = tuple(tuple(proj[r][c] for c in pivots) for r in range(nx))

    gen_mats = []
    for a in g.generator_elements:
        perm, scal = induced_monomial(a)
        image = [()] * nx
        for r in range(nx):
            image[perm[r]] = tuple(scal[r] * x for x in bmat[r])
        coords = linalg.mat_mul(rmat, tuple(image))
        gen_mats.append(tuple(tuple(ZERO if x.is_zero() else x for x in row) for row in coords))

    gram = linalg.mat_mul(linalg.conj_transpose(bmat), bmat)
    return Realization(g, row_idx, row, gen_mats, gram, "induced_cyclic")


def matrix_realization(g: ReflectionGroup, table: CharacterTable, row_idx: int) -> Realization:
    row = table.rows[row_idx]
    if row.degree_int() == 1:
        real = _linear_realization(g, table, row_idx)
    else:
        real = _defining_twist_realization(g, table, row_idx) or _induced_realization(
            g, table, row_idx
        )
    real.validate(row)
    return real


# ---------------------------------------------------------------------------
# equivariant maps
# ---------------------------------------------------------------------------

def predicted_equivariant_dimension(fs: FakeDegreeSet, row_idx: int, p: int) -> int:
    """[T^p] of F_tau(T) * (Molien series), the ambient multiplicity."""
    key = (fs.group.degrees, p)
    if key not in _MOLIEN:
        _MOLIEN[key] = series_inverse(degree_numerator(fs.group), p)
    molien = _MOLIEN[key]
    f = fs.f_poly(row_idx)
    return int(sum((f[k] * molien[p - k] for k in range(p + 1)), CycNum.zero()).as_fraction())


def equivariant_basis(real: Realization, p: int, fs: FakeDegreeSet | None = None):
    """Exact basis of degree-p polynomial maps f: V -> C^l with
    f(w^{-1} v) = tau(w) f(v); returned as tuples of component MultiPolys.

    The unknowns are the coefficients of f, monomial-major and component-minor.
    Of the conditions f(A v) = T f(v) that pose the maps
    (`Realization.conditions`), a diagonal one keeps only the coefficients of
    monomial e in components whose T-eigenvalue is A^e, in an eigenbasis P
    of T.  For each other condition, with (N, delta, images) =
    `monomial_images` of A, row (d', i) of f_i(A v) - sum_t T_it f_t(v) = 0
    at monomial d' is, times delta^p and the lcm of the denominators of row
    i of T: the integer image coefficients of monomial d' at the kept
    columns of component i, and -delta^p T_it at the kept columns (d', t).
    The rows go to one `linalg.integral_nullspace` call, so the basis is the
    unique reduced-echelon basis of the solution space; solutions for
    f' = P^-1 f are carried back, f = P f' at each monomial, and reduced to
    that basis (`_echelon_from_right`).  Its entries carry the lcm of N0 (at
    p > 0) and the labels of the tau entries, as the constraint rows of
    every generator have them as CycNums.
    Solved bases are kept on `real`, one per degree, so `build_minimal_matrix`
    and `verify_quotient_property` solve each degree once; every call with
    `fs` checks the dimension against the fake-degree prediction.
    """
    basis = real._bases.get(p)
    if basis is None:
        basis = real._bases[p] = _solve_equivariant(real, p)
    if fs is not None:
        want = predicted_equivariant_dimension(fs, real.row, p)
        if len(basis) != want:
            raise ExactError(
                f"equivariant space at degree {p} has dim {len(basis)}, "
                f"fake degree predicts {want}"
            )
    return basis


def _solve_equivariant(real: Realization, p: int) -> tuple:
    g = real.group
    n, l = g.dimension, real.dim
    monos = monomials(n, p)
    D = len(monos)
    label = lcm(g.entry_label if p else 1, *(x.N for t in real.generator_matrices for row in t for x in row if not x.is_zero()))
    weights, o, eigen, P, conditions = real.conditions
    keep = [d * l + t for d, e in enumerate(monos) for t in range(l) if sum(w * a for w, a in zip(weights, e)) % o == eigen[t]]
    if not keep:
        return ()
    column = dict(zip(keep, range(len(keep))))
    rows: list[list[linalg.Term]] = []
    for a, taus in conditions:
        N, delta, images = g.monomial_images(a, p)
        # by_out[d'][d]: conductor and coefficients of monomial d' in image d
        by_out: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in range(D)]
        for d, image in enumerate(images):
            for dp, c in image.items():
                by_out[dp][d] = (N, c) if any(c[1:]) else (1, c[:1])
        # per component s: (den, {t: term of -delta^p den tau_st})
        tau = [(den, {t: (M, [-delta**p * v for v in c]) for t, (M, c) in enumerate(terms) if any(c)})
               for den, terms in map(integral_terms, taus)]
        for dp in range(D):
            for s, (den, tau_terms) in enumerate(tau):
                row = [(column[d * l + s], M, [den * v for v in c]) for d, (M, c) in by_out[dp].items() if d * l + s in column]
                row += [(column[dp * l + t], M, c) for t, (M, c) in tau_terms.items() if dp * l + t in column]
                if row:
                    rows.append(row)
    solved = linalg.integral_nullspace(rows, len(keep), label if P is None else lcm(label, *(x.N for row in P for x in row)))
    vectors = [[vec[column[c]] if c in column else ZERO for c in range(D * l)] for vec in solved]
    if P is not None:
        # f = P f' at each monomial, reduced to the reduced-echelon basis
        vectors = _echelon_from_right([
            [sum((P[s][t] * v[d * l + t] for t in range(l) if not v[d * l + t].is_zero()), ZERO) for d in range(D) for s in range(l)]
            for v in vectors
        ], label)
    return tuple(
        tuple(MultiPoly(n, {mo: c for d, mo in enumerate(monos) if not (c := vec[d * l + s]).is_zero()}) for s in range(l))
        for vec in vectors
    )


def _echelon_from_right(vectors: list[list[CycNum]], label: int) -> list[tuple[CycNum, ...]]:
    """The reduced-echelon basis of the span of independent vectors in the
    shape of `linalg.nullspace`: 1 at each vector's last nonzero column, 0 at
    those of the others, sorted by that column; entries carry `label`."""
    rows = [list(v) for v in vectors]
    pivots = []
    for t in range(len(rows)):
        # rows[t] is 0 at the earlier pivots, so its last nonzero column is new
        c = max(c for c, x in enumerate(rows[t]) if not x.is_zero())
        inv = rows[t][c].inverse()
        row = rows[t] = [x * inv if not x.is_zero() else x for x in rows[t]]
        for u, other in enumerate(rows):
            if u != t and not (f := other[c]).is_zero():
                rows[u] = [x - f * y if not y.is_zero() else x for x, y in zip(other, row)]
        pivots.append(c)
    return [
        tuple(ONE if c == fc else ZERO if x.is_zero() else x.promote(label) for c, x in enumerate(rows[t]))
        for fc, t in sorted((c, t) for t, c in enumerate(pivots))
    ]


# ---------------------------------------------------------------------------
# minimal matrices
# ---------------------------------------------------------------------------

class MinimalTauMatrix(NamedTuple):
    group: ReflectionGroup
    row: int
    realization: Realization
    matrix: list[list[MultiPoly]]  # entries; column j homogeneous of degree p_j
    column_degrees: tuple[int, ...]
    seed: int
    det: MultiPoly  # det(M), computed once when the mixing is accepted

    @property
    def dim(self) -> int:
        return len(self.column_degrees)


def _poly_det(m: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return MultiPoly.constant(nvars, 1)
    acc = MultiPoly.zero(nvars)
    for j, entry in enumerate(m[0]):
        if not entry.is_zero():
            term = entry * _poly_det([row[:j] + row[j + 1 :] for row in m[1:]], nvars)
            acc = acc - term if j % 2 else acc + term
    return acc


def _mix(basis, coeffs: list[int]) -> list[MultiPoly]:
    """The column sum_b coeffs[b] * basis[b] of equivariant maps; coefficients
    that are all zero are replaced by those of basis[0] alone."""
    if not any(coeffs):
        coeffs = [1] + coeffs[1:]
    nvars, l = basis[0][0].nvars, len(basis[0])
    col = [MultiPoly.zero(nvars) for _ in range(l)]
    for c, vec in zip(coeffs, basis):
        if c:
            for s in range(l):
                col[s] = col[s] + vec[s] * c
    return col


def build_minimal_matrix(fs: FakeDegreeSet, row_idx: int, seed: int = 0) -> MinimalTauMatrix:
    g = fs.group
    real = matrix_realization(g, fs.table, row_idx)
    exponents = fs.fds[row_idx].exponents
    l = real.dim
    if len(exponents) != l:
        raise ExactError("exponent count differs from the degree (bug)")
    bases = {p: equivariant_basis(real, p, fs) for p in sorted(set(exponents))}
    rng = random.Random((seed, g.descriptor.canonical(), row_idx, "minmat").__repr__())
    for _ in range(MIXING_ATTEMPTS):
        cols = []
        for p in exponents:
            basis = bases[p]
            if not basis:
                raise ExactError(f"no equivariant maps at exponent {p} (bug)")
            if len(basis) == 1 and exponents.count(p) == 1:
                cols.append(_mix(basis, [1]))
            else:
                cols.append(_mix(basis, [rng.randint(-3, 3) for _ in basis]))
        matrix = [[cols[jj][i] for jj in range(l)] for i in range(l)]
        det = _poly_det(matrix, g.dimension)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.dimension)]
        if not det.evaluate(point).is_zero():
            mm = MinimalTauMatrix(
                group=g,
                row=row_idx,
                realization=real,
                matrix=matrix,
                column_degrees=tuple(exponents),
                seed=seed,
                det=det,
            )
            _assert_minimal_properties(fs, mm)
            return mm
    raise ExactError(f"det(M) = 0 after {MIXING_ATTEMPTS} mixing attempts")


def _assert_minimal_properties(fs: FakeDegreeSet, mm: MinimalTauMatrix) -> None:
    g = mm.group
    real = mm.realization
    l = mm.dim
    gen_elts = g.generator_elements
    # Equivariance on generators (suffices by generation).
    for a, gelt in enumerate(gen_elts):
        tau = real.generator_matrices[a]
        for i in range(l):
            for jj in range(l):
                lhs = g.substitute(mm.matrix[i][jj], g.inverse(gelt))
                rhs = MultiPoly.zero(g.dimension)
                for t in range(l):
                    if not tau[i][t].is_zero():
                        rhs = rhs + mm.matrix[t][jj] * tau[i][t]
                if lhs != rhs:
                    raise ExactError("minimal matrix equivariance failed (bug)")
    # Euler property E M = M diag(p_j): E f = p f exactly when f is
    # homogeneous of degree p or zero.
    for i in range(l):
        for jj in range(l):
            if mm.matrix[i][jj].homogeneous_degree() not in (mm.column_degrees[jj], None):
                raise ExactError("Euler property failed (bug)")
    # Trace condition.
    rhs = sum(len(o.members) * s for o, s in zip(g.orbits, fs.local[mm.row].exponent_sums()))
    if sum(mm.column_degrees) != rhs:
        raise ExactError("trace of the Euler matrix mismatches the local data")


def verify_det_factorization(fs: FakeDegreeSet, mm: MinimalTauMatrix) -> dict:
    """det(M) = const * prod_C pi_C^{sum_j j n_{C,j}} by exact division."""
    g = mm.group
    expected = MultiPoly.constant(g.dimension, 1)
    exps = fs.local[mm.row].exponent_sums()
    for orbit, e in zip(g.orbits, exps):
        if e:
            expected = expected * orbit.pi ** e
    try:
        ratio = mm.det.divide_exact(expected)
        constant = ratio.homogeneous_degree() in (0, None)
        ok = constant and not ratio.is_zero()
        c_val = ratio.terms.get((0,) * g.dimension, CycNum.zero())
    except ExactError as exc:
        return {"row": mm.row, "passed": False, "reason": str(exc)}
    return {
        "row": mm.row,
        "passed": bool(ok),
        "orbit_exponents": exps,
        "constant": c_val.to_json(),
    }


def verify_quotient_property(
    fs: FakeDegreeSet, mm: MinimalTauMatrix, seed: int = 0
) -> dict:
    """For a sampled non-minimal equivariant N: R = M^{-1} N is a W-invariant
    polynomial matrix (exact division by det M, invariance under generators);
    N's degrees p + d_1 are checked against the fake-degree prediction too."""
    g = mm.group
    real = mm.realization
    l = mm.dim
    d1 = g.degrees[0]
    rng = random.Random((seed, g.descriptor.canonical(), mm.row, "quotient").__repr__())
    cols = []
    for p in mm.column_degrees:
        basis = equivariant_basis(real, p + d1, fs)
        cols.append(_mix(basis, [rng.randint(-2, 2) for _ in basis]))
    nmat = [[cols[jj][i] for jj in range(l)] for i in range(l)]

    adj = _adjugate(mm.matrix, g.dimension)
    gen_elts = g.generator_elements
    entries_ok = True
    invariant_ok = True
    try:
        for i in range(l):
            for jj in range(l):
                acc = MultiPoly.zero(g.dimension)
                for k in range(l):
                    acc = acc + adj[i][k] * nmat[k][jj]
                r_entry = acc.divide_exact(mm.det)
                for gelt in gen_elts:
                    if g.substitute(r_entry, g.inverse(gelt)) != r_entry:
                        invariant_ok = False
    except ExactError:
        entries_ok = False
    passed = entries_ok and invariant_ok
    return {
        "row": mm.row,
        "passed": passed,
        "polynomial_entries": entries_ok,
        "invariant_entries": invariant_ok,
        "bump_degree": d1,
    }


def _adjugate(m: list[list[MultiPoly]], nvars: int) -> list[list[MultiPoly]]:
    l = len(m)
    if l == 1:
        return [[MultiPoly.constant(nvars, 1)]]
    out = [[MultiPoly.zero(nvars) for _ in range(l)] for _ in range(l)]
    for i in range(l):
        for jj in range(l):
            minor = [
                [m[r][c] for c in range(l) if c != jj] for r in range(l) if r != i
            ]
            cof = _poly_det(minor, nvars)
            if (i + jj) % 2:
                cof = -cof
            out[jj][i] = cof  # adjugate is the transposed cofactor matrix
    return out
