"""Minimal equivariant polynomial matrices.

For an irreducible character chi with explicit matrix realization tau, a
minimal matrix M is an l x l polynomial matrix with nonzero determinant,
column j homogeneous of degree p_j (the j-th fake-degree exponent), and
M(w^{-1} v) = tau(w) M(v) for all w.  Columns are found by an exact linear
solve for equivariant polynomial maps V -> C^l degree by degree; when the
solution space is bigger than the number of columns needed, a deterministic
pseudo-random mixing is drawn and the determinant certified nonzero by exact
evaluation at a random rational point (one nonzero evaluation is a proof).

Matrix realizations come from the defining representation (possibly twisted
by a linear character) when the character matches, and otherwise from
projecting a multiplicity-one induced module C[W] e_lambda for a cyclic
subgroup; those matrices are unitary for the explicit invariant Hermitian
Gram form carried alongside (exactly certified), not for the standard form,
which would require square-root field extensions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import CycNum, ExactError, MultiPoly, SeriesT, series_inverse
from . import linalg
from .linalg import Matrix
from .groups import ReflectionGroup
from .chars import CharacterTable, ClassFunction, local_data
from .fake import FakeDegreeSet, degree_numerator


class RealizationError(Exception):
    """Could not produce or validate an explicit matrix realization."""


@dataclass
class Realization:
    """Exact matrices for the group generators affording a character row."""

    group: ReflectionGroup
    row: int
    character: ClassFunction
    generator_matrices: list[Matrix]
    gram: Matrix
    method: str

    def __post_init__(self):
        self._cache: dict[int, Matrix] = {}

    @property
    def dim(self) -> int:
        return len(self.generator_matrices[0])

    def element_matrix(self, i: int) -> Matrix:
        got = self._cache.get(i)
        if got is None:
            m = linalg.identity(self.dim)
            for a in self.words_for(i):
                m = linalg.mat_mul(m, self.generator_matrices[a])
            got = self._cache[i] = m
        return got

    def words_for(self, i: int):
        return self.group.words[i]

    def validate(self, table_row: ClassFunction) -> None:
        g = self.group
        for idx, cls in enumerate(g.classes):
            if linalg.trace(self.element_matrix(cls.rep)) != table_row.values[idx]:
                raise RealizationError(
                    f"realization character mismatch on class {idx}"
                )
        for a, m in enumerate(self.generator_matrices):
            lhs = linalg.mat_mul(linalg.mat_mul(linalg.conj_transpose(m), self.gram), m)
            if lhs != self.gram:
                raise RealizationError("realization is not unitary for its Gram form")


def _linear_realization(g, table, row_idx) -> Realization:
    row = table.rows[row_idx]
    gen_elts = g.generator_elements
    mats = [((row.value_on_element(e),),) for e in gen_elts]
    return Realization(g, row_idx, row, [tuple(m) for m in mats], ((CycNum.one(),),), "linear")


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
        for j in range(m):
            acc = CycNum.zero()
            cur = g.identity
            for s in range(m):
                acc = acc + row.value_on_element(cur) * CycNum.zeta(m, (-j * s) % m)
                cur = g.mult(cur, z)
            mult = acc / m
            if not mult.is_integer() or mult.as_fraction() < 0:
                raise RealizationError("restriction multiplicity not a nonneg integer")
            if mult == 1:
                choice = (z, m, j)
                break
        if choice:
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

    basis = linalg.column_space_basis(proj)
    if len(basis) != deg:
        raise RealizationError(
            f"isotypic projection has rank {len(basis)}, expected {deg}"
        )
    bmat = tuple(tuple(basis[c][r] for c in range(deg)) for r in range(nx))

    gen_elts = g.generator_elements
    gen_mats = []
    for a in gen_elts:
        perm, scal = induced_monomial(a)
        rhs_cols = []
        for c in range(deg):
            col = [CycNum.zero()] * nx
            for r in range(nx):
                col[perm[r]] = scal[r] * bmat[r][c]
            rhs_cols.append(col)
        coeffs = _solve_in_column_space(bmat, rhs_cols)
        gen_mats.append(tuple(tuple(coeffs[t][c] for c in range(deg)) for t in range(deg)))

    gram = linalg.mat_mul(linalg.conj_transpose(bmat), bmat)
    return Realization(g, row_idx, row, gen_mats, gram, "induced_cyclic")


def _solve_in_column_space(bmat: Matrix, rhs_cols) -> list[list[CycNum]]:
    """Coordinates of each rhs column in the column space of bmat."""
    nx, d = len(bmat), len(bmat[0])
    k = len(rhs_cols)
    aug = [list(bmat[r]) + [rhs_cols[c][r] for c in range(k)] for r in range(nx)]
    red, pivots = linalg.rref(aug)
    if pivots[: d] != list(range(d)) or len(pivots) != d:
        raise RealizationError("rhs outside the column space (bug)")
    return [[red[t][d + c] for c in range(k)] for t in range(d)]


def matrix_realization(g: ReflectionGroup, table: CharacterTable, row_idx: int) -> Realization:
    row = table.rows[row_idx]
    if row.norm() != 1:
        raise RealizationError("matrix_realization needs an irreducible character")
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

def _monomials(n: int, p: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(p,)]
    out = []
    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(prefix + (rem,))
            return
        for a in range(rem, -1, -1):
            rec(prefix + (a,), rem - a, slots - 1)
    rec((), p, n)
    return out


def _substitution_matrix(g: ReflectionGroup, elt: int, monos) -> list[list[CycNum]]:
    """S[d'][d] = coefficient of mono d' in (A v)^{mono d}, A = matrix of elt.

    Cached on the group keyed by (element, degree): the matrix is shared by
    every character of the group.
    """
    p = sum(monos[0]) if monos else 0
    try:
        cache = g._subst_cache
    except AttributeError:
        cache = g._subst_cache = {}
    got = cache.get((elt, p))
    if got is not None:
        return got
    mats = g.elements[elt]
    n = g.dimension
    rows = [MultiPoly.linear_form([mats[i][jj] for jj in range(n)]) for i in range(n)]
    pow_cache: list[dict[int, MultiPoly]] = [dict() for _ in range(n)]

    def row_pow(i, k):
        gotp = pow_cache[i].get(k)
        if gotp is None:
            gotp = rows[i] ** k
            pow_cache[i][k] = gotp
        return gotp

    index = {mo: d for d, mo in enumerate(monos)}
    D = len(monos)
    S = [[CycNum.zero()] * D for _ in range(D)]
    for d, mo in enumerate(monos):
        term = MultiPoly.constant(n, 1)
        for i, a in enumerate(mo):
            if a:
                term = term * row_pow(i, a)
        for e, c in term.terms.items():
            S[index[e]][d] = c
    cache[(elt, p)] = S
    return S


def predicted_equivariant_dimension(fs: FakeDegreeSet, row_idx: int, p: int) -> int:
    """[T^p] of F_tau(T) * (Molien series), the ambient multiplicity."""
    g = fs.group
    molien = series_inverse(degree_numerator(g), p)
    f_series = SeriesT(list(fs.f_poly(row_idx).coeffs), p)
    val = (f_series * molien)[p]
    return int(val.as_fraction())


def equivariant_basis(real: Realization, p: int, fs: FakeDegreeSet | None = None):
    """Exact basis of degree-p polynomial maps f: V -> C^l with
    f(w^{-1} v) = tau(w) f(v); returned as tuples of component MultiPolys.

    The constraint of each generator is intersected sequentially: the next
    generator's linear system is expressed in the coordinates of the current
    solution basis, which keeps the eliminations small.
    """
    g = real.group
    n, l = g.dimension, real.dim
    monos = _monomials(n, p)
    D = len(monos)
    nun = D * l
    gen_elts = g.generator_elements
    basis_vecs: list[list[CycNum]] | None = None  # None means the full space
    zero = CycNum.zero()
    for a, gelt in enumerate(gen_elts):
        S = _substitution_matrix(g, g.inverse(gelt), monos)
        tau = real.generator_matrices[a]
        rows: list[list[CycNum]] = []
        for dp in range(D):
            for s in range(l):
                rowvec = [zero] * nun
                for d in range(D):
                    if not S[dp][d].is_zero():
                        rowvec[d * l + s] = rowvec[d * l + s] + S[dp][d]
                for t in range(l):
                    if not tau[s][t].is_zero():
                        rowvec[dp * l + t] = rowvec[dp * l + t] - tau[s][t]
                if any(not x.is_zero() for x in rowvec):
                    rows.append(rowvec)
        if not rows:
            continue
        if basis_vecs is None:
            basis_vecs = [list(v) for v in linalg.nullspace(rows)]
        else:
            k = len(basis_vecs)
            if k == 0:
                break
            restricted = []
            for r in rows:
                row = []
                for b in basis_vecs:
                    acc = zero
                    for c in range(nun):
                        if not r[c].is_zero() and not b[c].is_zero():
                            acc = acc + r[c] * b[c]
                    row.append(acc)
                if any(not x.is_zero() for x in row):
                    restricted.append(row)
            if restricted:
                combos = linalg.nullspace(restricted)
                new_basis = []
                for combo in combos:
                    vec = [zero] * nun
                    for coef, b in zip(combo, basis_vecs):
                        if not coef.is_zero():
                            for c in range(nun):
                                if not b[c].is_zero():
                                    vec[c] = vec[c] + coef * b[c]
                    new_basis.append(vec)
                basis_vecs = new_basis
    if basis_vecs is None:
        basis_vecs = [
            [CycNum.one() if i == k else zero for i in range(nun)] for k in range(nun)
        ]
    basis = []
    for vec in basis_vecs:
        comps = []
        for s in range(l):
            terms = {}
            for d, mo in enumerate(monos):
                c = vec[d * l + s]
                if not c.is_zero():
                    terms[mo] = c
            comps.append(MultiPoly(n, terms))
        basis.append(tuple(comps))
    if fs is not None:
        want = predicted_equivariant_dimension(fs, real.row, p)
        if len(basis) != want:
            raise ExactError(
                f"equivariant space at degree {p} has dim {len(basis)}, "
                f"fake degree predicts {want}"
            )
    return basis


# ---------------------------------------------------------------------------
# minimal matrices
# ---------------------------------------------------------------------------

@dataclass
class MinimalTauMatrix:
    group: ReflectionGroup
    row: int
    realization: Realization
    matrix: list[list[MultiPoly]]  # entries; column j homogeneous of degree p_j
    column_degrees: tuple[int, ...]
    seed: int

    @property
    def dim(self) -> int:
        return len(self.column_degrees)

    def det_poly(self) -> MultiPoly:
        return _poly_det(self.matrix, self.group.dimension)


def _poly_det(m: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    import itertools

    l = len(m)
    acc = MultiPoly.zero(nvars)
    for perm in itertools.permutations(range(l)):
        sign = _perm_sign(perm)
        term = MultiPoly.constant(nvars, sign)
        for i in range(l):
            term = term * m[i][perm[i]]
        acc = acc + term
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        jj, ln = i, 0
        while not seen[jj]:
            seen[jj] = True
            jj = perm[jj]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def build_minimal_matrix(
    fs: FakeDegreeSet, row_idx: int, seed: int = 0, retry_budget: int = 32
) -> MinimalTauMatrix:
    g = fs.group
    real = matrix_realization(g, fs.table, row_idx)
    exponents = fs.fds[row_idx].exponents
    l = real.dim
    if len(exponents) != l:
        raise ExactError("exponent count differs from the degree (bug)")
    bases = {p: equivariant_basis(real, p, fs) for p in sorted(set(exponents))}
    rng = random.Random((seed, g.descriptor.canonical(), row_idx, "minmat").__repr__())
    for attempt in range(retry_budget):
        cols = []
        for p in exponents:
            basis = bases[p]
            if not basis:
                raise ExactError(f"no equivariant maps at exponent {p} (bug)")
            if len(basis) == 1 and len([q for q in exponents if q == p]) == 1:
                coeffs = [1]
            else:
                coeffs = [rng.randint(-3, 3) for _ in basis]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = 1
            col = [MultiPoly.zero(g.dimension) for _ in range(l)]
            for c, vec in zip(coeffs, basis):
                if c:
                    for s in range(l):
                        col[s] = col[s] + vec[s] * c
            cols.append(col)
        matrix = [[cols[jj][i] for jj in range(l)] for i in range(l)]
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.dimension)]
        val = linalg.det(
            tuple(
                tuple(matrix[i][jj].evaluate(point) for jj in range(l))
                for i in range(l)
            )
        )
        if not val.is_zero():
            mm = MinimalTauMatrix(
                group=g,
                row=row_idx,
                realization=real,
                matrix=matrix,
                column_degrees=tuple(exponents),
                seed=seed,
            )
            _assert_minimal_properties(fs, mm)
            return mm
    raise ExactError(f"det(M) = 0 after {retry_budget} mixing attempts")


def _assert_minimal_properties(fs: FakeDegreeSet, mm: MinimalTauMatrix) -> None:
    g = mm.group
    real = mm.realization
    l = mm.dim
    gen_elts = g.generator_elements
    # Equivariance on generators (suffices by generation).
    for a, gelt in enumerate(gen_elts):
        minv = g.elements[g.inverse(gelt)]
        tau = real.generator_matrices[a]
        for i in range(l):
            for jj in range(l):
                lhs = mm.matrix[i][jj].compose_matrix(minv)
                rhs = MultiPoly.zero(g.dimension)
                for t in range(l):
                    if not tau[i][t].is_zero():
                        rhs = rhs + mm.matrix[t][jj] * tau[i][t]
                if lhs != rhs:
                    raise ExactError("minimal matrix equivariance failed (bug)")
    # Euler property: E M = M diag(p_j), i.e. column homogeneity.
    for i in range(l):
        for jj in range(l):
            entry = mm.matrix[i][jj]
            if entry.euler() != entry * mm.column_degrees[jj]:
                raise ExactError("Euler property failed (bug)")
    # Trace condition.
    lhs = sum(mm.column_degrees)
    rhs = 0
    for c, orbit in enumerate(g.orbits):
        rhs += len(orbit.members) * sum(
            j * n for j, n in enumerate(fs.local[mm.row].multiplicities[c])
        )
    if lhs != rhs:
        raise ExactError("trace of the Euler matrix mismatches the local data")


def verify_det_factorization(fs: FakeDegreeSet, mm: MinimalTauMatrix) -> dict:
    """det(M) = const * prod_C pi_C^{sum_j j n_{C,j}} by exact division."""
    g = mm.group
    detp = mm.det_poly()
    expected = MultiPoly.constant(g.dimension, 1)
    exps = []
    for c, orbit in enumerate(g.orbits):
        e = sum(j * n for j, n in enumerate(fs.local[mm.row].multiplicities[c]))
        exps.append(e)
        if e:
            expected = expected * orbit.pi ** e
    try:
        ratio = detp.divide_exact(expected)
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
    polynomial matrix (exact division by det M, invariance under generators)."""
    g = mm.group
    real = mm.realization
    l = mm.dim
    d1 = g.degrees[0]
    rng = random.Random((seed, g.descriptor.canonical(), mm.row, "quotient").__repr__())
    cols = []
    for p in mm.column_degrees:
        basis = equivariant_basis(real, p + d1)
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        col = [MultiPoly.zero(g.dimension) for _ in range(l)]
        for c, vec in zip(coeffs, basis):
            if c:
                for s in range(l):
                    col[s] = col[s] + vec[s] * c
        cols.append(col)
    nmat = [[cols[jj][i] for jj in range(l)] for i in range(l)]

    detp = mm.det_poly()
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
                r_entry = acc.divide_exact(detp)
                for gelt in gen_elts:
                    minv = g.elements[g.inverse(gelt)]
                    if r_entry.compose_matrix(minv) != r_entry:
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
