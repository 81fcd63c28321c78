"""Independent small-scale oracles used only by the test suite.

These deliberately avoid the production code paths: the character-table
oracle decomposes the regular representation numerically, the fake-degree
oracle sums over all group elements instead of conjugacy classes, and the
equivariant-basis oracle intersects one generator's constraints at a time by
exact CycNum elimination instead of one modular solve.  The substitution
oracle expands each monomial image as a product of powers of the substituted
coordinates in CycNum, not degree by degree on the integer images of
`ReflectionGroup.substitute`.  The determinant and reflection oracles work on
each element's matrix by exact elimination, where the group reads both off the
spectrum of its class, and the Leibniz oracle sums over permutations where
minmat expands det(M) by Laplace.  The transport oracle
is the RK kernel kz used before its batch moved to the last axis: it
evaluates omega at every stage of every step and keeps the batch first.  The
series-step oracle is kz's Taylor kernel with fresh arrays every term, and
the path oracle tests a braid path's admissibility one sample point at a time,
where kz takes one product per leg.  The
log-integral oracle unwraps the argument of each alpha_H over finely sampled
points of every leg, where kz takes one principal Log per leg end.  The
hyperplane and orbit oracles key every reflection's normalized form into a
dict and walk the orbits by form images under the generators, where the group
reads W_H off the powers of a reflection and the orbits off the classes of the
s_H.  The partner oracles compare fake degrees as `PolyT`s, shifted and
reversed coefficient by coefficient, where `fake` compares exponent tuples.
The orbit-character oracle substitutes each orbit product and divides, where
`fake` reads chi_C off Stanley's lemma, and the Molien oracle peels the
degrees off the CycNum Molien series and cuts the G_c from its truncated
products, where the group factors the integer fixed-space count and divides
exactly.  The matrix-group oracles enumerate the group by CycNum matrix
products keyed in a dict, take restriction multiplicities by the CycNum
discrete Fourier transform and divide each G_c as CycNum polynomials, where
the group composes permutations of its roots and works on integers.  The
root-orbit oracle searches X on CycNum vectors keyed in a dict, where the
group searches it on integer coefficients, and the permutation oracle keys
each element by its whole permutation of X and walks words through the
Cayley graph for inverses, element orders and classes, where the group keys
an element by n points and reads inverses and conjugates off its
left-multiplication columns.  The
match oracle sorts one entry's distances to the table rows at a time, where
gamma_scan takes an argmin over one (entries, rows, classes) distance array.
The F_p elimination oracle works on lists of residues, where `linalg._fp_rref`
works on packed rows.  The class-constant oracle walks one word,
mult(inverse(x), z_k), per element x and class representative z_k, where
`chars` applies each representative's word to the list of all inverses at
once.  `FractionCycNum` keeps one Fraction per power-basis
coefficient, where `exact.CycNum` keeps integers over one denominator.
"""
from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from reflekt.exact import (
    ONE,
    ZERO,
    CycNum,
    ExactError,
    MultiPoly,
    PolyT,
    _reduction_table,
    euler_phi,
    poly_one_minus_Tk,
    series_inverse,
)
from reflekt import kz, linalg
from reflekt.chars import CharTableError
from reflekt.kz import KZError
from reflekt.groups import Hyperplane, HyperplaneOrbit, degree_numerator, monomials
from reflekt.minmat import predicted_equivariant_dimension


def poly_divide_exact(num: PolyT, den: PolyT) -> PolyT:
    """Exact quotient num/den by CycNum long division; raises ExactError when
    not divisible."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return num
    if num.degree < den.degree:
        raise ExactError("not divisible: degree too small")
    rem = list(num.coeffs)
    lead_inv = den.coeffs[-1].inverse()
    q = [ZERO] * (num.degree - den.degree + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + den.degree] * lead_inv
        q[i] = c
        if not c.is_zero():
            for j, d in enumerate(den.coeffs):
                rem[i + j] = rem[i + j] - c * d
    if any(not r.is_zero() for r in rem[: den.degree]):
        raise ExactError("not divisible: nonzero remainder")
    return PolyT(q)


def regular_rep_characters(g, seed: int = 20240811) -> list[np.ndarray]:
    """Distinct irreducible characters of g, found by splitting the left
    regular representation along the eigenspaces of a generic Hermitian
    element of its commutant (the right regular group algebra)."""
    n = g.order
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    coeff = np.empty(n, dtype=complex)
    for w in range(n):
        wi = g.inverse(w)
        if w == wi:
            coeff[w] = re[w]
        else:
            a = min(w, wi)
            # c_{w^-1} = conj(c_w) keeps B Hermitian without realifying it,
            # so conjugate pairs of irreducibles stay in separate eigenspaces
            coeff[w] = re[a] + 1j * im[a] if w == a else re[a] - 1j * im[a]
    B = np.zeros((n, n), dtype=complex)
    for w in range(n):
        for v in range(n):
            B[g.mult(v, w), v] += coeff[w]
    assert np.allclose(B, B.conj().T)
    evals, evecs = np.linalg.eigh(B)

    left = []
    for cls in g.classes:
        L = np.zeros((n, n))
        for v in range(n):
            L[g.mult(cls.rep, v), v] = 1.0
        left.append(L)

    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or evals[i] - evals[i - 1] > 1e-6:
            clusters.append((start, i))
            start = i

    chars = []
    for a, b in clusters:
        U = evecs[:, a:b]
        vals = np.array([np.trace(U.conj().T @ L @ U) for L in left])
        chars.append(vals)

    distinct: list[np.ndarray] = []
    for ch in chars:
        if not any(np.allclose(ch, d, atol=1e-6) for d in distinct):
            distinct.append(ch)
    return distinct


def brute_force_fake_degree(g, values) -> PolyT:
    """Fake degree by the elementwise sum, independent of the class-grouped
    production path: (1/|W|) sum_w chi(w) prod(1-T^{d_i}) / det(1-Tw)."""
    order = len(g.reflections)
    numer = PolyT([CycNum.one()])
    for d in g.degrees:
        numer = numer * poly_one_minus_Tk(d)
    acc = PolyT([])
    for w in range(g.order):
        chi = values[g.class_of[w]]
        det_poly = _det_one_minus_T_times(g, w)
        term = series_inverse(det_poly, order) * chi
        acc = acc + term
    total = numer * acc
    coeffs = [total[k] / g.order for k in range(order + 1)]
    return PolyT(coeffs)


def _det_one_minus_T_times(g, w: int) -> PolyT:
    """det(1 - T w) from the explicit matrix, expanded by Leibniz."""
    import itertools

    m = g.matrix(w)
    n = g.dimension
    one = PolyT([CycNum.one()])
    acc = PolyT([])
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = one
        for i in range(n):
            entry = m[i][perm[i]]
            cell = PolyT([CycNum.one() if i == perm[i] else CycNum.zero(), -entry])
            prod = prod * cell
        acc = acc + prod * sign
    return acc


def leibniz_det(m, nvars: int) -> MultiPoly:
    """det of a square MultiPoly matrix as the signed sum over permutations."""
    import itertools

    acc = MultiPoly.zero(nvars)
    for perm in itertools.permutations(range(len(m))):
        term = MultiPoly.constant(nvars, _perm_sign(perm))
        for i, j in enumerate(perm):
            term = term * m[i][j]
        acc = acc + term
    return acc


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# substitution: the reference for ReflectionGroup.substitute
# ---------------------------------------------------------------------------

def substitution_matrix(g, elt: int, monos) -> list[list[CycNum]]:
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
    mats = g.matrix(elt)
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


# ---------------------------------------------------------------------------
# exact elimination: the reference for linalg.nullspace and equivariant_basis
# ---------------------------------------------------------------------------

def exact_rref(rows):
    """Reduced row echelon form by exact CycNum elimination; returns (rows,
    pivot column indices)."""
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


def elimination_det(a) -> CycNum:
    """det of a CycNum matrix by Gaussian elimination."""
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


def rank_reflections(g) -> tuple[int, ...]:
    """The elements w with rank(w - 1) = 1, by exact elimination of each matrix."""
    return tuple(
        i
        for i, m in enumerate(map(g.matrix, range(g.order)))
        if len(exact_rref([[x - int(r == c) for c, x in enumerate(row)]
                           for r, row in enumerate(m)])[1]) == 1
    )


def word_walk_class_constants(g) -> list[list[list[int]]]:
    """a[i][j][k] = #{x in C_i : x^{-1} z_k in C_j} for the class reps z_k,
    by one word walk of x^{-1} z_k per (class, element)."""
    r = len(g.classes)
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, ci in enumerate(g.classes):
        for k, ck in enumerate(g.classes):
            for x in ci.members:
                mats[i][g.class_of[g.mult(g.inverse(x), ck.rep)]][k] += 1
    return mats


def fp_rref_lists(rows, p: int):
    """Reduced row echelon form over F_p on lists of residues: (the nonzero
    rows, their pivot columns)."""
    m = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def exact_nullspace(a):
    """Reduced-echelon basis of {v : a v = 0} by exact CycNum elimination."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = exact_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def sequential_equivariant_basis(real, p: int, fs=None):
    """Exact basis of degree-p polynomial maps f: V -> C^l with
    f(w^{-1} v) = tau(w) f(v); returned as tuples of component MultiPolys.

    The constraint of each generator is intersected sequentially: the next
    generator's linear system is expressed in the coordinates of the current
    solution basis, which keeps the eliminations small.
    """
    g = real.group
    n, l = g.dimension, real.dim
    monos = monomials(n, p)
    D = len(monos)
    nun = D * l
    gen_elts = g.generator_elements
    basis_vecs: list[list[CycNum]] | None = None  # None means the full space
    zero = CycNum.zero()
    for a, gelt in enumerate(gen_elts):
        S = substitution_matrix(g, g.inverse(gelt), monos)
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
            basis_vecs = [list(v) for v in exact_nullspace(rows)]
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
                combos = exact_nullspace(restricted)
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


MIN_STEP = 1e-10  # reference_transport's own step-size floor


def reference_transport(block, path, rtol: float = 1e-11) -> np.ndarray:
    """Transport matrices of Phi' = -omega(v'(t)) Phi, batched over labels.

    Classical fourth-order stepping with step doubling; the local relative
    error of the half-step pair is kept below rtol.  Legs of a composite path
    are integrated in sequence.
    """
    a = block.residues  # (B, H, l, l)
    alpha = block.alpha_rows
    bsz, nh, l, _ = a.shape
    y = np.broadcast_to(np.eye(l, dtype=complex), (bsz, l, l)).copy()

    for seg_point, seg_vel in path.segments():

        def omega(t: float) -> np.ndarray:
            coef = (alpha @ seg_vel(t)) / (alpha @ seg_point(t))
            return -np.einsum("h,bhij->bij", coef, a)

        def rk4(t: float, h: float, yy: np.ndarray) -> np.ndarray:
            k1 = np.einsum("bij,bjk->bik", omega(t), yy)
            k2 = np.einsum("bij,bjk->bik", omega(t + h / 2), yy + h / 2 * k1)
            k3 = np.einsum("bij,bjk->bik", omega(t + h / 2), yy + h / 2 * k2)
            k4 = np.einsum("bij,bjk->bik", omega(t + h), yy + h * k3)
            return yy + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        t, h = 0.0, 0.05
        while t < 1.0 - 1e-15:
            h = min(h, 1.0 - t)
            full = rk4(t, h, y)
            half = rk4(t + h / 2, h / 2, rk4(t, h / 2, y))
            err = float(np.max(np.abs(full - half)))
            scale = max(1.0, float(np.max(np.abs(half))))
            if err <= rtol * scale:
                y = half + (half - full) / 15.0  # Richardson extrapolation
                t += h
                growth = 2.0 if err == 0 else min(2.0, max(0.3, 0.9 * (rtol * scale / err) ** 0.2))
                h *= growth
            else:
                h *= max(0.1, 0.9 * (rtol * scale / err) ** 0.2)
            if h < MIN_STEP:
                raise KZError("step-size underflow near a hyperplane")
    return y


@np.errstate(over="ignore", invalid="ignore")
def series_step_reference(y, res, d, x, stats) -> np.ndarray:
    """kz._series_step as it was before its buffers: fresh arrays every term,
    and the stopping test on two separate magnitude arrays."""
    l, bsz = y.shape[0], y.shape[2]
    c = res * np.repeat(-x / d, l)[None, :, None, None]  # -x A_H/d_H
    ratio = (x / d)[:, None, None, None]
    total, term, w, n, quiet = y.copy(), y, 0, 0, 0
    while quiet < 3:
        if stats["terms"] >= kz.TERM_BUDGET:
            raise KZError(f"transport exceeded {kz.TERM_BUDGET} series terms on one path")
        w = term - ratio * w
        n += 1
        term = (c * w.reshape(-1, l, bsz)).sum(axis=1) / n
        total += term
        stats["terms"] += 1
        big = np.abs(term).max(axis=(0, 1)) > kz.TINY * np.abs(total).max(axis=(0, 1))
        quiet = 0 if big.any() else quiet + 1  # NaN counts as quiet, and raises below
    stats["steps"] += 1
    if not np.all(np.isfinite(total)):
        raise KZError("series transport is not finite")
    return total


def build_path_reference(g, h_idx, v0, alpha, delta):
    """kz._build_path with its admissibility test one sample at a time: one
    mat-vec per sample point of every leg."""
    hp = g.hyperplanes[h_idx]
    e = hp.order
    center, nu = kz._split_point(v0, alpha[h_idx])
    a_center = np.abs(alpha @ center)
    a_nu = np.abs(alpha @ nu)
    others = [hh for hh in range(len(alpha)) if hh != h_idx]
    if others and min(a_center[hh] for hh in others) < 0.3 * delta:
        return None
    if not others:
        eps = 1.0
    else:
        ratio = min(a_center[hh] / a_nu[hh] if a_nu[hh] > 1e-14 else np.inf for hh in others)
        eps = 1.0 if ratio > 1.3 else min(0.8 * ratio, 0.5)
        if eps < 1e-4:
            return None
    segments = kz._path_segments(center, nu, e, eps)
    ts = np.linspace(0.0, 1.0, kz.PATH_SAMPLES)
    for seg_point, _seg_vel in segments:
        for t in ts:
            vt = seg_point(t)
            vals = np.abs(alpha @ vt)
            vals[h_idx] = np.inf  # margin to H itself is |alpha_H| >= eps*|alpha_H(nu)|
            if len(alpha) > 1 and vals.min() < 0.25 * delta:
                return None
    return kz.BraidPath(
        hyperplane=h_idx,
        order=e,
        center=kz._read_only(center),
        nu=kz._read_only(nu),
        eps=eps,
        log_integrals=kz._read_only(kz._log_integrals(segments, alpha, h_idx, e)),
    )


def sampled_log_integrals(path, alpha, samples: int = 2048) -> np.ndarray:
    """int_path dalpha_H/alpha_H for every hyperplane H, from the unwrapped
    argument of alpha_H at `samples` points per leg."""
    ts = np.linspace(0.0, 1.0, samples)
    total = np.zeros(len(alpha), dtype=complex)
    for seg_point, _seg_vel in path.segments():
        vals = np.array([alpha @ seg_point(t) for t in ts])  # (samples, H)
        turn = np.unwrap(np.angle(vals), axis=0)
        total += np.log(np.abs(vals[-1]) / np.abs(vals[0])) + 1j * (turn[-1] - turn[0])
    return total


def match_row(values: np.ndarray, embedded_rows, tol: float):
    """The table row nearest one entry's monodromy character, and its distance."""
    dists = [float(np.max(np.abs(values - er))) for er in embedded_rows]
    order = sorted(range(len(dists)), key=lambda i: dists[i])
    best = order[0]
    if dists[best] > tol:
        raise KZError(f"no table row within {tol} of the monodromy character")
    if len(order) > 1 and dists[order[1]] <= tol:
        raise KZError("ambiguous character match; tighten the integrator")
    return best, dists[best]


def per_entry_gamma_matches(fs, ks, settings) -> list[tuple[dict, float]]:
    """(mapping, match residual) per label: gamma_scan's degree sweeps, each
    (row, label) entry matched on its own by match_row."""
    g = fs.group
    gen_hyps = kz._generator_hyperplanes(g)
    conj_rows = [np.array([v.to_complex() for v in r.values]).conj() for r in fs.table.rows]
    class_words = [g.words[c.rep] for c in g.classes]
    mappings, residuals = [{} for _ in ks], [0.0] * len(ks)
    for rows in kz._rows_by_degree(fs):
        values, _residual, _steps = kz._sweep(fs, rows, ks, gen_hyps, class_words, settings)
        for entry, (row, b) in enumerate(itertools.product(rows, range(len(ks)))):
            mappings[b][row], resid = match_row(values[entry], conj_rows, settings.match_tol)
            residuals[b] = max(residuals[b], resid)
    return list(zip(mappings, residuals))


def _normalized_form(row):
    piv = next(x for x in row if not x.is_zero())
    inv = piv.inverse()
    return tuple(x * inv for x in row)


def _reflection_form(g, i: int):
    diff = linalg.mat_sub(g.matrix(i), linalg.identity(g.dimension))
    for row in diff:
        if any(not x.is_zero() for x in row):
            return _normalized_form(row)
    raise ExactError("reflection without a moving row (bug)")


def _form_image(g, form, w: int):
    """alpha_H o w^{-1}, a nonzero multiple of the form of w(H)."""
    m = g.matrix(g.inverse(w))
    return tuple(
        sum((form[i] * m[i][j] for i in range(g.dimension)), ZERO)
        for j in range(g.dimension)
    )


def forms_hyperplanes(g):
    """(hyperplanes, hyperplane_index): the reflections grouped by normalized
    form, with hyperplane_index the dict from forms to hyperplane indices."""
    forms = {}
    for i in g.reflections:
        forms.setdefault(_reflection_form(g, i), []).append(i)
    hyperplanes = []
    hyperplane_index = {}
    for form, members in forms.items():
        alpha = MultiPoly.linear_form(form)
        # The pointwise stabilizer of H is 1 plus the reflections with hyperplane H.
        stab = [0] + members
        e = len(stab)
        if e < 2:
            raise ExactError("hyperplane stabilizer not a reflection group (bug)")
        target = CycNum.zeta(e)
        gen = next((i for i in stab if g.det(i) == target), None)
        if gen is None:
            raise ExactError("no distinguished generator with det = zeta_e (bug)")
        if g.element_orders[gen] != e:
            raise ExactError("hyperplane stabilizer is not cyclic (bug)")
        hyperplane_index[form] = len(hyperplanes)
        hyperplanes.append(
            Hyperplane(
                form=form,
                alpha=alpha,
                order=e,
                generator=gen,
                stabilizer=tuple(stab),
            )
        )
    return tuple(hyperplanes), hyperplane_index


def forms_orbits(g, hyperplanes, hyperplane_index):
    """(orbits, orbit_of_hyperplane) by breadth-first search over the images
    of the hyperplanes of `forms_hyperplanes` under the generators."""

    def hyperplane_image(h_idx: int, w: int) -> int:
        """Index of w(H): the form transforms as alpha o w^{-1}."""
        return hyperplane_index[_normalized_form(_form_image(g, hyperplanes[h_idx].form, w))]

    unassigned = set(range(len(hyperplanes)))
    orbits = []
    orbit_of_hyperplane = [0] * len(hyperplanes)
    gen_elts = g.generator_elements
    while unassigned:
        start = min(unassigned)
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for w in gen_elts:
                img = hyperplane_image(cur, w)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        members = tuple(sorted(seen))
        orders = {hyperplanes[h].order for h in members}
        if len(orders) != 1:
            raise ExactError("orbit with mixed stabilizer orders (bug)")
        for h in members:
            orbit_of_hyperplane[h] = len(orbits)
        alphas = tuple(hyperplanes[h].alpha for h in members)
        orbits.append(HyperplaneOrbit(members=members, order=orders.pop(), alphas=alphas))
        unassigned -= seen
    return tuple(orbits), orbit_of_hyperplane


def shift(p: PolyT, k: int) -> PolyT:
    """Multiply by T^k."""
    if p.is_zero():
        return p
    return PolyT([ZERO] * k + list(p.coeffs))


def unshift(p: PolyT, k: int) -> PolyT:
    if any(not c.is_zero() for c in p.coeffs[:k]):
        raise ExactError("negative shift would lose terms")
    return PolyT(list(p.coeffs[k:]))


def reversed_shift(p: PolyT, c: int) -> PolyT:
    """T^c * p(1/T); raises if the result has a negative exponent."""
    if p.is_zero():
        return p
    out: dict[int, CycNum] = {}
    for k, a in enumerate(p.coeffs):
        if a.is_zero():
            continue
        e = c - k
        if e < 0:
            raise ExactError(f"T^{c} * p(1/T) is not a polynomial (term T^{e})")
        out[e] = a
    coeffs = [ZERO] * (max(out) + 1)
    for e, a in out.items():
        coeffs[e] = a
    return PolyT(coeffs)


def polyt_symmetry_matches(fs, i: int, n_int: int) -> list[int]:
    """Rows of tau's degree with F = T^N F_tau, comparing PolyTs."""
    deg = fs.table.rows[i].degree_int()
    fp = fs.f_poly(i)
    target = shift(fp, n_int) if n_int >= 0 else unshift(fp, -n_int)
    return [
        j
        for j in range(len(fs.table.rows))
        if fs.table.rows[j].degree_int() == deg and fs.f_poly(j) == target
    ]


def polyt_palindrome_partners(fs, i: int, c_int: int) -> list[int] | None:
    """Rows of tau's degree whose R is T^c R_tau(1/T), comparing PolyTs; None
    when T^c R_tau(1/T) is not a polynomial."""
    r_poly = [fs.f_poly(fs.conj_perm[j]) for j in range(len(fs.table.rows))]
    try:
        target = reversed_shift(r_poly[i], c_int)
    except ExactError:
        return None
    deg = fs.table.rows[i].degree_int()
    return [
        j
        for j in range(len(fs.table.rows))
        if fs.table.rows[j].degree_int() == deg and r_poly[j] == target
    ]


def orbit_character(g, c: int) -> tuple[CycNum, ...]:
    """Class values of chi_C, the linear character with
    pi_C o w^{-1} = chi_C(w) pi_C, as that ratio at each class representative."""
    pi = g.orbits[c].pi
    zero = (0,) * g.dimension
    return tuple(g.substitute(pi, g.inverse(cls.rep)).divide_exact(pi).terms[zero] for cls in g.classes)


def orbit_det_power(g, lam, orbit_idx: int) -> int:
    """The a with lam|_{W_H} = det^{-a} on the stabilizer of orbit orbit_idx."""
    hp = g.hyperplanes[g.orbits[orbit_idx].members[0]]
    s = hp.generator
    val = lam.value_on_element(s)
    d = g.det(s)
    for a in range(hp.order):
        if d ** ((-a) % hp.order) == val:
            return a
    raise CharTableError("linear character is not a det power on the stabilizer")


def molien_degrees(g) -> tuple[tuple[int, ...], tuple[PolyT, ...]]:
    """(degrees, G_c per class) from the Molien series: its numerator
    prod (1 - T^{d_i}) is the inverse of the class-averaged 1/det(1 - T c),
    the degrees are peeled off it one factor at a time, and each G_c is the
    numerator times 1/det(1 - T c), cut at #R."""
    n = g.dimension
    nrefl = len(g.reflections)
    order = nrefl + n
    # 1/det(1 - T c) to `order` per class representative c, promoted to
    # the conductor, where the character values live.
    inverses = []
    for cls in g.classes:
        inv = series_inverse(char_poly_one_minus_Tw(g, cls.rep), order)
        inverses.append(PolyT([inv[k].promote(g.conductor) for k in range(order + 1)]))
    total = PolyT([])
    for cls, inv in zip(g.classes, inverses):
        total = total + inv * cls.size
    numer = series_inverse(total * Fraction(1, g.order), order)
    if numer.degree != order:
        raise ExactError("Molien numerator has unexpected degree (bug)")
    poly = numer
    degrees = []
    for _ in range(n):
        d = next(
            (k for k in range(1, poly.degree + 1) if not poly[k].is_zero()),
            None,
        )
        if d is None:
            raise ExactError("degree peeling failed (bug)")
        poly = poly_divide_exact(poly, poly_one_minus_Tk(d))
        degrees.append(d)
    if poly != PolyT([ONE]):
        raise ExactError("degree peeling left a nontrivial factor (bug)")
    # The coinvariant graded trace G_c = numer / det(1 - T c) is a polynomial
    # of degree <= #R: the product with 1/det(1 - T c) cut at #R, taken over
    # the nonzero terms of numer = prod (1 - T^{d_i}) only.
    terms = [(m, a) for m, a in enumerate(numer.coeffs) if not a.is_zero()]
    traces = []
    for inv in inverses:
        out = [ZERO] * (nrefl + 1)
        for m, a in terms:
            for k in range(m, nrefl + 1):
                out[k] = out[k] + inv[k - m] * a
        traces.append(PolyT(out))
    return tuple(sorted(degrees)), tuple(traces)


# ---------------------------------------------------------------------------
# matrix groups: the reference for the permutation core of ReflectionGroup
# ---------------------------------------------------------------------------

def matrix_enumeration(g, max_order: int = 50_000):
    """(elements, words, rmul, inverse_table) by breadth-first search over
    generator words on the CycNum matrices themselves, each product looked up
    in a dict on matrices."""
    ident = linalg.identity(g.dimension)
    ident = tuple(tuple(x.promote(g.generator_matrices[0][0][0].N) for x in row) for row in ident)
    elements = [ident]
    words = [()]
    parent = [0]
    index = {ident: 0}
    rmul = []
    head = 0
    while head < len(elements):
        cur = elements[head]
        row = []
        for a, gm in enumerate(g.generator_matrices):
            new = linalg.mat_mul(cur, gm)
            j = index.get(new)
            if j is None:
                if len(elements) >= max_order:
                    raise ExactError(f"group order exceeds the cap {max_order}")
                j = index[new] = len(elements)
                elements.append(new)
                words.append(words[head] + (a,))
                parent.append(head)
            row.append(j)
        rmul.append(tuple(row))
        head += 1

    def mult(i, j):
        for a in words[j]:
            i = rmul[i][a]
        return i

    gen_inv = []
    for a in range(len(g.generator_matrices)):
        prev, cur = 0, rmul[0][a]
        while cur != 0:
            prev, cur = cur, rmul[cur][a]
        gen_inv.append(prev)
    inv = [0] * len(elements)
    for j in range(1, len(elements)):
        inv[j] = mult(gen_inv[words[j][-1]], inv[parent[j]])
    return elements, words, rmul, inv


def root_orbit(g, max_order: int = 50_000):
    """(roots, perms): X, the W-orbit of the b_j, by breadth-first search on
    CycNum vectors in B-coordinates at label N0 keyed in a dict, with
    perms[a][x] the index of s_a(x), each image the CycNum product M v of the
    generator's matrix M = B^-1 s B, formed from the group's B and B^-1."""
    n, n0 = g.dimension, g.entry_label
    gens = [
        tuple(tuple(x.promote(n0) for x in row) for row in linalg.mat_mul(g._basis_inverse, linalg.mat_mul(s, g._basis)))
        for s in g.generator_matrices
    ]
    zero = CycNum.zero(n0)
    roots = [tuple(CycNum.rational(int(i == j), n0) for i in range(n)) for j in range(n)]
    index = {v: j for j, v in enumerate(roots)}
    perms = [[] for _ in gens]
    head = 0
    while head < len(roots):
        v = roots[head]
        for perm, s in zip(perms, gens):
            u = tuple(sum((a * b for a, b in zip(row, v) if not a.is_zero() and not b.is_zero()), zero) for row in s)
            j = index.get(u)
            if j is None:
                if len(roots) >= n * max_order:
                    raise ExactError(f"group order exceeds the cap {max_order}")
                j = index[u] = len(roots)
                roots.append(u)
            perm.append(j)
        head += 1
    return roots, [tuple(p) for p in perms]


def permutation_enumeration(g, gens, max_order: int = 50_000):
    """(perms, words, rmul, inverse, orders, classes) by breadth-first search
    over generator words on whole permutations of X, one composition per
    edge, keyed in a dict by the whole permutation; inverses, element orders
    and conjugacy classes by walking words through rmul: w_j^-1 =
    s_last^-1 w_parent^-1, the order of w by its powers, and the class of w
    by s^-1 w s over the generators s.  classes holds (rep, members)."""
    ident = tuple(range(len(gens[0])))
    perms, words, parent, index, rmul = [ident], [()], [0], {ident: 0}, []
    head = 0
    while head < len(perms):
        cur = perms[head]
        row = []
        for a, s in enumerate(gens):
            new = tuple(cur[x] for x in s)
            j = index.get(new)
            if j is None:
                if len(perms) >= max_order:
                    raise ExactError(f"group order exceeds the cap {max_order}")
                j = index[new] = len(perms)
                perms.append(new)
                words.append(words[head] + (a,))
                parent.append(head)
            row.append(j)
        rmul.append(tuple(row))
        head += 1
    order = len(perms)

    def mult(i, j):
        for a in words[j]:
            i = rmul[i][a]
        return i

    gen_inv = []
    for a in range(len(gens)):
        prev, cur = 0, rmul[0][a]
        while cur != 0:
            prev, cur = cur, rmul[cur][a]
        gen_inv.append(prev)
    inverse = [0] * order
    for j in range(1, order):
        inverse[j] = mult(gen_inv[words[j][-1]], inverse[parent[j]])
    orders = []
    for i in range(order):
        k, cur = 1, i
        while cur != 0:
            cur = mult(cur, i)
            k += 1
        orders.append(k)
    classes, assigned = [], set()
    for i in range(order):
        if i in assigned:
            continue
        seen, frontier = {i}, [i]
        while frontier:
            cur = frontier.pop()
            for a in range(len(gens)):
                conj = mult(mult(gen_inv[a], cur), rmul[0][a])
                if conj not in seen:
                    seen.add(conj)
                    frontier.append(conj)
        members = tuple(sorted(seen))
        assigned |= seen
        classes.append((min(members, key=lambda j: (len(words[j]), words[j])), members))
    return perms, words, rmul, inverse, orders, classes


def dft_multiplicities(g, w: int, value) -> list[int]:
    """Multiplicity of zeta_o^t in the restriction of value to <w>, as the
    CycNum sum (1/o) sum_s value(w^s) zeta_o^{-ts}."""
    o = g.element_orders[w]
    values, cur = [], g.identity
    for _ in range(o):
        values.append(value(cur))
        cur = g.mult(cur, w)
    out = []
    for t in range(o):
        acc = CycNum.zero()
        for s, v in enumerate(values):
            acc = acc + v * CycNum.zeta(o, (-t * s) % o)
        mult = acc / o
        if not mult.is_integer() or mult.as_fraction() < 0:
            raise ExactError("restriction multiplicity is not a nonnegative integer")
        out.append(int(mult.as_fraction()))
    return out


def char_poly_one_minus_Tw(g, i: int) -> PolyT:
    """det_V(1 - T w_i) as an exact polynomial in T."""
    p = PolyT([ONE])
    for o, t, mult in g.class_spectra[g.class_of[i]]:
        factor = PolyT([ONE, -CycNum.zeta(o, t)])
        for _ in range(mult):
            p = p * factor
    return p


def divided_coinvariant_traces(g) -> tuple[PolyT, ...]:
    """G_c = prod (1 - T^{d_i}) / det(1 - T c) per class by exact CycNum
    polynomial division, which raises on a nonzero remainder."""
    numer = degree_numerator(g)
    return tuple(poly_divide_exact(numer, char_poly_one_minus_Tw(g, cls.rep)) for cls in g.classes)


# ---------------------------------------------------------------------------
# Fraction coefficients: the reference for exact.CycNum
# ---------------------------------------------------------------------------

def _fraction_reduce(n: int, terms) -> dict[int, Fraction]:
    """The nonzero power-basis coefficients at n of the sum of c zeta_n^e."""
    phi = euler_phi(n)
    table = _reduction_table(n)
    out: dict[int, Fraction] = {}
    for e, c in terms:
        if not c:
            continue
        e %= n
        if e < phi:
            out[e] = out.get(e, Fraction(0)) + c
        else:
            for e2, m in table[e - phi].items():
                out[e2] = out.get(e2, Fraction(0)) + c * m
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _fraction_zeta_power(N: int, e: int) -> complex:
    return cmath.exp(2j * cmath.pi * e / N)


class FractionCycNum:
    """An element of Q(zeta_N) as a map from exponents e < phi(N) to nonzero
    Fractions, each coefficient kept in lowest terms on its own; arithmetic
    walks the maps in the same order as `exact.CycNum`, so `to_complex` sums
    the same floats in the same order."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, raw):
        self.N = N
        self.coeffs = _fraction_reduce(N, {e: Fraction(c) for e, c in raw.items()}.items())

    @staticmethod
    def _make(N: int, coeffs: dict) -> FractionCycNum:
        self = object.__new__(FractionCycNum)
        self.N, self.coeffs = N, coeffs
        return self

    def promote(self, M: int) -> FractionCycNum:
        if M == self.N:
            return self
        k = M // self.N
        return FractionCycNum._make(M, _fraction_reduce(M, {e * k: c for e, c in self.coeffs.items()}.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        c = self.coeffs
        return not c or (len(c) == 1 and 0 in c)

    def as_fraction(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def galois(self, j: int) -> FractionCycNum:
        N = self.N
        return FractionCycNum._make(N, _fraction_reduce(N, {e * j % N: c for e, c in self.coeffs.items()}.items()))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCycNum(1, {0: other})
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.promote(M), other.promote(M)

    def __add__(self, other) -> FractionCycNum:
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            elif s + c:
                out[e] = s + c
            else:
                del out[e]
        return FractionCycNum._make(a.N, out)

    __radd__ = __add__

    def __neg__(self) -> FractionCycNum:
        return FractionCycNum._make(self.N, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> FractionCycNum:
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other) -> FractionCycNum:
        return (-self) + other

    def __mul__(self, other) -> FractionCycNum:
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FractionCycNum._make(self.N, {e: c * q for e, c in self.coeffs.items()} if q else {})
        a, b = self._pair(other)
        ac, bc = a.coeffs, b.coeffs
        if b.is_rational():
            return a * b.as_fraction()
        if a.is_rational():
            return b * a.as_fraction()
        out: dict[int, Fraction] = {}
        for e1, c1 in ac.items():
            for e2, c2 in bc.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return FractionCycNum._make(a.N, _fraction_reduce(a.N, out.items()))

    __rmul__ = __mul__

    def inverse(self) -> FractionCycNum:
        if self.is_zero():
            raise ZeroDivisionError("FractionCycNum inverse of zero")
        if self.is_rational():
            return FractionCycNum(self.N, {0: 1 / self.as_fraction()})
        N = self.N
        others = self.galois(N - 1)
        for j in range(2, N - 1):
            if gcd(j, N) == 1:
                others = others * self.galois(j)
        return others * (1 / (self * others).as_fraction())

    def __truediv__(self, other) -> FractionCycNum:
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        a, b = self._pair(other)
        return a * b.inverse()

    def __pow__(self, k: int) -> FractionCycNum:
        if k < 0:
            return self.inverse() ** (-k)
        out, base = FractionCycNum(self.N, {0: 1}), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def to_complex(self) -> complex:
        return sum(
            (float(c) * _fraction_zeta_power(self.N, e) for e, c in self.coeffs.items()),
            complex(0),
        )

    def to_json(self) -> dict:
        terms = [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(self.coeffs.items())]
        return {"N": self.N, "terms": terms}
