import pytest

from reflekt.exact import CycNum, ExactError, MultiPoly
from reflekt import linalg, minmat
from reflekt.groups import build_group, monomials
from reflekt.chars import character_table, det_character, trivial_character
from reflekt.fake import FakeDegreeSet
from reflekt.minmat import (
    build_minimal_matrix,
    equivariant_basis,
    matrix_realization,
    predicted_equivariant_dimension,
    verify_det_factorization,
    verify_quotient_property,
)

from oracles import leibniz_det, sequential_equivariant_basis

SCOPE = ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(2,1,1)", "G(3,1,1)", "G(4,1,1)"]


@pytest.fixture(scope="module")
def built():
    out = {}
    for d in SCOPE:
        g = build_group(d)
        out[d] = FakeDegreeSet(g, character_table(g))
    return out


def test_linear_realization_is_character(built):
    fs = built["S3"]
    g = fs.group
    sign = fs.table.row_index(det_character(g))
    real = matrix_realization(g, fs.table, sign)
    assert real.method == "linear"
    for a, m in enumerate(real.generator_matrices):
        assert m[0][0] == -1


def test_standard_realization_is_defining(built):
    fs = built["S3"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    real = matrix_realization(fs.group, fs.table, std)
    assert real.method in ("defining", "defining_tensor_linear")
    assert real.gram == linalg.identity(2)


def test_induced_realization_validates(built):
    fs = built["S4"]
    # the 2-dim irreducible of S4 is not a twist of the 3-dim defining rep
    two = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    real = matrix_realization(fs.group, fs.table, two)
    assert real.method == "induced_cyclic"
    # homomorphism spot check beyond generators: validate() already matched
    # the character on every class
    g = fs.group
    a, b = 1, min(4, g.order - 1)
    prod = linalg.mat_mul(real.element_matrix(a), real.element_matrix(b))
    assert prod == real.element_matrix(g.mult(a, b))


def test_equivariant_basis_examples(built):
    fs = built["S3"]
    g = fs.group
    triv = fs.table.row_index(trivial_character(g))
    real = matrix_realization(g, fs.table, triv)
    assert len(equivariant_basis(real, 0, fs)) == 1
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    real_std = matrix_realization(g, fs.table, std)
    assert len(equivariant_basis(real_std, 1, fs)) == 1
    assert len(equivariant_basis(real_std, 0, fs)) == 0


def test_predicted_dimension_counts_invariant_multiples(built):
    fs = built["G(2,1,2)"]
    two = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    # exponents are {1,3}; at degree 3 the ambient space also contains
    # (degree-2 invariant) * (degree-1 map), so the count is 2
    assert predicted_equivariant_dimension(fs, two, 3) == 2
    real = matrix_realization(fs.group, fs.table, two)
    assert len(equivariant_basis(real, 3, fs)) == 2


def test_each_degree_is_solved_once_per_realization(built, monkeypatch):
    """S4's row with exponents (1, 2, 3) needs degree 3 twice: as a column
    degree and as 1 + d_1 in the quotient check.  The realization's basis
    store solves each distinct degree once."""
    fs = built["S4"]
    row = 4
    assert fs.fds[row].exponents == (1, 2, 3)
    solved = []
    solve = linalg.integral_nullspace

    def spy(rows, ncols, label):
        solved.append(ncols)
        return solve(rows, ncols, label)

    monkeypatch.setattr(linalg, "integral_nullspace", spy)
    mm = build_minimal_matrix(fs, row)
    assert verify_quotient_property(fs, mm)["passed"]
    degrees = {p + bump for p in mm.column_degrees for bump in (0, fs.group.degrees[0])}
    assert degrees == {1, 2, 3, 4, 5}
    assert len(solved) == len(degrees)
    assert sorted(mm.realization._bases) == sorted(degrees)


def test_stored_basis_is_still_checked_against_the_prediction(built, monkeypatch):
    fs = built["S4"]
    real = matrix_realization(fs.group, fs.table, 4)
    basis = equivariant_basis(real, 3, fs)
    assert isinstance(basis, tuple)  # every caller gets the stored basis
    monkeypatch.setattr(linalg, "integral_nullspace", None)  # no further solve
    assert equivariant_basis(real, 3, fs) is basis
    monkeypatch.setattr(minmat, "predicted_equivariant_dimension", lambda fs, row, p: len(basis) + 1)
    with pytest.raises(ExactError, match="fake degree predicts"):
        equivariant_basis(real, 3, fs)
    assert equivariant_basis(real, 3) is basis


def test_quotient_degrees_are_checked_against_the_prediction(built, monkeypatch):
    """The degrees p + d_1 that only the quotient check solves (3 and 4 for
    S3's reflection row, exponents (1, 2)) are checked against the
    fake-degree prediction too."""
    fs = built["S3"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    mm = build_minimal_matrix(fs, std)
    bumped = {p + fs.group.degrees[0] for p in mm.column_degrees} - set(mm.column_degrees)
    assert bumped == {3, 4}
    predict = minmat.predicted_equivariant_dimension
    monkeypatch.setattr(minmat, "predicted_equivariant_dimension", lambda fs, row, p: predict(fs, row, p) + (p in bumped))
    with pytest.raises(ExactError, match="degree 3 has dim 1, fake degree predicts 2"):
        verify_quotient_property(fs, mm)


def test_minimal_matrix_s3_standard(built):
    fs = built["S3"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    mm = build_minimal_matrix(fs, std)
    assert mm.column_degrees == (1, 2)
    det = mm.det
    assert det.homogeneous_degree() == 3
    rep = verify_det_factorization(fs, mm)
    # det(M) = c * pi_C^1 with pi_C the degree-3 product of the root forms
    assert rep["passed"] and rep["orbit_exponents"] == [1]


def test_minimal_matrix_trivial_is_constant(built):
    fs = built["S3"]
    triv = fs.table.row_index(trivial_character(fs.group))
    mm = build_minimal_matrix(fs, triv)
    assert mm.column_degrees == (0,)
    assert mm.matrix[0][0].homogeneous_degree() == 0


def test_stanley_generator_for_sign(built):
    fs = built["S3"]
    g = fs.group
    sign = fs.table.row_index(det_character(g))
    mm = build_minimal_matrix(fs, sign)
    assert mm.column_degrees == (3,)
    # M is a scalar multiple of pi_C (the product of the three root forms)
    ratio = mm.matrix[0][0].divide_exact(g.orbits[0].pi)
    assert ratio.homogeneous_degree() == 0


def test_cyclic_det_inverse_minimal_matrix(built):
    fs = built["G(3,1,1)"]
    g = fs.group
    det_inv = fs.table.row_index(det_character(g).conjugate())
    mm = build_minimal_matrix(fs, det_inv)
    assert mm.column_degrees == (1,)
    rep = verify_det_factorization(fs, mm)
    assert rep["passed"] and rep["orbit_exponents"] == [1]


def test_quotient_property_identity_case(built):
    fs = built["S3"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    mm = build_minimal_matrix(fs, std)
    rep = verify_quotient_property(fs, mm)
    assert rep["passed"]


@pytest.mark.parametrize("name", SCOPE)
def test_full_scope_minimal_matrices(built, name):
    fs = built[name]
    for i in range(len(fs.table.rows)):
        mm = build_minimal_matrix(fs, i)
        assert poly_key(mm.det) == poly_key(leibniz_det(mm.matrix, fs.group.dimension)), (name, i)
        assert verify_det_factorization(fs, mm)["passed"], (name, i)
        assert verify_quotient_property(fs, mm)["passed"], (name, i)


def poly_key(f: MultiPoly):
    """Terms with each coefficient's conductor label, which reaches the JSON."""
    return sorted((mono, c.to_json()) for mono, c in f.terms.items())


@pytest.mark.parametrize("name", SCOPE)
def test_equivariant_basis_matches_sequential_oracle(built, name):
    """The one stacked modular solve gives the same basis, conductor labels
    included, as intersecting one generator at a time by exact elimination:
    at every column degree p of every row (S4's (3,4,5) row too), and at
    p + d_1 as the quotient check uses it."""
    fs = built[name]
    g = fs.group
    for i in range(len(fs.table.rows)):
        real = matrix_realization(g, fs.table, i)
        for p in sorted(set(fs.fds[i].exponents)):
            for q, check in ((p, fs), (p + g.degrees[0], None)):
                got = equivariant_basis(real, q, check)
                want = sequential_equivariant_basis(real, q, check)
                assert [[poly_key(f) for f in v] for v in got] == [
                    [poly_key(f) for f in v] for v in want
                ], (name, i, q)


def closure(mats) -> int:
    """The order of the group the matrices generate, by exact products."""
    seen, frontier = {linalg.identity(len(mats[0]))}, [linalg.identity(len(mats[0]))]
    while frontier:
        cur = frontier.pop()
        for m in mats:
            nxt = linalg.mat_mul(cur, m)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symmetric_group_coxeter_element_is_diagonal(n):
    """c = s_0 s_1 .. s_{n-2} is the n-cycle; in the Fourier basis it is
    diag(zeta_n, .., zeta_n^(n-1)), and the solves pose c and s_0."""
    g = build_group(f"S{n}")
    c = g.coxeter_element
    assert c == g.words.index(tuple(range(n - 1)))
    assert g.element_orders[c] == n
    assert g.diagonal(c) == tuple(range(1, n))
    assert g.matrix(c) == tuple(
        tuple(CycNum.zeta(n, j + 1) if j == k else CycNum.zero() for k in range(n - 1)) for j in range(n - 1)
    )


@pytest.mark.parametrize("name, order", [("S3", 6), ("S4", 24), ("S5", 120), ("G(3,3,2)", 6), ("G(4,2,2)", 8)])
def test_coxeter_element_and_first_generator_generate(name, order):
    """<c, s_0>, generated by exact matrix products, is W exactly where the
    group poses c: G(4,2,2)'s generators are involutions too, but its
    c = -i 1 is scalar, and <c, s_0> has order 8 of 16."""
    g = build_group(name)
    c = 0
    for a in range(len(g.generator_elements)):
        c = g._rmul[c][a]
    assert closure([g.matrix(c), g.generator_matrices[0]]) == order
    assert g.coxeter_element == (c if order == g.order else None)


@pytest.mark.parametrize(
    "name, diagonal, weights",
    [("G(2,1,2)", [(1, 0), None], (1, 0)), ("G(3,1,2)", [(1, 0), None], (2, 0)),
     ("G(4,2,2)", [(1, 0), None, None], (1, 0))],
)
def test_diagonal_generators_are_imposed_on_the_unknowns(name, diagonal, weights):
    """G(m,p,n), p < m, has one diagonal generator d = diag(zeta_m^p, 1, ..);
    its condition f(d^-1 v) = tau(d) f(v) is imposed through d^-1's
    exponents, and no generator poses a Coxeter element."""
    g = build_group(name)
    assert [g.diagonal(s) for s in g.generator_elements] == diagonal
    assert g.coxeter_element is None
    table = character_table(g)
    for i in range(len(table.rows)):
        got, _, _, _, rows = matrix_realization(g, table, i).conditions
        assert got == weights and len(rows) == len(diagonal) - 1


def test_sign_row_poses_only_the_selected_unknowns(built, monkeypatch):
    """S4's sign row at degree 8: the 45 monomials of degree 8 in 3
    variables, of which the 12 with i^(e_1 + 2 e_2 + 3 e_3) = sign(c) = -1
    are the unknowns; only s_0's rows are eliminated."""
    fs = built["S4"]
    g = fs.group
    sign = fs.table.row_index(det_character(g))
    real = matrix_realization(g, fs.table, sign)
    assert real.conditions[4] == [(g.generator_elements[0], real.generator_matrices[0])]
    posed = []
    solve = linalg.integral_nullspace

    def spy(rows, ncols, label):
        posed.append(ncols)
        return solve(rows, ncols, label)

    monkeypatch.setattr(linalg, "integral_nullspace", spy)
    basis = equivariant_basis(real, 8, fs)
    assert posed == [12] and len(monomials(3, 8)) == 45
    assert [[poly_key(f) for f in v] for v in basis] == [
        [poly_key(f) for f in v] for v in sequential_equivariant_basis(real, 8, fs)
    ]


def test_basis_entries_carry_the_generator_label():
    """Entries carry the lcm of N0 (at p > 0) and the labels of tau's entries,
    as the defining-basis constraint rows have them as CycNums.  G(2,1,2)'s
    generators are signed permutations at N0 = 2, so their monomial images are
    rational; a trivial realization at label 1 leaves N0 the only label."""
    g = build_group("G(2,1,2)")
    triv = trivial_character(g)
    one = ((CycNum.one(),),)
    real = minmat.Realization(g, character_table(g).row_index(triv), triv, [one] * len(g.generator_elements), one, "linear")
    for q in range(5):
        got = equivariant_basis(real, q)
        want = sequential_equivariant_basis(real, q)
        assert [[poly_key(f) for f in v] for v in got] == [[poly_key(f) for f in v] for v in want], q
    (invariant,) = equivariant_basis(real, 2)
    assert sorted(c.N for c in invariant[0].terms.values()) == [1, 2]  # the free column's 1, then x^2


def test_root_basis_solve_matches_sequential_oracle_on_s5():
    """S5 poses its Coxeter element c on the unknowns and s_0 as rows: its
    bases equal the oracle's, which intersects every generator's system,
    conductor labels included, for every row at degrees 0-2 and for the
    reflection representation (row 3) at degree 3, where the space has
    dimension 2."""
    g = build_group("S5")
    fs = FakeDegreeSet(g, character_table(g))
    reflection = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 4 and fs.fds[i].exponents[0] == 1)
    assert reflection == 3
    for i in range(len(fs.table.rows)):
        real = matrix_realization(g, fs.table, i)
        for q in (0, 1, 2, 3) if i == reflection else (0, 1, 2):
            got = equivariant_basis(real, q, fs)
            want = sequential_equivariant_basis(real, q, fs)
            assert [[poly_key(f) for f in v] for v in got] == [[poly_key(f) for f in v] for v in want], (i, q)
    assert len(equivariant_basis(matrix_realization(g, fs.table, reflection), 3)) == 2


@pytest.mark.parametrize(
    "name, row, top", [("S4", i, 8) for i in range(5)] + [("S5", i, 4) for i in range(7)],
)
def test_symmetric_group_bases_match_sequential_oracle(name, row, top):
    """Every row of S4 at degrees 0-8 and of S5 at degrees 0-4, including
    the induced rows, where tau(c) is not diagonal and the solve runs in its
    eigenbasis: the bases equal the oracle's, conductor labels included."""
    g = build_group(name)
    fs = FakeDegreeSet(g, character_table(g))
    real = matrix_realization(g, fs.table, row)
    assert (real.conditions[3] is not None) is (real.method == "induced_cyclic")
    for q in range(top + 1):
        got = equivariant_basis(real, q, fs)
        want = sequential_equivariant_basis(real, q, fs)
        assert [[poly_key(f) for f in v] for v in got] == [[poly_key(f) for f in v] for v in want], q


# Both rows fail because their solved equivariant dimensions, at every degree
# 0-8, are those the fake degrees predict for the complex-conjugate row
# (fs.conj_perm).  G(3,3,3) rows 6-9 fail the same way.
@pytest.mark.xfail(strict=True, raises=ExactError, reason="equivariant solve matches the conjugate row's fake degree")
@pytest.mark.parametrize("row", [8, 9])
def test_minimal_matrix_of_g422_non_real_rows(row):
    g = build_group("G(4,2,2)")
    fs = FakeDegreeSet(g, character_table(g))
    assert fs.conj_perm[row] == 17 - row
    mm = build_minimal_matrix(fs, row)
    assert verify_det_factorization(fs, mm)["passed"]
    assert verify_quotient_property(fs, mm)["passed"]
