from fractions import Fraction

import pytest

from reflekt.exact import CycNum, PolyT, poly_from_ints
from reflekt.groups import build_group
from reflekt.chars import (
    ClassFunction,
    character_table,
    det_character,
    trivial_character,
)
from reflekt.fake import (
    FakeDegreeSet,
    coinvariant_poincare,
    fake_degree,
    graded_character,
    palindrome_check,
    poincare_identity,
    symmetry_shift,
    verify_all_pn,
    verify_symmetry,
)

from corpus import CORPUS, G4
from oracles import (
    brute_force_fake_degree,
    orbit_character,
    orbit_det_power,
    polyt_palindrome_partners,
    polyt_symmetry_matches,
    reversed_shift,
)


@pytest.fixture(scope="module")
def built():
    out = {}
    for d in CORPUS:
        g = build_group(d)
        t = character_table(g)
        out[d] = FakeDegreeSet(g, t)
    return out


def test_graded_character_examples(built):
    fs = built["S3"]
    s = graded_character(fs.group, fs.group.identity)
    assert list(s.coeffs) == list(poly_from_ints(1, 2, 2, 1).coeffs)
    fs3 = built["G(3,1,1)"]
    s3 = graded_character(fs3.group, fs3.group.identity)
    assert list(s3.coeffs) == list(poly_from_ints(1, 1, 1).coeffs)
    for name in ["S4", "G(3,1,2)"]:
        g = built[name].group
        assert graded_character(g, g.identity)[0] == 1


def test_coinvariant_poincare_matches_graded_character(built):
    for name, fs in built.items():
        g = fs.group
        order = len(g.reflections)
        poly = coinvariant_poincare(g)
        assert graded_character(g, g.identity) == poly, name
        assert poly.degree == order, name


def test_graded_traces_sum_to_the_regular_character(built):
    """The coinvariant algebra affords the regular representation, so at T = 1
    G_c sums to |W| on the identity class and to 0 on every other class."""
    for name, fs in built.items():
        g = fs.group
        for idx, trace in enumerate(g.class_coinvariant_traces):
            total = sum(trace.coeffs, CycNum.zero())
            assert total == (g.order if idx == g.class_of[g.identity] else 0), (name, idx)


def test_fake_degree_examples(built):
    fs = built["S3"]
    by_deg = {}
    for i, row in enumerate(fs.table.rows):
        by_deg.setdefault(row.degree_int(), []).append(i)
    polys = [fs.f_poly(i) for i in by_deg[1]]
    # trivial -> 1, sign -> T^3
    assert sum(p == poly_from_ints(1) for p in polys) == 1
    assert sum(p == poly_from_ints(0, 0, 0, 1) for p in polys) == 1
    std = by_deg[2][0]
    assert fs.f_poly(std) == poly_from_ints(0, 1, 1)  # T + T^2

    fs2 = built["G(2,1,2)"]
    two_dim = next(
        i for i, r in enumerate(fs2.table.rows) if r.degree_int() == 2
    )
    assert fs2.f_poly(two_dim) == poly_from_ints(0, 1, 0, 1)  # T + T^3


def test_fake_degree_against_elementwise_oracle(built):
    for name in ["S3", "G(2,1,2)", "G(3,1,1)", "G(4,4,2)"]:
        fs = built[name]
        for i, row in enumerate(fs.table.rows):
            oracle = brute_force_fake_degree(fs.group, row.values)
            assert fs.f_poly(i) == oracle, f"{name} row {i}"


def test_fake_degree_of_reducible_character_is_sum(built):
    fs = built["S3"]
    g = fs.group
    triv = trivial_character(g)
    det = det_character(g)
    character_sum = triv.__class__(
        g, tuple(a + b for a, b in zip(triv.values, det.values))
    )
    fd = fake_degree(g, character_sum)
    expect = fake_degree(g, triv).polynomial + fake_degree(g, det).polynomial
    assert fd.polynomial == expect


def test_fake_degree_invariants(built):
    for name, fs in built.items():
        nrefl = len(fs.group.reflections)
        for i, row in enumerate(fs.table.rows):
            fd = fs.fds[i]
            assert fd.to_json()["convention"] == "chi", name
            assert fd.polynomial.evaluate(1) == row.degree_int()
            for c in fd.polynomial.coeffs:
                assert c.is_integer() and c.as_fraction() >= 0
            if fd.exponents:
                assert 0 <= fd.exponents[0] and fd.exponents[-1] <= nrefl


def test_det_fake_degree_is_top_power_for_real_groups(built):
    for name in ["S3", "S4", "G(2,1,2)"] + [f"G({m},{m},2)" for m in range(2, 7)]:
        fs = built[name]
        g = fs.group
        det_row = fs.table.row_index(det_character(g))
        nrefl = len(g.reflections)
        assert fs.f_poly(det_row) == PolyT([0] * nrefl + [1]), name


def test_pn_identity_examples(built):
    fs = built["S3"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    rep = verify_pn_identity_row(fs, std)
    assert rep == (3, 3)
    triv = fs.table.row_index(trivial_character(fs.group))
    assert verify_pn_identity_row(fs, triv) == (0, 0)

    fs2 = built["G(2,1,2)"]
    two = next(i for i, r in enumerate(fs2.table.rows) if r.degree_int() == 2)
    assert verify_pn_identity_row(fs2, two) == (4, 4)


def verify_pn_identity_row(fs, i):
    from reflekt.fake import verify_pn_identity

    rep = verify_pn_identity(fs, i)
    assert rep["passed"]
    return rep["lhs"], rep["rhs"]


def test_pn_identity_corpus(built):
    for name, fs in built.items():
        assert verify_all_pn(fs)["passed"], name


def test_poincare_identity_corpus(built):
    for name, fs in built.items():
        assert poincare_identity(fs)["passed"], name


def test_symmetry_shift_examples(built):
    fs = built["S3"]
    triv = fs.table.row_index(trivial_character(fs.group))
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    assert symmetry_shift(fs, triv, (0,)) == 0
    assert symmetry_shift(fs, triv, (1,)) == 3
    assert symmetry_shift(fs, std, (1,)) == 0


def test_verify_symmetry_examples(built):
    fs = built["S3"]
    rep = verify_symmetry(fs)
    assert rep["passed"]
    triv = fs.table.row_index(trivial_character(fs.group))
    sign = fs.table.row_index(det_character(fs.group))
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    got = {(it["row"], tuple(it["b"])): it for it in rep["items"]}
    assert got[(triv, (1,))]["matches"] == [sign]
    assert got[(std, (1,))]["matches"] == [std]
    for i in range(len(fs.table.rows)):
        assert i in got[(i, (0,))]["matches"]


def test_verify_symmetry_corpus(built):
    for name, fs in built.items():
        rep = verify_symmetry(fs)
        assert rep["passed"], name
        for it in rep["items"]:
            assert "N" in it, name  # integrality held everywhere


def test_symmetry_diagnostic_twists_by_the_cyclotomic_chi_b(built):
    """The local-data diagnostic shifts by the det power of chi_b =
    prod_C chi_C^{e_C - b_C} on each orbit's stabilizer; here chi_C comes
    from substituting pi_C, chi_b is multiplied out in CycNum and its det
    powers are read off it directly."""
    twisted = 0
    for name, fs in built.items():
        g, local = fs.group, fs.local
        orbit_chars = [orbit_character(g, C) for C in range(len(g.orbits))]
        for it in verify_symmetry(fs)["items"]:
            chi_b = [CycNum.one()] * len(g.classes)
            for C, orbit in enumerate(g.orbits):
                chars = orbit_chars[C]
                chi_b = [v * chars[k] ** (orbit.order - it["b"][C]) for k, v in enumerate(chi_b)]
            chi_b = ClassFunction(g, tuple(chi_b))
            shifts = [orbit_det_power(g, chi_b, c) for c in range(len(g.orbits))]
            twisted += any(shifts)
            for d in it["local_data_diagnostic"]:
                want = all(
                    local[d["partner"]].multiplicities[c]
                    == tuple(local[it["row"]].multiplicities[c][(j - shifts[c]) % o.order] for j in range(o.order))
                    for c, o in enumerate(g.orbits)
                )
                assert d["local_data_shift_matches"] == want, (name, it["row"], it["b"])
    assert twisted


def test_palindrome_examples(built):
    fs = built["S3"]
    rep = palindrome_check(fs)
    assert rep["passed"]
    std = next(i for i, r in enumerate(fs.table.rows) if r.degree_int() == 2)
    triv = fs.table.row_index(trivial_character(fs.group))
    got = {it["row"]: it for it in rep["items"]}
    assert got[std]["c"] == 3 and std in got[std]["partners"]
    assert got[triv]["c"] == 0 and triv in got[triv]["partners"]


def test_palindrome_cyclic_example(built):
    fs = built["G(3,1,1)"]
    g = fs.group
    det_inv = fs.table.row_index(det_character(g).conjugate())
    det_sq_inv = fs.table.row_index(
        det_character(g).tensor(det_character(g)).conjugate()
    )
    rep = palindrome_check(fs)
    got = {it["row"]: it for it in rep["items"]}
    assert got[det_inv]["c"] == 3
    assert got[det_inv]["partners"] == [det_sq_inv]


def test_palindrome_corpus(built):
    for name, fs in built.items():
        assert palindrome_check(fs)["passed"], name


@pytest.fixture(scope="module")
def g4():
    g = build_group(G4)
    return FakeDegreeSet(g, character_table(g))


def test_g4_fake_degrees_and_verifiers(g4):
    """The seven fake degrees of G4, which sum with the row degrees to the
    coinvariant Poincare polynomial (1 + ... + T^3)(1 + ... + T^5); every
    verifier passes."""
    assert sorted(fd.exponents for fd in g4.fds) == sorted(
        [(0,), (4,), (8,), (1, 3), (3, 5), (5, 7), (2, 4, 6)]
    )
    assert coinvariant_poincare(g4.group) == poly_from_ints(1, 1, 1, 1) * poly_from_ints(1, 1, 1, 1, 1, 1)
    assert verify_all_pn(g4)["passed"]
    assert poincare_identity(g4)["passed"]
    assert verify_symmetry(g4)["passed"]
    assert palindrome_check(g4)["passed"]


def test_partners_match_polyt_oracle(built, g4):
    """verify_symmetry and palindrome_check find partners by exponent tuple;
    here the fake degrees are shifted and reversed as PolyTs and compared
    against every row of equal degree, and T^#R R(1/T) = F of the det twist
    is checked on PolyTs."""
    for name, fs in [*built.items(), ("G4", g4)]:
        nrefl = len(fs.group.reflections)
        det_row = det_character(fs.group)
        for it in verify_symmetry(fs)["items"]:
            assert polyt_symmetry_matches(fs, it["row"], it["N"]) == it["matches"], (name, it)
        for it in palindrome_check(fs)["items"]:
            i = it["row"]
            twisted = fs.table.row_index(fs.table.rows[i].tensor(det_row))
            assert reversed_shift(fs.f_poly(fs.conj_perm[i]), nrefl) == fs.f_poly(twisted), (name, i)
            assert polyt_palindrome_partners(fs, i, it["c"]) == it["partners"], (name, it)
