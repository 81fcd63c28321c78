import json
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from reflekt.exact import ZERO, CycNum, MultiPoly, integral_terms
from reflekt import linalg
from reflekt.chars import character_table
from reflekt.fake import FakeDegreeSet
from reflekt.groups import (
    GroupBuildError,
    build_group,
    monomials,
    parse_descriptor,
)

from corpus import CORPUS, G4
from oracles import (
    dft_multiplicities,
    divided_coinvariant_traces,
    elimination_det,
    forms_hyperplanes,
    forms_orbits,
    matrix_enumeration,
    molien_degrees,
    permutation_enumeration,
    rank_reflections,
    root_orbit,
    substitution_matrix,
)


@pytest.fixture(scope="module")
def groups():
    return {d: build_group(d) for d in CORPUS}


def test_descriptor_parsing():
    assert parse_descriptor("S3").canonical() == "S3"
    assert parse_descriptor("G(4,2,2)").canonical() == "G(4,2,2)"
    with pytest.raises(GroupBuildError):
        parse_descriptor("S1")
    with pytest.raises(GroupBuildError, match="does not divide"):
        parse_descriptor("G(1,2,3)")
    with pytest.raises(GroupBuildError):
        parse_descriptor("G(4,3,2)")
    with pytest.raises(GroupBuildError):
        parse_descriptor("G(3,3,1)")
    with pytest.raises(GroupBuildError):
        parse_descriptor("nonsense")


def test_orders():
    assert build_group("S3").order == 6
    assert build_group("G(2,1,2)").order == 8
    assert build_group("G(3,3,2)").order == 6


def test_order_cap():
    with pytest.raises(GroupBuildError, match="cap"):
        build_group("S4", max_order=20)


@pytest.mark.parametrize("name", CORPUS + [G4, "G(4,2,3)"], ids=lambda name: "G4" if name == G4 else name)
def test_groups_build_at_a_cap_equal_to_their_order(name):
    """The root orbit X has at most dim |W| vectors, so its bound in the
    build never stops a group that fits under the cap."""
    order = build_group(name).order
    assert build_group(name, max_order=order).order == order
    if name == G4:  # file groups are the ones the root-orbit bound guards
        with pytest.raises(GroupBuildError, match="cap"):
            build_group(name, max_order=order - 1)


def test_reflection_counts():
    g = build_group("S3")
    assert len(g.reflections) == 3
    assert len(g.orbits) == 1
    assert len(g.orbits[0].members) == 3
    assert g.orbits[0].order == 2

    g = build_group("G(3,1,1)")
    assert len(g.reflections) == 2
    assert len(g.orbits) == 1
    assert len(g.orbits[0].members) == 1
    assert g.orbits[0].order == 3

    g = build_group("G(2,1,2)")
    assert len(g.reflections) == 4
    assert len(g.orbits) == 2
    assert sorted(len(o.members) for o in g.orbits) == [2, 2]
    assert all(o.order == 2 for o in g.orbits)


def test_class_structure():
    assert sorted(c.size for c in build_group("S3").classes) == [1, 2, 3]
    assert [c.size for c in build_group("G(3,1,1)").classes] == [1, 1, 1]
    assert len(build_group("G(2,1,2)").classes) == 5


def test_degrees():
    assert build_group("S3").degrees == (2, 3)
    assert build_group("G(2,1,2)").degrees == (2, 4)
    assert build_group("G(3,1,1)").degrees == (3,)


def test_g332_matches_s3_class_data():
    a, b = build_group("G(3,3,2)"), build_group("S3")
    assert a.order == b.order
    assert sorted(c.size for c in a.classes) == sorted(c.size for c in b.classes)
    assert a.degrees == b.degrees


@pytest.mark.parametrize("m", range(2, 7))
def test_gmm2_is_dihedral(m):
    g = build_group(f"G({m},{m},2)")
    assert g.order == 2 * m
    assert g.degrees == (2, m)


def test_corpus_structure_identities(groups):
    for name, g in groups.items():
        prod = 1
        for d in g.degrees:
            prod *= d
        assert prod == g.order, name
        assert sum(d - 1 for d in g.degrees) == len(g.reflections), name
        assert sum(g.hyperplanes[h].order - 1 for h in range(len(g.hyperplanes))) == len(
            g.reflections
        ), name


def test_corpus_unitarity_and_words(groups):
    for name, g in groups.items():
        for i in range(g.order):
            assert linalg.is_unitary(g.matrix(i)), name
            assert g.mult(0, i) == i, name


def fixes(m, v) -> bool:
    """m v == v, row by row."""
    return all(sum((x * y for x, y in zip(row, v)), CycNum.zero()) == c for row, c in zip(m, v))


def test_corpus_stabilizers(groups):
    for name, g in groups.items():
        for hp in g.hyperplanes:
            assert g.element_orders[hp.generator] == hp.order
            assert g.det(hp.generator) == CycNum.zeta(hp.order)
            for v in linalg.nullspace([list(hp.form)]):
                assert fixes(g.matrix(hp.generator), v)


def test_corpus_stabilizers_match_fixed_point_scan(groups):
    for name, g in groups.items():
        elements = [g.matrix(i) for i in range(g.order)]
        for hp in g.hyperplanes:
            fixed = linalg.nullspace([list(hp.form)])
            scan = tuple(
                i for i, m in enumerate(elements) if all(fixes(m, v) for v in fixed)
            )
            assert hp.stabilizer == scan, name


def test_det_from_spectrum_matches_elimination(groups):
    for name, g in groups.items():
        for i in range(g.order):
            assert g.det(i) == elimination_det(g.matrix(i)), (name, i)


def test_reflections_from_spectrum_match_rank_test(groups):
    for name, g in groups.items():
        assert g.reflections == rank_reflections(g), name


@pytest.mark.parametrize("name", ["S4", "G(3,1,2)", "G(4,4,2)"])
def test_word_walk_products_match_table(name):
    g = build_group(name)
    elements = [g.matrix(i) for i in range(g.order)]
    index = {m: i for i, m in enumerate(elements)}
    for i in range(g.order):
        for j in range(g.order):
            product = linalg.mat_mul(elements[i], elements[j])
            assert g.mult(i, j) == index[product]
        assert g.mult(i, g.inverse(i)) == 0


def test_corpus_orbit_semi_invariance(groups):
    for name, g in groups.items():
        elements = [g.matrix(i) for i in range(g.order)]
        gen_elts = [elements.index(m) for m in g.generator_matrices]
        by_form = {h.form: k for k, h in enumerate(g.hyperplanes)}
        for orbit in g.orbits:
            count = len(orbit.members) * (orbit.order - 1)
            in_orbit = sum(
                1
                for r in g.reflections
                if g.orbit_of_hyperplane[by_form[g._reflection_form(r)]]
                == g.orbit_of_hyperplane[orbit.members[0]]
            )
            assert count == in_orbit, name
            for w in gen_elts:
                composed = g.substitute(orbit.pi, g.inverse(w))
                ratio = composed.divide_exact(orbit.pi)
                assert ratio.homogeneous_degree() == 0
                c = ratio.terms[(0,) * g.dimension]
                assert (c * c.conjugate()) == 1, name  # root of unity


# The corpus (with G(4,1,1) and G(6,1,1), whose one W_H holds reflections of
# orders 4, 2 and 6, 3, 2), the benchmark's scale groups, G(4,1,2) (a W_H of
# order 4 next to ones of order 2), G(6,2,2) and G(12,4,2) (W_H of orders 3
# and 2), and G4.
ORACLE_GROUPS = CORPUS + ["G(3,1,3)", "G(4,2,3)", "G(6,6,3)"] + [
    "G(4,1,2)", "G(6,2,2)", "G(12,4,2)", G4,
]


@pytest.mark.parametrize("name", ORACLE_GROUPS, ids=lambda name: "G4" if name == G4 else name)
def test_hyperplanes_and_orbits_match_forms_oracle(name):
    """W_H from the powers of a reflection and orbits from the classes of the
    s_H, against grouping every reflection by its normalized form and walking
    the orbits by form images."""
    g = build_group(name)
    hyperplanes, index = forms_hyperplanes(g)
    orbits, orbit_of_hyperplane = forms_orbits(g, hyperplanes, index)
    assert len(g.hyperplanes) == len(hyperplanes)
    for got, want in zip(g.hyperplanes, hyperplanes):
        assert (got.form, got.order, got.generator, got.stabilizer) == (
            want.form, want.order, want.generator, want.stabilizer,
        )
        assert [x.N for x in got.form] == [x.N for x in want.form]
        assert got.alpha == want.alpha
    assert [(o.members, o.order) for o in g.orbits] == [(o.members, o.order) for o in orbits]
    assert [o.pi for o in g.orbits] == [o.pi for o in orbits]
    assert g.orbit_of_hyperplane == orbit_of_hyperplane
    assert g.hyperplane_of == {r: h for h, hp in enumerate(hyperplanes) for r in hp.stabilizer[1:]}


def test_g4_file_group_structure():
    """G4 = <s, t> with s = diag(1, w), t = 1 + (w - 1)/3 [[2, r2], [r2, 1]]:
    order 24 and degrees 4, 6 (Shephard-Todd), 8 reflections of order 3 on 4
    hyperplanes in one orbit."""
    g = build_group(G4)
    assert (g.order, g.degrees, g.conductor) == (24, (4, 6), 24)
    assert len(g.reflections) == 8
    assert [hp.order for hp in g.hyperplanes] == [3] * 4
    assert [(o.members, o.order) for o in g.orbits] == [((0, 1, 2, 3), 3)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symmetric_group_root_basis_is_its_simple_roots(n):
    """B is rescaled so that each generator's matrix M in B-coordinates has -1
    on its couplings: s_a(b_j) = b_j - b_a for |j - a| <= 1.  The M are then
    integer matrices on simple roots, and X, the W-orbit of B, is the root
    system: n(n - 1) roots."""
    g = build_group(f"S{n}")
    for a, s in enumerate(g.generator_elements):
        want = tuple(
            tuple(-1 if i == a and abs(j - a) <= 1 else int(i == j) for j in range(n - 1)) for i in range(n - 1)
        )
        got = g._coordinate_matrix(s)
        assert got == want and all(x.is_integer() for row in got for x in row), a
    assert len(g._roots) == n * (n - 1)


def test_root_basis_is_kept_where_rescaling_leaves_m_irrational():
    """G(6,6,3)'s and G4's M stay irrational under the rescaling, so both
    keep their B: G(6,6,3) keeps its 108 roots (216 rescaled), and G4's b_j
    are still columns of the s - 1."""
    assert len(build_group("G(6,6,3)")._roots) == 108
    g = build_group(G4)
    ident = linalg.identity(g.dimension)
    columns = {c for s in g.generator_matrices for c in zip(*linalg.mat_sub(s, ident))}
    assert all(b in columns for b in zip(*g._basis))


MULTI_ORBIT = ["G(6,3,2)", "G(4,2,2)", "G(6,2,2)", "G(12,4,2)", "G(4,1,2)"]


def test_stanley_orbit_character_on_reflections(groups):
    """Stanley's lemma, which `fake.verify_symmetry` relies on: for every
    reflection s, pi_C o s^-1 = chi_C(s) pi_C with chi_C(s) = det(s)^-1 when
    the hyperplane of s lies in C, and 1 otherwise."""
    extra = {d: build_group(d) for d in MULTI_ORBIT + [G4]}
    for name, g in {**groups, **extra}.items():
        zero = (0,) * g.dimension
        for c, orbit in enumerate(g.orbits):
            for s in g.reflections:
                ratio = g.substitute(orbit.pi, g.inverse(s)).divide_exact(orbit.pi)
                in_orbit = g.orbit_of_hyperplane[g.hyperplane_of[s]] == c
                want = g.det(s).inverse() if in_orbit else CycNum.one()
                assert ratio.terms == {zero: want}, (name, c, s)


@pytest.mark.parametrize(
    "name",
    CORPUS + ["G(3,1,3)", "G(4,2,3)", "G(6,6,3)", "G(2,1,4)", "G(6,2,2)", "G(12,4,2)", G4],
    ids=lambda name: "G4" if name == G4 else name,
)
def test_degrees_and_traces_match_molien_oracle(name):
    """Degrees from the factored fixed-space count and G_c by exact division,
    against peeling the Molien series and cutting its products at #R."""
    g = build_group(name)
    degrees, traces = molien_degrees(g)
    assert g.degrees == degrees
    assert len(g.class_coinvariant_traces) == len(traces)
    for got, want in zip(g.class_coinvariant_traces, traces):
        assert got == want, name


def labelled_terms(f: MultiPoly):
    """Terms with each coefficient's conductor label, which reaches the JSON."""
    return sorted((mono, c.to_json()) for mono, c in f.terms.items())


def test_substitute_matches_power_expansion_oracle(groups):
    """Image of every monomial of degree 0-4 under every generator inverse,
    conductor labels included, against the expansion by coordinate powers."""
    for name, g in groups.items():
        for gelt in g.generator_elements:
            w = g.inverse(gelt)
            for p in range(5):
                monos = monomials(g.dimension, p)
                S = substitution_matrix(g, w, monos)
                for d, mono in enumerate(monos):
                    want = MultiPoly(
                        g.dimension,
                        {mo: S[dp][d] for dp, mo in enumerate(monos) if not S[dp][d].is_zero()},
                    )
                    got = g.substitute(MultiPoly(g.dimension, {mono: 1}), w)
                    assert labelled_terms(got) == labelled_terms(want), (name, w, mono)


MINMAT_SCOPE = ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(2,1,1)", "G(3,1,1)", "G(4,1,1)"]
scope_group = lru_cache(maxsize=None)(build_group)


@st.composite
def polynomials(draw, n: int):
    """A random polynomial in n variables of mixed degrees 0-4 whose
    coefficients carry assorted conductor labels and denominators."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = {}
    for q in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)):
        for mono in draw(st.lists(st.sampled_from(monomials(n, q)), min_size=1, max_size=4, unique=True)):
            N = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
            terms[mono] = CycNum(N, {e: draw(small) for e in range(draw(st.integers(1, 3)))})
    return MultiPoly(n, terms)


@pytest.mark.parametrize("name", MINMAT_SCOPE)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_substitute_matches_oracle_on_random_polynomials(name, data):
    """f(w v) as the oracle's substitution matrices applied to the coefficients
    of f in CycNum: out[m] = sum over the terms of f of S[m][e] * c_e, over
    the nonzero S[m][e], so each output label is the lcm of the labels that
    reach it."""
    g = scope_group(name)
    w = data.draw(st.integers(0, g.order - 1))
    f = data.draw(polynomials(g.dimension))
    want: dict = {}
    for e, c in f.terms.items():
        monos = monomials(g.dimension, sum(e))
        S = substitution_matrix(g, w, monos)
        d = monos.index(e)
        for dp, m in enumerate(monos):
            if not S[dp][d].is_zero():
                want[m] = want.get(m, ZERO) + S[dp][d] * c
    assert labelled_terms(g.substitute(f, w)) == labelled_terms(MultiPoly(g.dimension, want))


def test_substitute_labels_stay_with_their_group():
    """Rational CycNums hash equal across conductors; images of one group must
    not carry another group's conductor labels."""
    other = build_group("G(3,1,2)")
    g = build_group("G(2,1,2)")
    for h in (other, g):
        for w in range(h.order):
            for p in range(5):
                for mono in monomials(h.dimension, p):
                    image = h.substitute(MultiPoly(h.dimension, {mono: 1}), w)
                    if h is g:
                        assert all(4 % c.N == 0 for c in image.terms.values()), (w, mono)


def test_file_group_roundtrip(tmp_path):
    g = build_group("G(4,4,2)")
    path = tmp_path / "gens.json"
    data = [
        [[x.to_json() for x in row] for row in m] for m in g.generator_matrices
    ]
    path.write_text(json.dumps(data))
    g2 = build_group(f"file:{path}")
    assert g2.order == g.order
    assert g2.degrees == g.degrees


def test_file_group_rejects_non_unitary(tmp_path):
    two = CycNum.rational(2)
    one = CycNum.one()
    zero = CycNum.zero()
    data = [[[two.to_json(), zero.to_json()], [zero.to_json(), one.to_json()]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GroupBuildError, match="unitary"):
        build_group(f"file:{path}")


def test_file_group_rejects_non_reflection_group(tmp_path):
    # cyclic group generated by a rank-2 rotation: no reflections at all
    z = CycNum.zeta(3)
    z2 = CycNum.zeta(3, 2)
    zero = CycNum.zero()
    data = [[[z.to_json(), zero.to_json()], [zero.to_json(), z2.to_json()]]]
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GroupBuildError, match="reflection"):
        build_group(f"file:{path}")


@pytest.mark.parametrize(
    "gens",
    [
        [[["3/5", "-4/5"], ["4/5", "3/5"]]],
        [[["1", "0"], ["0", "-1"]], [["3/5", "4/5"], ["4/5", "-3/5"]]],
    ],
    ids=["rational-rotation", "reflections-at-an-irrational-angle"],
)
def test_infinite_file_group_stops_at_the_cap(tmp_path, gens):
    """Unitary generators of infinite order have an infinite root orbit;
    the build stops at the order cap instead of running out of memory."""
    data = [[[CycNum.rational(Fraction(x)).to_json() for x in row] for row in m] for m in gens]
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GroupBuildError, match="cap 30"):
        build_group(f"file:{path}", max_order=30)


def check_against_matrix_oracle(g) -> None:
    """The permutation core against the matrix BFS: words, right
    multiplication by the generators, inverses, every matrix with its labels
    and every trace; the class spectra, and the restriction of every table
    row to the class representatives, against the CycNum DFT; the G_c, with
    their labels, against exact CycNum division."""
    elements, words, rmul, inverse = matrix_enumeration(g)
    assert g.order == len(elements)
    assert g.words == words
    assert [[g.mult(i, s) for s in g.generator_elements] for i in range(g.order)] == [list(r) for r in rmul]
    assert [g.inverse(i) for i in range(g.order)] == inverse
    n0 = g.generator_matrices[0][0][0].N
    for i, want in enumerate(elements):
        got = g.matrix(i)
        assert got == want, i
        assert all(x.N == n0 for row in got for x in row), i
        assert all(x.N == y.N for r, s in zip(got, want) for x, y in zip(r, s) if not y.is_zero()), i
        assert g.trace(i) == linalg.trace(want), i
    for cls, spectrum in zip(g.classes, g.class_spectra):
        mults = dft_multiplicities(g, cls.rep, lambda j: linalg.trace(elements[j]))
        assert spectrum == tuple((g.element_orders[cls.rep], t, m) for t, m in enumerate(mults) if m)
    for row in character_table(g).rows:
        for cls in g.classes:
            want = dft_multiplicities(g, cls.rep, row.value_on_element)
            assert g.cyclic_multiplicities(cls.rep, row.value_on_element) == want
    traces = divided_coinvariant_traces(g)
    assert g.class_coinvariant_traces == traces
    for got, want in zip(g.class_coinvariant_traces, traces):
        assert [c.N for c in got.coeffs] == [c.N for c in want.coeffs]


@pytest.mark.parametrize(
    "name",
    CORPUS + [G4, "S5", "G(3,1,3)", "G(4,2,3)", "G(6,6,3)"] + MULTI_ORBIT,
    ids=lambda name: "G4" if name == G4 else name,
)
def test_permutation_core_matches_matrix_oracle(name):
    check_against_matrix_oracle(build_group(name))


def check_against_permutation_oracle(g) -> None:
    """The integer root orbit, the n-point keys and the lookup tables against
    the CycNum orbit and the word walks: every root with its labels, each
    element's first n points, the words, right multiplication, inverses,
    element orders and classes."""
    roots, gens = root_orbit(g)
    assert g._roots == roots
    assert [[x.N for x in v] for v in g._roots] == [[x.N for x in v] for v in roots]
    perms, words, rmul, inverse, orders, classes = permutation_enumeration(g, gens)
    assert g._perms == [p[: g.dimension] for p in perms]
    assert g.words == words
    assert g._rmul == rmul
    assert g.inverse_table == inverse
    assert g.element_orders == orders
    assert [(c.rep, c.members) for c in g.classes] == classes


@pytest.mark.parametrize(
    "name",
    list(dict.fromkeys(["S3", "S4", "S5", "S6"] + CORPUS + [G4, "G(3,1,3)", "G(4,2,3)", "G(6,6,3)"])),
    ids=lambda name: "G4" if name == G4 else name,
)
def test_permutation_core_matches_root_orbit_oracle(name):
    check_against_permutation_oracle(build_group(name))


def test_root_orbit_oracle_groups_have_root_denominators():
    """The orbit keys carry a denominator in the oracle comparison above:
    the B-coordinates of the roots have denominator 2 in G(4,2,3) and 6 in
    G4, and 1 in S_n."""
    for name, den in (("G(4,2,3)", 2), (G4, 6), ("S5", 1)):
        g = build_group(name)
        assert integral_terms(x for v in g._roots for x in v)[0] == den, name


def test_file_group_with_a_fixed_vector(tmp_path):
    """diag(1, -1) on C^2 fixes e_1, so the columns of s - 1 do not span V
    and the root set needs the fixed vector to act faithfully."""
    one, zero = CycNum.one(), CycNum.zero()
    data = [[[one.to_json(), zero.to_json()], [zero.to_json(), (-one).to_json()]]]
    path = tmp_path / "fixes.json"
    path.write_text(json.dumps(data))
    g = build_group(f"file:{path}")
    assert (g.order, g.degrees) == (len(matrix_enumeration(g)[0]), molien_degrees(g)[0])
    assert (g.order, g.degrees) == (2, (1, 2))
    check_against_matrix_oracle(g)
    check_against_permutation_oracle(g)


def test_permutation_matrices_of_s3_fix_a_vector(tmp_path):
    """S3 as 3x3 permutation matrices fixes (1, 1, 1), so the columns of the
    s - 1 span only the zero-sum plane and B takes a basis of V^W too."""
    one, zero = CycNum.one().to_json(), CycNum.zero().to_json()

    def transposition(a, b):
        perm = list(range(3))
        perm[a], perm[b] = b, a
        return [[one if perm[j] == i else zero for j in range(3)] for i in range(3)]

    data = [transposition(0, 1), transposition(1, 2)]
    path = tmp_path / "s3_perm.json"
    path.write_text(json.dumps(data))
    g = build_group(f"file:{path}")
    assert g.order == 6
    assert list(g.degrees) == [1, 2, 3]
    fs = FakeDegreeSet(g, character_table(g))
    assert [fd.exponents for fd in fs.fds] == [(3,), (0,), (1, 2)]
    check_against_permutation_oracle(g)
    check_against_matrix_oracle(g)
