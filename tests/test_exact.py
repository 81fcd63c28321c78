import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reflekt.exact import (
    CycNum,
    ExactError,
    MultiPoly,
    PolyT,
    cyclotomic_polynomial,
    euler_phi,
    from_integral,
    integral_terms,
    poly_from_ints,
    poly_one_minus_Tk,
    series_inverse,
    weighted_sums,
)
from reflekt.groups import build_group

from oracles import FractionCycNum, poly_divide_exact


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyc_reduce_examples():
    assert CycNum(1, {1: 1}) == 1
    assert CycNum(3, {0: 1, 1: 1, 2: 1}) == 0
    assert CycNum(4, {2: 1}) == -1
    with pytest.raises(ValueError):
        CycNum(0, {0: 1})


def test_reduction_idempotent_and_periodic():
    x = CycNum(12, {0: 1, 5: Fraction(3, 2), 11: -2})
    again = CycNum.from_json(x.to_json())
    assert x == again and x.to_json() == again.to_json()
    assert CycNum.zeta(12) ** 12 == 1


def test_conjugation():
    z = CycNum.zeta(5)
    assert z.conjugate() == z ** 4
    assert (z + 3).conjugate().conjugate() == z + 3


def test_promotion_and_cross_conductor_equality():
    z3_at_6 = CycNum.zeta(6) ** 2
    assert z3_at_6 == CycNum.zeta(3)
    assert CycNum.rational(7, N=12) == 7


def test_inverse():
    x = CycNum.zeta(7) + 2
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()


def test_json_roundtrip():
    x = CycNum(8, {1: Fraction(2, 3), 3: -1})
    j = x.to_json()
    assert j["N"] == 8
    exps = [t[0] for t in j["terms"]]
    assert exps == sorted(exps)
    assert CycNum.from_json(j) == x


small_rat = st.integers(-4, 4)


@st.composite
def cyc_numbers(draw, N=None):
    if N is None:
        N = draw(st.integers(1, 24))
    phi = euler_phi(N)
    n_terms = draw(st.integers(0, min(3, phi)))
    raw = {}
    for _ in range(n_terms):
        e = draw(st.integers(0, N - 1))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        raw[e] = Fraction(num, den)
    return CycNum(N, raw)


@given(st.integers(1, 24), st.data())
@settings(max_examples=150, deadline=None)
def test_field_axioms(N, data):
    x = data.draw(cyc_numbers(N=N))
    y = data.draw(cyc_numbers(N=N))
    z = data.draw(cyc_numbers(N=N))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert x.inverse().N == x.N


@given(cyc_numbers())
@settings(max_examples=150, deadline=None)
def test_conjugation_involution_and_norm(x):
    assert x.conjugate().conjugate() == x
    norm = (x * x.conjugate()).to_complex()
    assert abs(norm.imag) < 1e-12
    assert norm.real >= -1e-12


@given(cyc_numbers())
@settings(max_examples=100, deadline=None)
def test_embedding_matches_arithmetic(x):
    # the embedding is a ring homomorphism
    y = x * x + 3
    assert abs(y.to_complex() - (x.to_complex() ** 2 + 3)) < 1e-9


# -- against the Fraction oracle ---------------------------------------------

ORACLE_LABELS = [1, 3, 4, 5, 8, 9, 12, 15, 20, 24, 60]
small_fraction = st.fractions(-9, 9, max_denominator=12)


@st.composite
def twins(draw):
    """One value as a CycNum and as the Fraction oracle, from the same raw
    terms (exponents up to 2N, so reduction runs) at a label drawn from
    ORACLE_LABELS."""
    N = draw(st.sampled_from(ORACLE_LABELS))
    raw = draw(st.dictionaries(st.integers(0, 2 * N), small_fraction, max_size=8))
    return CycNum(N, raw), FractionCycNum(N, raw)


def assert_canonical(x: CycNum):
    """den > 0, int coefficients, no zeros, exponents below phi(N), and
    gcd(den, all coefficients) = 1."""
    num, den = x._num, x._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    assert all(0 <= e < euler_phi(x.N) for e in num)
    assert math.gcd(den, *num.values()) == 1


def assert_same(new: CycNum, old: FractionCycNum):
    """Same label and JSON, the same to_complex bytes, and canonical form."""
    assert new.to_json() == old.to_json()
    z, w = new.to_complex(), old.to_complex()
    assert struct.pack("<dd", z.real, z.imag) == struct.pack("<dd", w.real, w.imag)
    assert_canonical(new)


@given(twins(), twins(), small_fraction, st.integers(-5, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_cycnum_matches_the_fraction_oracle(xs, ys, q, n, data):
    (x, xo), (y, yo) = xs, ys
    assert_same(x, xo)
    pairs = [
        (x + y, xo + yo), (x - y, xo - yo), (x * y, xo * yo), (-x, -xo), (x**2, xo**2),
        (x + q, xo + q), (q + x, q + xo), (x - q, xo - q), (q - x, q - xo), (x * q, xo * q),
        (x + n, xo + n), (n - x, n - xo), (x * n, xo * n), (n * x, n * xo),
    ]
    for new, old in pairs:
        assert_same(new, old)
    assert (x == y) == (xo == yo)
    assert (x == q) == (xo == q) and (x == n) == (xo == n)
    j = data.draw(st.sampled_from([j for j in range(1, x.N + 1) if math.gcd(j, x.N) == 1]))
    assert_same(x.galois(j), xo.galois(j))
    k = data.draw(st.integers(1, 4))
    assert_same(x.promote(k * x.N), xo.promote(k * x.N))
    if not y.is_zero():
        assert_same(y.inverse(), yo.inverse())
        assert_same(x / y, xo / yo)
    if q:
        assert_same(x / q, xo / q)


@given(st.lists(twins(), max_size=5))
@settings(max_examples=100, deadline=None)
def test_integral_terms_round_trip_through_from_integral(values):
    den, terms = integral_terms(x for x, _ in values)
    assert den == math.lcm(*(c.denominator for _, xo in values for c in xo.coeffs.values()))
    for (x, _), (N, coeffs) in zip(values, terms):
        assert N == (1 if x.is_rational() else x.N) and len(coeffs) == euler_phi(N)
        back = from_integral(N, enumerate(coeffs), den)
        assert back == x
        if N == x.N:
            assert back.to_json() == x.to_json()
        assert_canonical(back)


@given(
    st.sampled_from(ORACLE_LABELS),
    st.lists(st.tuples(st.integers(-130, 130), st.integers(-50, 50)), max_size=10),
    st.integers(-24, 24).filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_from_integral_matches_the_fraction_oracle(N, terms, den):
    """Exponents anywhere, repeats summed, any nonzero denominator."""
    old = FractionCycNum(N, {})
    for e, v in terms:
        old = old + FractionCycNum(N, {e: Fraction(v, den)})
    new = from_integral(N, terms, den)
    assert new.to_json() == old.to_json()
    assert_canonical(new)


@given(twins(), st.integers(1, 6), twins())
@settings(max_examples=200, deadline=None)
def test_equal_values_hash_alike_whatever_their_labels(xs, k, zs):
    x, z = xs[0], zs[0]
    y = x.promote(k * x.N)
    w = (x + z) - z  # at lcm(x.N, z.N)
    assert x == y == w
    assert hash(x) == hash(y) == hash(w)
    assert len({x, y, w}) == 1


def test_promoted_roots_of_unity_hash_alike():
    for N, M in ((3, 6), (4, 12), (5, 10), (3, 12), (8, 24)):
        z = CycNum.zeta(N)
        assert len({z, z.promote(M)}) == 1
        assert len({z, z.promote(M), CycNum.zeta(N, 2).promote(M)}) == 2
    assert len({CycNum.rational(Fraction(3, 4)), CycNum.rational(Fraction(3, 4), 12)}) == 1


# -- PolyT -------------------------------------------------------------------

def test_series_inverse_examples():
    geom = series_inverse(poly_from_ints(1, -1), 3)
    assert geom == poly_from_ints(1, 1, 1, 1)
    assert series_inverse(poly_from_ints(1), 5) == poly_from_ints(1)
    inv = series_inverse(poly_from_ints(1, 1, 1), 2)
    assert inv == poly_from_ints(1, -1)
    with pytest.raises(ExactError):
        series_inverse(poly_from_ints(0, 1), 4)


@given(st.lists(small_rat, min_size=1, max_size=6), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_series_inverse_multiplies_back(coeffs, order):
    if coeffs[0] == 0:
        coeffs[0] = 1
    p = poly_from_ints(*coeffs)
    inv = series_inverse(p, order)
    prod = p * inv
    assert PolyT([prod[k] for k in range(order + 1)]) == poly_from_ints(1)


def test_poly_divide_exact_examples():
    q = poly_divide_exact(poly_one_minus_Tk(2), poly_one_minus_Tk(1))
    assert q == poly_from_ints(1, 1)
    with pytest.raises(ExactError):
        poly_divide_exact(poly_one_minus_Tk(3), poly_one_minus_Tk(2))
    prod = poly_one_minus_Tk(2) * poly_one_minus_Tk(4)
    assert poly_divide_exact(prod, poly_one_minus_Tk(2)) == poly_one_minus_Tk(4)


def test_poly_degree_sentinel():
    assert PolyT([]).degree == -1
    assert PolyT([0, 0]).degree == -1
    assert poly_from_ints(0, 1).degree == 1


# -- MultiPoly ---------------------------------------------------------------

def test_multipoly_basics():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.homogeneous_degree() == 2
    with pytest.raises(ExactError):
        (f + MultiPoly.constant(2, 1)).homogeneous_degree()
    assert MultiPoly.zero(2).homogeneous_degree() is None


def test_substitute_swap_element():
    g = build_group("G(2,1,2)")
    swap = g.generator_elements[1]
    assert g.matrix(swap) == ((0, 1), (1, 0))
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert g.substitute(x * x, swap) == y * y
    assert g.substitute(x + 2 * y, swap) == y + 2 * x


def test_multipoly_divide_exact():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = (x + y) ** 3
    assert f.divide_exact(x + y) == (x + y) ** 2
    with pytest.raises(ExactError):
        (x * x + y).divide_exact(x + y)


def test_multipoly_evaluate():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = x * x + 3 * y
    assert f.evaluate([Fraction(2), Fraction(5)]) == 19


# ---------------------------------------------------------------------------
# the packed Z[zeta_N] kernel
# ---------------------------------------------------------------------------

PACK_CONDUCTORS = [1, 3, 4, 5, 8, 9, 12, 18, 24, 36]
# small coefficients, and large ones of both signs near powers of two, so
# balanced digits and slot edges are exercised
pack_coeff = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.sampled_from([-(2**k) for k in (7, 8, 15, 16, 63, 64)] + [2**k - 1 for k in (7, 8, 63)]),
)


@st.composite
def algebraic_integers(draw, N):
    raw = draw(st.dictionaries(st.integers(0, N - 1), pack_coeff, max_size=4))
    return CycNum(N, raw)


@given(st.sampled_from(PACK_CONDUCTORS), st.data())
@settings(max_examples=200, deadline=None)
def test_weighted_sums_match_plain_cycnum_sums(N, data):
    k = data.draw(st.integers(1, 4))
    nblocks = data.draw(st.integers(1, 3))
    weights = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=k, max_size=k))
    left = [[data.draw(algebraic_integers(N)) for _ in range(k)] for _ in range(2)]
    right = [
        [[data.draw(algebraic_integers(N)) for _ in range(nblocks)] for _ in range(k)]
        for _ in range(2)
    ]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    got = weighted_sums(N, weights, left, right, pairs)
    for (i, j), sums in zip(pairs, got):
        assert len(sums) == nblocks
        for t, s in enumerate(sums):
            want = sum(
                (w * a * b[t] for w, a, b in zip(weights, left[i], right[j])), CycNum.zero(N)
            )
            assert s == want
            assert s.N == N


@pytest.mark.parametrize("b", [127, 128, 255, 256, 2**63 - 1, 2**63])
def test_weighted_sums_at_the_slot_edges(b):
    """Digits of exactly +-bound next to each other, at widths where the
    bound sits just below or just at a power of two."""
    N = 5
    x = CycNum(N, {0: b, 1: -b, 2: b, 3: -b})
    one = CycNum.one(N)
    [[s0, s1]] = weighted_sums(N, [1], [[one]], [[[x, -x]]], [(0, 0)])
    assert (s0, s1) == (x, -x)
    [[s]] = weighted_sums(N, [-1, 1], [[x, x]], [[[x], [one]]], [(0, 0)])
    assert s == x - x * x


def test_integral_terms_scale_by_the_common_denominator():
    """Each value's power-basis coefficients at its label, times the lcm of
    all the denominators; rational values, zero included, have conductor 1."""
    assert integral_terms([CycNum.zeta(4).promote(8)]) == (1, [(8, [0, 0, 1, 0])])
    assert integral_terms([CycNum.zeta(3).promote(6)]) == (1, [(6, [-1, 1])])
    assert integral_terms([CycNum.rational(-7, 12)]) == (1, [(1, [-7])])
    half = CycNum(3, {1: Fraction(1, 2)})
    assert integral_terms([half]) == (2, [(3, [0, 1])])
    mixed = [CycNum(4, {0: Fraction(1, 3), 1: Fraction(-1, 2)}), CycNum.rational(Fraction(5, 4)), CycNum.zero(12)]
    assert integral_terms(mixed) == (12, [(4, [4, -6]), (1, [15]), (1, [0])])
    assert integral_terms([]) == (1, [])
    with pytest.raises(ExactError):
        weighted_sums(3, [1], [[half]], [[[CycNum.one(3)]]], [(0, 0)])
    with pytest.raises(ExactError):
        weighted_sums(3, [1], [[CycNum.one(3)]], [[[half]]], [(0, 0)])