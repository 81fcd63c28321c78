from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
import hypothesis.strategies as st

import pytest

from reflekt import linalg
from reflekt.exact import CycNum, ExactError, euler_phi, prime_factors

from oracles import exact_nullspace, exact_rref, fp_rref_lists


def entry_key(x: CycNum):
    """Value plus conductor label; zeros compare by value only."""
    return None if x.is_zero() else x.to_json()


def basis_key(basis):
    return [tuple(entry_key(x) for x in v) for v in basis]


@st.composite
def rank_deficient(draw):
    """rows x cols matrix over Q(zeta_N) of rank at most k < rows, as B * C."""
    N = draw(st.sampled_from([1, 3, 4, 12]))
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(rows - 1, cols)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def cyc():
        return CycNum(N, {e: draw(small) for e in range(euler_phi(N))})

    b = [[cyc() for _ in range(k)] for _ in range(rows)]
    c = [[cyc() for _ in range(cols)] for _ in range(k)]
    zero = CycNum.zero(N)
    return [
        [sum((b[i][t] * c[t][j] for t in range(k)), zero) for j in range(cols)]
        for i in range(rows)
    ]


@given(rank_deficient())
@settings(max_examples=60, deadline=None)
def test_modular_nullspace_matches_exact(a):
    got = linalg.nullspace(a)
    assert basis_key(got) == basis_key(exact_nullspace(a))
    assert linalg.rref(a) == exact_rref(a)
    for v in got:
        assert all(sum((x * y for x, y in zip(row, v)), CycNum.zero()) == 0 for row in a)


@st.composite
def stacked(draw):
    """2-3 blocks of rows over the same columns, each B_i * C for one shared
    C of rank at most k: the tall shape of equivariant_basis's systems, whose
    generator blocks share the equivariant maps as kernel."""
    N = draw(st.sampled_from([1, 3, 4, 12]))
    cols = draw(st.integers(1, 5))
    k = draw(st.integers(0, cols))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def cyc():
        return CycNum(N, {e: draw(small) for e in range(euler_phi(N))})

    c = [[cyc() for _ in range(cols)] for _ in range(k)]
    zero = CycNum.zero(N)
    out = []
    for _ in range(draw(st.integers(2, 3))):
        b = [[cyc() for _ in range(k)] for _ in range(draw(st.integers(cols, cols + 2)))]
        out += [[sum((bi[t] * c[t][j] for t in range(k)), zero) for j in range(cols)] for bi in b]
    return out


@given(stacked())
@settings(max_examples=40, deadline=None)
def test_stacked_blocks_match_exact(a):
    assert basis_key(linalg.nullspace(a)) == basis_key(exact_nullspace(a))
    assert linalg.rref(a) == exact_rref(a)


@st.composite
def gaussian_at_12(draw):
    """Values a + b i of Q(i), labelled 12 (i = zeta_12^3), as B * C: the
    embeddings zeta_12 -> r, r^5 give one image, as do r^7, r^11."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols)))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)

    def gauss():
        return CycNum(12, {0: draw(small), 3: draw(small)})

    b = [[gauss() for _ in range(k)] for _ in range(rows)]
    c = [[gauss() for _ in range(cols)] for _ in range(k)]
    zero = CycNum.zero(12)
    return [[sum((b[i][t] * c[t][j] for t in range(k)), zero) for j in range(cols)] for i in range(rows)]


@given(gaussian_at_12())
@settings(max_examples=40, deadline=None)
def test_gaussian_values_at_label_12_are_eliminated_once_per_image(a):
    solved = []
    fp_nullspace = linalg._fp_nullspace

    def spy(rows, n, p):
        solved.append(p)
        return fp_nullspace(rows, n, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_fp_nullspace", spy)
        got = linalg.nullspace(a)
    assert basis_key(got) == basis_key(exact_nullspace(a))
    assert linalg.rref(a) == exact_rref(a)
    images = 2 if any(not x.is_rational() for row in a for x in row) else 1
    assert solved and all(solved.count(p) == images for p in solved)


@st.composite
def fp_matrices(draw):
    """(rows, columns, p): random, tall, rank-deficient and wide [V | I]
    shapes, with zero rows mixed in, entries not yet reduced mod p."""
    p = draw(st.sampled_from([2, 13, linalg._embeddings(1, 0)[0]]))
    entry = st.integers(-2 * p, 2 * p)
    shape = draw(st.sampled_from(["random", "tall", "deficient", "wide"]))
    cols = draw(st.integers(1, 6))
    if shape == "wide":
        v = [[draw(entry) for _ in range(cols)] for _ in range(cols)]
        rows = [r + [int(i == j) for j in range(cols)] for i, r in enumerate(v)]
    elif shape == "deficient":
        k = draw(st.integers(0, cols - 1))
        b = [[draw(entry) for _ in range(k)] for _ in range(draw(st.integers(1, 6)))]
        c = [[draw(entry) for _ in range(cols)] for _ in range(k)]
        rows = [[sum(x * y for x, y in zip(bi, col)) for col in zip(*c)] if k else [0] * cols for bi in b]
    else:
        nrows = draw(st.integers(cols + 1, 3 * cols + 1) if shape == "tall" else st.integers(0, 6))
        rows = [[draw(entry) for _ in range(cols)] for _ in range(nrows)]
    n = 2 * cols if shape == "wide" else cols
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows, n, p


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_packed_fp_rref_matches_list_reference(case):
    rows, n, p = case
    red, pivots = linalg._fp_rref(linalg._fp_pack(rows, n, p), n, p)
    want = fp_rref_lists(rows, p)
    assert (linalg._fp_unpack(red, n, p), pivots) == want
    null = linalg._fp_nullspace(linalg._fp_pack(rows, n, p), n, p)
    assert len(null) == n - len(pivots)
    assert all(sum(x * y for x, y in zip(r, v)) % p == 0 for r in rows for v in null)


@pytest.mark.parametrize("L", [1, 3, 4, 12])
def test_embedding_vandermonde_inverse(L):
    p, nodes, vinv = linalg._embeddings(L, 0)
    n = euler_phi(L)
    assert len(set(nodes)) == n and (p - 1) % L == 0
    # each node is a root of unity of order exactly L
    assert all(pow(w, L, p) == 1 and all(pow(w, L // q, p) != 1 for q in prime_factors(L)) for w in nodes)
    vander = [[pow(w, k, p) for k in range(n)] for w in nodes]
    product = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*vinv)] for row in vander]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_system_without_rows_has_every_column_free():
    """No rows and one empty row are the same system: the identity basis,
    with conductor-1 ones."""
    for rows in ([], [[]]):
        basis = linalg.integral_nullspace(rows, 3, 12)
        assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert [v[i].N for i, v in enumerate(basis)] == [1, 1, 1]


def test_zero_system_gives_conductor_one_identity():
    zero = CycNum.zero(12)
    basis = linalg.nullspace([[zero, zero], [zero, zero]])
    assert basis == [(1, 0), (0, 1)]
    assert [v[i].N for i, v in enumerate(basis)] == [1, 1]


def test_prime_dividing_an_entry_is_dropped():
    """Modulo the first prime p, (p, 1) reads (0, 1): the pivot moves to the
    wrong column, so that prime is dropped for the next one."""
    p = linalg._embeddings(1, 0)[0]
    a = [[CycNum.rational(p), CycNum.rational(1)]]
    got = linalg.nullspace(a)
    assert got == [(CycNum.rational(Fraction(-1, p)), 1)]
    assert basis_key(got) == basis_key(exact_nullspace(a))


def test_large_entry_needs_several_primes_and_a_retry(monkeypatch):
    """p + 1 exceeds what one prime p can reconstruct: modulo p it reads as
    1, which the exact check rejects, so further primes are added."""
    p = linalg._embeddings(1, 0)[0]
    a = [[CycNum.rational(1), CycNum.rational(-(p + 1))]]
    primes, checks = [], []
    embeddings, certified = linalg._embeddings, linalg._certified

    def spy_embeddings(L, i):
        primes.append(i)
        return embeddings(L, i)

    def spy_certified(rows, L, vectors):
        checks.append(certified(rows, L, vectors))
        return checks[-1]

    monkeypatch.setattr(linalg, "_embeddings", spy_embeddings)
    monkeypatch.setattr(linalg, "_certified", spy_certified)
    got = linalg.nullspace(a)
    assert got == [(p + 1, 1)]
    assert basis_key(got) == basis_key(exact_nullspace(a))
    assert checks[0] is False and checks[-1] is True
    assert len(primes) > 1


def test_uncertified_nullspace_raises_after_the_prime_budget(monkeypatch):
    primes = []
    embeddings = linalg._embeddings

    def spy_embeddings(L, i):
        primes.append(i)
        return embeddings(L, i)

    monkeypatch.setattr(linalg, "_embeddings", spy_embeddings)
    monkeypatch.setattr(linalg, "_certified", lambda rows, L, vectors: False)
    with pytest.raises(ExactError, match="certified"):
        linalg.nullspace([[CycNum.rational(1), CycNum.rational(2)]])
    assert max(primes) == linalg._PRIME_BUDGET - 1


def test_certificate_rejects_every_perturbed_coefficient(monkeypatch):
    """Adding 1 to any one power-basis coefficient of any lifted vector takes
    it out of the kernel when no column of the system is zero, so the integer
    certificate must reject every such perturbation of the lift it accepted."""
    z, w, o = CycNum.zeta(12), CycNum.zeta(12, 5), CycNum.zero()
    half = CycNum.rational(Fraction(-5, 2))
    # each row has columns of its own, so each row has perturbations only it sees
    a = [
        [z + Fraction(1, 3), w * 7 - 2, o, o, z * w + 5, o, o],
        [o, half, w, o, o, o, z - w],
        [o, o, o, z * 3, w + half, half * z, o],
    ]
    assert all(any(not row[c].is_zero() for row in a) for c in range(len(a[0])))
    seen = []
    certified = linalg._certified

    def spy(rows, L, vectors):
        seen.append((rows, L, vectors))
        return certified(rows, L, vectors)

    monkeypatch.setattr(linalg, "_certified", spy)
    basis = linalg.nullspace(a)
    assert basis and basis == exact_nullspace(a)
    rows, L, vectors = seen[-1]
    assert L == 12 and certified(rows, L, vectors)
    for b, vec in enumerate(vectors):
        for c, entry in enumerate(vec):
            for k in range(euler_phi(L)):
                # zeta_L^k is +1 on power-basis coefficient k at L
                bumped = [list(v) for v in vectors]
                bumped[b][c] = entry + CycNum.zeta(L, k)
                assert not certified(rows, L, bumped), (b, c, k)


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    for n in [*range(20000), *range(2**31 - 300, 2**31)]:
        assert linalg._is_prime(n) == by_trial(n), n
