from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
import hypothesis.strategies as st

import pytest

from reflekt import linalg
from reflekt.exact import CycNum, ExactError, euler_phi

from oracles import exact_nullspace, exact_rref


def entry_key(x: CycNum):
    """Value plus conductor label; zeros compare by value only."""
    return None if x.is_zero() else (x.N, tuple(sorted(x.coeffs.items())))


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
