"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The corpus is fixed; every tolerance is pinned here and nothing is
deferred to later calibration.
"""
import cmath
import itertools
import random
import time

import numpy as np
import pytest

from reflekt.exact import PolyT, poly_from_ints
from reflekt.groups import build_group
from reflekt.chars import character_table
from reflekt.fake import (
    FakeDegreeSet,
    coinvariant_poincare,
    palindrome_check,
    poincare_identity,
    verify_all_pn,
    verify_symmetry,
)
from reflekt.minmat import (
    build_minimal_matrix,
    verify_det_factorization,
    verify_quotient_property,
)
from reflekt.kz import (
    KZSettings,
    LabelVector,
    assemble_connection,
    gamma_scan,
    monodromy,
    monodromy_rep,
)
from reflekt import linalg

from corpus import CORPUS
from oracles import brute_force_fake_degree, regular_rep_characters


MINMAT_SCOPE = ["S3", "S4", "G(2,1,2)", "G(3,1,2)"] + [f"G({m},1,1)" for m in range(2, 5)]


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    groups = {}
    t0 = time.monotonic()
    for d in CORPUS:
        groups[d] = build_group(d)
    build_time = time.monotonic() - t0
    sets = {}
    for d, g in groups.items():
        sets[d] = FakeDegreeSet(g, character_table(g))
    return {"groups": groups, "fs": sets, "build_time": build_time}


def test_criterion_1_structure_identities():
    t0 = time.monotonic()
    for d in CORPUS:
        g = build_group(d)
        prod = 1
        for deg in g.degrees:
            prod *= deg
        assert prod == g.order, d
        assert sum(deg - 1 for deg in g.degrees) == len(g.reflections), d
    elapsed = time.monotonic() - t0
    report(1, elapsed < 120, f"exact on {len(CORPUS)} groups in {elapsed:.1f}s < 120s")


def test_criterion_2_character_tables(corpus):
    checked = 0
    for d, fs in corpus["fs"].items():
        # exact row/column orthogonality re-run explicitly (the constructor
        # also enforces it; failure raises)
        fs.table._validate()
        g = corpus["groups"][d]
        if g.order <= 48:
            oracle = regular_rep_characters(g)
            assert len(oracle) == len(fs.table.rows), d
            used = set()
            for row in fs.table.rows:
                vec = np.array([v.to_complex() for v in row.values])
                hits = [
                    i
                    for i, o in enumerate(oracle)
                    if i not in used and np.allclose(vec, o, atol=1e-6)
                ]
                assert len(hits) == 1, f"{d}: ambiguous or missing oracle match"
                used.add(hits[0])
            checked += 1
    report(2, True, f"orthogonality exact on all; oracle row-for-row on {checked} groups")


def test_criterion_3_fake_degrees(corpus):
    for d, fs in corpus["fs"].items():
        for i, row in enumerate(fs.table.rows):
            fd = fs.fds[i]
            for c in fd.polynomial.coeffs:
                assert c.is_integer() and c.as_fraction() >= 0, d
            assert fd.polynomial.evaluate(1) == row.degree_int(), d
    fs3 = corpus["fs"]["S3"]
    expected = {1: 0, 0: 0}
    polys = [fs3.f_poly(i) for i in range(3)]
    assert sum(p == poly_from_ints(1) for p in polys) == 1
    assert sum(p == poly_from_ints(0, 0, 0, 1) for p in polys) == 1
    assert sum(p == poly_from_ints(0, 1, 1) for p in polys) == 1
    fs212 = corpus["fs"]["G(2,1,2)"]
    two = next(i for i, r in enumerate(fs212.table.rows) if r.degree_int() == 2)
    assert fs212.f_poly(two) == poly_from_ints(0, 1, 0, 1)
    for d in ["S3", "G(2,1,2)"]:
        fs = corpus["fs"][d]
        for i, row in enumerate(fs.table.rows):
            assert fs.f_poly(i) == brute_force_fake_degree(fs.group, row.values), d
    report(3, True, "integrality + frozen S3/G(2,1,2) values + elementwise oracle")


def test_criterion_4_poincare_identity(corpus):
    for d, fs in corpus["fs"].items():
        assert poincare_identity(fs)["passed"], d
    report(4, True, f"sum deg*F = coinvariant Poincare on {len(CORPUS)} groups")


def test_criterion_5_exponent_sum_identity(corpus):
    total = 0
    for d, fs in corpus["fs"].items():
        rep = verify_all_pn(fs)
        assert rep["passed"], d
        total += len(rep["items"])
    report(5, True, f"exponent-sum identity exact for {total} irreducibles")


def test_criterion_6_fake_degree_symmetry(corpus):
    total = 0
    for d, fs in corpus["fs"].items():
        rep = verify_symmetry(fs)
        assert rep["passed"], d
        for item in rep["items"]:
            assert "N" in item, f"{d}: non-integer shift"
            assert item["matches"], f"{d}: no partner for {item}"
        total += len(rep["items"])
    report(6, True, f"integer shift + partner exists for {total} (tau, b) pairs")


def test_criterion_7_semi_palindromicity(corpus):
    total = 0
    for d, fs in corpus["fs"].items():
        rep = palindrome_check(fs)  # identity (a) raises on failure
        assert rep["checked_identity_a"]
        assert rep["passed"], d
        for item in rep["items"]:
            assert item["partners"], f"{d}: no shifted partner"
        total += len(rep["items"])
    report(7, True, f"T^#R identity exact + c-shift partner for {total} irreducibles")


def test_criterion_8_minimal_matrices(corpus):
    t0 = time.monotonic()
    count = 0
    for d in MINMAT_SCOPE:
        fs = corpus["fs"][d]
        for i in range(len(fs.table.rows)):
            mm = build_minimal_matrix(fs, i)  # equivariance asserted exactly inside
            assert verify_det_factorization(fs, mm)["passed"], (d, i)
            assert verify_quotient_property(fs, mm)["passed"], (d, i)
            count += 1
    elapsed = time.monotonic() - t0
    report(8, elapsed < 300, f"{count} minimal matrices verified in {elapsed:.1f}s < 300s")


def test_criterion_9_kz_monodromy(corpus):
    rng = random.Random(20250809)
    # (a) cyclic analytic eigenvalues, 10 random complex k, tolerance 1e-8
    for m in (2, 3, 4):
        fs = corpus["fs"][f"G({m},1,1)"]
        ks = []
        for _ in range(10):
            vals = tuple(
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                for _ in range(m)
            )
            ks.append(LabelVector((vals,)))
        for row in range(len(fs.table.rows)):
            j = next(
                jj for jj, n in enumerate(fs.local[row].multiplicities[0]) if n == 1
            )
            block = assemble_connection(fs, row, ks)
            mats = monodromy(block, 0)
            for b, k in enumerate(ks):
                expect = cmath.exp(2j * cmath.pi * (j - m * k.values[0][j]) / m)
                assert abs(mats[b][0, 0] - expect) < 1e-8, (m, row)
    # (b) Hecke residual <= 1e-6 per generator, 5 random draws, S3 and G(2,1,2)
    for d in ("S3", "G(2,1,2)"):
        fs = corpus["fs"][d]
        g = fs.group
        ks = []
        for _ in range(5):
            vals = tuple(
                tuple(
                    complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                    for _ in range(o.order)
                )
                for o in g.orbits
            )
            ks.append(LabelVector(vals))
        for row in range(len(fs.table.rows)):
            rep = monodromy_rep(fs, row, ks)
            for h in rep.hyperplanes:
                assert max(rep.residuals[h]) <= 1e-6, (d, row, h)
        # (c) k = 0 reproduces the deck matrix tau(s_H) to 1e-8
        from reflekt.minmat import matrix_realization

        for row in range(len(fs.table.rows)):
            rep0 = monodromy_rep(fs, row, LabelVector.zero(g))
            real = matrix_realization(g, fs.table, row)
            for h in rep0.hyperplanes:
                target = linalg.mat_to_complex(
                    real.element_matrix(g.hyperplanes[h].generator)
                )
                assert np.max(np.abs(rep0.matrix(h) - target)) < 1e-8, (d, row, h)
    report(9, True, "cyclic eigenvalues 1e-8; Hecke 1e-6; k=0 deck calibration 1e-8")


def test_criterion_10_gamma_permutations(corpus):
    t0 = time.monotonic()
    stats = []
    for d in ("S3", "G(2,1,2)"):
        fs = corpus["fs"][d]
        g = fs.group
        ranges = [range(-2, 3) for o in g.orbits for _ in range(o.order)]
        shape = [o.order for o in g.orbits]
        ks = []
        for combo in itertools.product(*ranges):
            vals = []
            pos = 0
            for e in shape:
                vals.append(tuple(complex(x) for x in combo[pos : pos + e]))
                pos += e
            ks.append(LabelVector(tuple(vals)))
        results = gamma_scan(fs, ks)  # raises unless every result is a
        # dimension- and local-data-preserving permutation with pure-braid
        # residual below tolerance
        worst_pure = max(r["pure_braid_residual"] for r in results)
        assert worst_pure <= 1e-6, d
        by_key = {}
        for k, r in zip(ks, results):
            key = tuple(tuple((c.real, c.imag) for c in row) for row in k.values)
            by_key[key] = dict(r["pairs"])
        identity = {i: i for i in range(len(fs.table.rows))}
        for k in ks:
            key = tuple(tuple((c.real, c.imag) for c in row) for row in k.values)
            nkey = tuple(
                tuple(((-c).real, (-c).imag) for c in row) for row in k.values
            )
            fwd, bwd = by_key[key], by_key[nkey]
            composed = {i: bwd[fwd[i]] for i in fwd}
            assert composed == identity, (d, key)
        stats.append(f"{d}: {len(ks)} label vectors, worst pure-braid {worst_pure:.1e}")
    elapsed = time.monotonic() - t0
    report(
        10,
        elapsed < 600,
        "; ".join(stats) + f"; gamma(k) o gamma(-k) = id; {elapsed:.1f}s < 600s",
    )
