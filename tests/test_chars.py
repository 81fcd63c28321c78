import random

import numpy as np
import pytest

from reflekt.exact import CycNum
from reflekt.groups import build_group
from reflekt.chars import (
    character_table,
    det_character,
    defining_character,
    local_data,
    trivial_character,
    CharacterTable,
    CharTableError,
    ClassFunction,
    _class_constants,
    _fp_eigenvalues,
)

from corpus import CORPUS, G4
from oracles import fp_rref_lists, orbit_det_power, regular_rep_characters, word_walk_class_constants


@pytest.fixture(scope="module")
def built():
    out = {}
    for d in CORPUS:
        g = build_group(d)
        out[d] = (g, character_table(g))
    return out


@pytest.mark.parametrize("p", [37, 73])
def test_fp_eigenvalues_are_the_singular_shifts(p):
    """The eigenvalues found are the x with a - x I singular over F_p: random
    matrices and diagonalizable ones with repeated eigenvalues, up to the size
    of the largest class-matrix blocks of the scale groups; block-diagonal
    ones whose first block holds e_0, so that vectors built from e_0 alone
    miss the other blocks' eigenvalues; and Jordan blocks, which are not
    diagonalizable, with e_0 at either end of the chain."""
    rng = random.Random(p)

    def singular(a):
        d = len(a)
        return [
            x for x in range(p)
            if len(fp_rref_lists([[v - x * (i == j) for j, v in enumerate(r)] for i, r in enumerate(a)], p)[1]) < d
        ]

    for d in (1, 2, 5, 22):
        diag = [rng.choice([0, 1, p - 1, 5]) for _ in range(d)]
        q = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        qinv_aug, piv = fp_rref_lists([r + [int(i == j) for j in range(d)] for i, r in enumerate(q)], p)
        if piv != list(range(d)):
            continue
        qinv = [r[d:] for r in qinv_aug]
        similar = [[sum(q[i][t] * diag[t] * qinv[t][j] for t in range(d)) % p for j in range(d)] for i in range(d)]
        for a in ([[rng.randrange(p) for _ in range(d)] for _ in range(d)], similar):
            assert _fp_eigenvalues(a, p) == singular(a)
        assert _fp_eigenvalues(similar, p) == sorted(set(diag))

    def block_diagonal(*blocks):
        d, out, at = sum(map(len, blocks)), [], 0
        for b in blocks:
            out += [[0] * at + row + [0] * (d - at - len(b)) for row in b]
            at += len(b)
        return out

    for sizes in ((1, 1), (3, 2), (2, 2, 3), (4, 1, 1)):
        # triangular blocks with disjoint diagonals: the eigenvalues are known
        values = rng.sample(range(p), sum(sizes))
        blocks = []
        for n in sizes:
            diag, values = values[:n], values[n:]
            blocks.append([[diag[i] if i == j else rng.randrange(p) * (j > i) for j in range(n)] for i in range(n)])
        a = block_diagonal(*blocks)
        assert _fp_eigenvalues(a, p) == singular(a) == sorted(b[i][i] for b in blocks for i in range(len(b)))
        # a random first block makes e_0 cyclic there, and only there
        a = block_diagonal([[rng.randrange(p) for _ in range(sizes[0])] for _ in range(sizes[0])], *blocks[1:])
        assert _fp_eigenvalues(a, p) == singular(a)

    for d, lam, mu in ((2, 3, 3), (5, 0, 7), (4, p - 1, 2)):
        jordan = [[lam if i == j else int(j == i + 1) for j in range(d)] for i in range(d)]
        lower = [list(col) for col in zip(*jordan)]  # e_0 generates the whole space
        for a in (jordan, lower):
            assert _fp_eigenvalues(a, p) == [lam]
            b = block_diagonal(a, [[mu, 1], [0, mu]])
            assert _fp_eigenvalues(b, p) == singular(b) == sorted({lam, mu})


@pytest.mark.parametrize("desc", list(CORPUS) + [G4, "S5", "G(3,1,3)", "G(4,2,3)", "G(6,6,3)"])
def test_class_constants_match_word_walk_oracle(desc):
    """The column-wise class constants equal one word walk per (class,
    element), on the corpus, G4, S5 and the scale groups."""
    g = build_group(desc)
    assert _class_constants(g) == word_walk_class_constants(g)


def test_degrees_s3(built):
    g, t = built["S3"]
    assert sorted(r.degree_int() for r in t.rows) == [1, 1, 2]


def test_degrees_g212(built):
    g, t = built["G(2,1,2)"]
    assert sorted(r.degree_int() for r in t.rows) == [1, 1, 1, 1, 2]


def test_cyclic_table_is_fourier(built):
    g, t = built["G(3,1,1)"]
    assert all(r.degree_int() == 1 for r in t.rows)
    gen_class = g.class_of[[g.matrix(i) for i in range(g.order)].index(g.generator_matrices[0])]
    vals = sorted(str(r.values[gen_class].to_json()) for r in t.rows)
    expected = sorted(
        str(CycNum.zeta(3, j).promote(3).to_json()) for j in range(3)
    )
    assert vals == expected


def test_table_constructor_validates_corpus(built):
    # orthogonality is asserted inside the constructor; reaching here is the test
    for name, (g, t) in built.items():
        assert len(t.rows) == len(g.classes), name


def _with_row(t, i, values):
    rows = list(t.rows)
    rows[i] = ClassFunction(t.group, tuple(values))
    return rows


def _unvalidated(g, rows):
    out = object.__new__(CharacterTable)
    out.group, out.rows = g, tuple(rows)
    return out


def test_table_check_rejects_an_entry_moved_by_a_root_of_unity(built):
    g, t = built["G(3,1,2)"]
    zeta = CycNum.zeta(g.conductor)
    for i in range(len(t.rows)):
        for c in range(len(g.classes)):
            if c == g.class_of[g.identity]:
                continue  # the degree checks catch that one first
            values = list(t.rows[i].values)
            values[c] = values[c] + zeta
            with pytest.raises(CharTableError, match="row orthogonality"):
                CharacterTable(g, _with_row(t, i, values))
            with pytest.raises(CharTableError, match="column orthogonality"):
                _unvalidated(g, _with_row(t, i, values))._check_columns()


def test_column_check_rejects_two_entries_swapped_in_one_row(built):
    """Swapping the values of two classes of equal size in one row keeps that
    row's norm.  The column check, run on its own, still catches it."""
    g, t = built["G(3,1,2)"]
    i, c1, c2 = next(
        (i, c1, c2)
        for i, row in enumerate(t.rows)
        for c1 in range(len(g.classes))
        for c2 in range(c1 + 1, len(g.classes))
        if g.classes[c1].size == g.classes[c2].size and row.values[c1] != row.values[c2]
    )
    values = list(t.rows[i].values)
    values[c1], values[c2] = values[c2], values[c1]
    rows = _with_row(t, i, values)
    assert _unvalidated(g, rows).rows[i].norm() == 1
    with pytest.raises(CharTableError, match="column orthogonality"):
        _unvalidated(g, rows)._check_columns()
    with pytest.raises(CharTableError):
        CharacterTable(g, rows)


def test_matches_regular_rep_oracle(built):
    for name, (g, t) in built.items():
        if g.order > 48:
            continue
        oracle = regular_rep_characters(g)
        assert len(oracle) == len(t.rows), name
        used = set()
        for row in t.rows:
            vec = np.array([v.to_complex() for v in row.values])
            matches = [
                i
                for i, o in enumerate(oracle)
                if i not in used and np.allclose(vec, o, atol=1e-6)
            ]
            assert len(matches) == 1, f"{name}: row has {len(matches)} oracle matches"
            used.add(matches[0])


def test_det_character_values(built):
    g, _ = built["S3"]
    d = det_character(g)
    transposition = next(
        c for c in range(len(g.classes)) if g.element_orders[g.classes[c].rep] == 2
    )
    assert d.values[transposition] == -1
    assert d.values[g.class_of[g.identity]] == 1

    g3, _ = built["G(3,1,1)"]
    d3 = det_character(g3)
    gen_class = g3.class_of[[g3.matrix(i) for i in range(g3.order)].index(g3.generator_matrices[0])]
    assert d3.values[gen_class] == CycNum.zeta(3)


def test_local_data_examples(built):
    g, t = built["S3"]
    std = next(r for r in t.rows if r.degree_int() == 2)
    ld = local_data(std, g)
    assert ld.multiplicities == ((1, 1),)

    triv = trivial_character(g)
    assert local_data(triv, g).multiplicities == ((1, 0),)

    g3, t3 = built["G(3,1,1)"]
    det_inv = det_character(g3).conjugate()
    ld3 = local_data(det_inv, g3)
    assert ld3.multiplicities == ((0, 1, 0),)


def test_local_data_sums_to_degree(built):
    for name, (g, t) in built.items():
        for row in t.rows:
            ld = local_data(row, g)
            for c, orbit in enumerate(g.orbits):
                assert sum(ld.multiplicities[c]) == row.degree_int(), name


def test_det_twist_of_every_row_is_a_row(built):
    """tau (x) det is irreducible, so `fake.palindrome_check` finds it by
    `row_index` alone: every row's det twist is a row of the same degree."""
    g4 = build_group(G4)
    for name, (g, t) in [*built.items(), ("G4", (g4, character_table(g4)))]:
        det_row = det_character(g)
        for row in t.rows:
            twisted = t.rows[t.row_index(row.tensor(det_row))]
            assert twisted.degree_int() == row.degree_int(), name


def test_local_data_twist_is_cyclic_shift(built):
    for name in ["S3", "G(2,1,2)", "G(3,1,2)", "G(4,4,2)"]:
        g, t = built[name]
        linear_rows = [r for r in t.rows if r.degree_int() == 1]
        for tau in t.rows:
            base = local_data(tau, g)
            for lam in linear_rows:
                twisted = local_data(tau.tensor(lam), g)
                for c, orbit in enumerate(g.orbits):
                    a = orbit_det_power(g, lam, c)
                    e = orbit.order
                    expect = tuple(
                        base.multiplicities[c][(j - a) % e] for j in range(e)
                    )
                    assert twisted.multiplicities[c] == expect, name


def test_pi_character_is_linear_table_row(built):
    for name, (g, t) in built.items():
        for orbit in g.orbits:
            vals = []
            for cls in g.classes:
                composed = g.substitute(orbit.pi, g.inverse(cls.rep))
                ratio = composed.divide_exact(orbit.pi)
                vals.append(ratio.terms[(0,) * g.dimension])
            chi = ClassFunction(g, tuple(vals))
            idx = t.row_index(chi)  # raises KeyError if absent
            assert t.rows[idx].degree_int() == 1, name


def test_row_index_matches_by_value_and_rejects_non_rows(built):
    """Rows are found whatever the labels of their values; a class function
    that is not a row raises KeyError, non-integral values included."""
    g, t = built["G(3,1,2)"]
    for i, row in enumerate(t.rows):
        relabelled = tuple(CycNum.rational(v.as_fraction()) if v.is_rational() else v for v in row.values)
        assert t.row_index(ClassFunction(g, relabelled)) == i
    zeta = CycNum.zeta(g.conductor)
    moved = list(t.rows[1].values)
    moved[-1] = moved[-1] + zeta
    for values in (
        tuple(a + b for a, b in zip(t.rows[0].values, t.rows[1].values)),
        tuple(moved),
        tuple(v / 2 for v in t.rows[0].values),
    ):
        with pytest.raises(KeyError):
            t.row_index(ClassFunction(g, values))


def test_defining_character_is_a_row_for_irreducible_groups(built):
    g, t = built["S4"]
    assert t.row_index(defining_character(g)) >= 0
