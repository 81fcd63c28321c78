import numpy as np
import pytest

from reflekt.exact import CycNum
from reflekt.groups import build_group
from reflekt.chars import (
    character_table,
    det_character,
    defining_character,
    local_data,
    orbit_det_power,
    tensor_with_linear,
    trivial_character,
    ClassFunction,
)

from oracles import regular_rep_characters

CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]  # m = 4 is G(4,4,2) above
)


@pytest.fixture(scope="module")
def built():
    out = {}
    for d in CORPUS:
        g = build_group(d)
        out[d] = (g, character_table(g))
    return out


def test_degrees_s3(built):
    g, t = built["S3"]
    assert sorted(r.degree_int() for r in t.rows) == [1, 1, 2]


def test_degrees_g212(built):
    g, t = built["G(2,1,2)"]
    assert sorted(r.degree_int() for r in t.rows) == [1, 1, 1, 1, 2]


def test_cyclic_table_is_fourier(built):
    g, t = built["G(3,1,1)"]
    assert all(r.degree_int() == 1 for r in t.rows)
    gen_class = g.class_of[g.index[g.generator_matrices[0]]]
    vals = sorted(str(r.values[gen_class].to_json()) for r in t.rows)
    expected = sorted(
        str(CycNum.zeta(3, j).promote(3).to_json()) for j in range(3)
    )
    assert vals == expected


def test_table_constructor_validates_corpus(built):
    # orthogonality is asserted inside the constructor; reaching here is the test
    for name, (g, t) in built.items():
        assert len(t.rows) == len(g.classes), name


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
    gen_class = g3.class_of[g3.index[g3.generator_matrices[0]]]
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


def test_tensor_with_linear(built):
    g, t = built["S3"]
    std = next(r for r in t.rows if r.degree_int() == 2)
    triv = trivial_character(g)
    sign = det_character(g)
    assert tensor_with_linear(std, triv).values == std.values
    assert t.row_index(tensor_with_linear(std, sign)) == t.row_index(std)
    assert tensor_with_linear(sign, sign).values == triv.values
    with pytest.raises(ValueError):
        tensor_with_linear(std, std)


def test_local_data_twist_is_cyclic_shift(built):
    for name in ["S3", "G(2,1,2)", "G(3,1,2)", "G(4,4,2)"]:
        g, t = built[name]
        linear_rows = [r for r in t.rows if r.degree_int() == 1]
        for tau in t.rows:
            base = local_data(tau, g)
            for lam in linear_rows:
                twisted = local_data(tensor_with_linear(tau, lam), g)
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
                composed = orbit.pi.compose_matrix(g.elements[g.inverse(cls.rep)])
                ratio = composed.divide_exact(orbit.pi)
                vals.append(ratio.terms[(0,) * g.dimension])
            chi = ClassFunction(g, tuple(vals))
            idx = t.row_index(chi)  # raises KeyError if absent
            assert t.rows[idx].degree_int() == 1, name


def test_defining_character_is_a_row_for_irreducible_groups(built):
    g, t = built["S4"]
    assert t.row_index(defining_character(g)) >= 0
