import json

import pytest

from reflekt.exact import CycNum
from reflekt import groups as groups_mod, linalg
from reflekt.groups import (
    GroupBuildError,
    build_group,
    parse_descriptor,
)

CORPUS = (
    ["S3", "S4", "G(2,1,2)", "G(3,1,2)", "G(3,3,3)", "G(4,4,2)"]
    + [f"G({m},1,1)" for m in range(2, 7)]
    + [f"G({m},{m},2)" for m in range(2, 7) if m != 4]  # m = 4 is G(4,4,2) above
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
            assert linalg.is_unitary(g.elements[i]), name
            assert g.word_product(g.words[i]) == i, name


def test_corpus_stabilizers(groups):
    for name, g in groups.items():
        for hp in g.hyperplanes:
            assert g.element_orders[hp.generator] == hp.order
            assert g.det(hp.generator) == CycNum.zeta(hp.order)
            for v in hp.fixed_basis:
                assert linalg.mat_vec(g.elements[hp.generator], v) == v


def test_corpus_stabilizers_match_fixed_point_scan(groups):
    for name, g in groups.items():
        for hp in g.hyperplanes:
            scan = tuple(
                i
                for i in range(g.order)
                if all(linalg.mat_vec(g.elements[i], v) == v for v in hp.fixed_basis)
            )
            assert hp.stabilizer == scan, name


@pytest.mark.parametrize("name", ["S4", "G(3,1,2)", "G(4,4,2)"])
def test_word_walk_products_match_table(name, monkeypatch):
    tabled = build_group(name)
    monkeypatch.setattr(groups_mod, "MULT_TABLE_LIMIT", 0)
    walked = build_group(name)
    assert walked._mult_table is None and tabled._mult_table is not None
    n = tabled.order
    for i in range(n):
        for j in range(n):
            product = linalg.mat_mul(tabled.elements[i], tabled.elements[j])
            assert walked.mult(i, j) == tabled.mult(i, j) == tabled.index[product]
        assert tabled.mult(i, tabled.inverse(i)) == 0
    assert walked.inverse_table == tabled.inverse_table
    assert walked.element_orders == tabled.element_orders
    assert walked.classes == tabled.classes
    assert walked.reflections == tabled.reflections
    assert walked.info() == tabled.info()


def test_corpus_orbit_semi_invariance(groups):
    for name, g in groups.items():
        gen_elts = [g.index[m] for m in g.generator_matrices]
        for orbit in g.orbits:
            count = len(orbit.members) * (orbit.order - 1)
            in_orbit = sum(
                1
                for r in g.reflections
                if g.orbit_of_hyperplane[g.hyperplane_index[g._reflection_form(r)]]
                == g.orbit_of_hyperplane[orbit.members[0]]
            )
            assert count == in_orbit, name
            for w in gen_elts:
                composed = orbit.pi.compose_matrix(g.elements[g.inverse(w)])
                ratio = composed.divide_exact(orbit.pi)
                assert ratio.homogeneous_degree() == 0
                c = ratio.terms[(0,) * g.dimension]
                assert (c * c.conjugate()) == 1, name  # root of unity


def test_orbit_character_matches_polynomial_ratio(groups):
    for name, g in groups.items():
        for c, orbit in enumerate(g.orbits):
            for k, cls in enumerate(g.classes):
                composed = orbit.pi.compose_matrix(g.elements[g.inverse(cls.rep)])
                ratio = composed.divide_exact(orbit.pi)
                assert g.orbit_character(c)[k] == ratio.terms[(0,) * g.dimension], name


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
