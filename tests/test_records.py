"""The immutable records keep their record semantics: attribute assignment
raises, and records with equal fields are equal and hash equally."""
import copy

import pytest

from reflekt.chars import character_table
from reflekt.fake import FakeDegreeSet
from reflekt.groups import build_group, parse_descriptor
from reflekt.kz import KZSettings, LabelVector, _arrangement, monodromy_rep
from reflekt.minmat import build_minimal_matrix


@pytest.fixture(scope="module")
def records():
    g = build_group("S3")
    table = character_table(g)
    fs = FakeDegreeSet(g, table)
    return {
        "Descriptor": (parse_descriptor("S3"), "n"),
        "Hyperplane": (g.hyperplanes[0], "order"),
        "ConjugacyClass": (g.classes[1], "size"),
        "ClassFunction": (table.rows[1], "values"),
        "LocalData": (fs.local[1], "multiplicities"),
        "FakeDegree": (fs.fds[1], "exponents"),
        "MinimalTauMatrix": (build_minimal_matrix(fs, 2), "seed"),
        "KZSettings": (KZSettings(), "seed"),
        "LabelVector": (LabelVector.zero(g), "values"),
        "BraidPath": (_arrangement(g, 0)[3][0], "eps"),
        "MonodromyRep": (monodromy_rep(fs, 1, LabelVector.zero(g)), "row"),
    }


HASHABLE = [
    "Descriptor", "Hyperplane", "ConjugacyClass", "ClassFunction", "LocalData", "FakeDegree", "KZSettings", "LabelVector",
]


@pytest.mark.parametrize("name", HASHABLE + ["MinimalTauMatrix", "BraidPath", "MonodromyRep"])
def test_record_rejects_attribute_assignment(records, name):
    record, field = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equally(records, name):
    record, _ = records[name]
    clone = copy.copy(record)
    assert clone is not record
    assert clone == record
    assert hash(clone) == hash(record)
