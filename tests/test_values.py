"""The immutable value types: Perm, Partition, WreathElement and
LabelledPartition are validated tuples."""

import pytest

from group_basis_oracle import character_product
from kacpal.classifier import LabelledPartition
from kacpal.partitions import Partition
from kacpal.wreath import Perm, WreathElement

# type -> (a builder of one value, a property name, a call on invalid
# input, the value's plain tuple)
VALUES = {
    "Perm": (lambda: Perm([1, 2, 0]), "m", lambda: Perm([0, 0, 1]), (1, 2, 0)),
    "Partition": (lambda: Partition([3, 1]), "size", lambda: Partition([1, 3]), (3, 1)),
    "WreathElement": (
        lambda: WreathElement(3, [2, 0], Perm([1, 0])),
        "twists",
        lambda: WreathElement(3, [3, 0], Perm([1, 0])),
        (3, (2, 0), (1, 0)),
    ),
    "LabelledPartition": (
        lambda: LabelledPartition(2, [Partition([2]), Partition([1])]),
        "blocks",
        lambda: LabelledPartition(2, [Partition([2])]),
        (2, ((2,), (1,))),
    ),
}


@pytest.mark.parametrize("kind", VALUES)
def test_value_type_is_immutable_hashable_and_validated(kind):
    build, field, invalid, plain = VALUES[kind]
    value = build()
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    other = build()
    assert other is not value
    assert other == value and hash(other) == hash(value)
    with pytest.raises(ValueError):
        invalid()
    assert value == plain and plain == value
    assert hash(value) == hash(plain)
    assert {plain: 1}[value] == 1


REPRS = {
    "Perm": "Perm([1, 2, 0])",
    "Partition": "Partition([3, 1])",
    "WreathElement": "WreathElement(n=3, twists=[2, 0], perm=[1, 0])",
    "LabelledPartition": "LabelledPartition(2, [[2], [1]])",
}


@pytest.mark.parametrize("kind", VALUES)
def test_a_value_repr_names_its_type_and_fields(kind):
    # failure messages print values by their reprs
    assert repr(VALUES[kind][0]()) == REPRS[kind]


def test_a_perm_key_is_its_plain_tuple_key():
    lam = (0, 1)
    by_perm = {(lam, Perm([1, 0])): 1}
    by_tuple = {(lam, (1, 0)): 1}
    assert by_perm == by_tuple and [hash(key) for key in by_perm] == [hash(key) for key in by_tuple]
    assert character_product(by_perm, by_perm) == character_product(by_tuple, by_tuple)
