import itertools

import numpy as np
import pytest

from brandt_ranks.brandt import (
    bn_add,
    bn_elements,
    bn_index,
    bn_label,
    bn_table,
    brandt_semigroup,
)
from brandt_ranks.errors import InvalidParameterError


def test_elements_smallest_case():
    assert bn_elements(1) == [None, (0, 0)]


def test_elements_counts_and_order():
    assert len(bn_elements(2)) == 5
    elems = bn_elements(3)
    assert len(elems) == 10
    assert elems[0] is None
    assert bn_label(elems[2]) == "(1,2)"  # row-major after the zero
    assert elems == sorted(elems, key=lambda x: bn_index(3, x))


def test_elements_rejects_zero():
    with pytest.raises(InvalidParameterError):
        bn_elements(0)


def test_add_matching_inner_indices():
    # 1-based (1,2) + (2,3) = (1,3)
    assert bn_add(3, (0, 1), (1, 2)) == (0, 2)


def test_add_mismatched_inner_indices():
    # 1-based (1,2) + (1,3) = zero
    assert bn_add(3, (0, 1), (0, 2)) is None


def test_zero_absorbs():
    assert bn_add(2, None, (1, 1)) is None
    assert bn_add(2, (1, 1), None) is None
    assert bn_add(2, None, None) is None


def test_add_range_validation():
    with pytest.raises(InvalidParameterError):
        bn_add(2, (0, 2), (0, 0))
    with pytest.raises(InvalidParameterError):
        bn_add(2, (0, 0), (-1, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_associativity_exhaustive(n):
    elems = bn_elements(n)
    for a, b, c in itertools.product(elems, repeat=3):
        assert bn_add(n, bn_add(n, a, b), c) == bn_add(n, a, bn_add(n, b, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_idempotents_are_zero_and_diagonal(n):
    idem = {x for x in bn_elements(n) if bn_add(n, x, x) == x}
    assert idem == {None} | {(i, i) for i in range(n)}


def test_labels():
    assert bn_label(None) == "0"
    assert bn_label((0, 1)) == "(1,2)"


def test_semigroup_table(b2):
    assert b2.m == 5
    assert b2.labels[0] == "0"
    # zero row and column absorb
    rows = b2.table.tolist()
    assert all(v == 0 for v in rows[0])
    assert all(row[0] == 0 for row in rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bn_table_is_the_per_pair_table(n):
    elems = bn_elements(n)
    index = {x: i for i, x in enumerate(elems)}
    assert bn_table(n) == [[index[bn_add(n, x, y)] for y in elems] for x in elems]
    assert np.array_equal(brandt_semigroup(n).table, bn_table(n))
