import types

import numpy as np
import pytest

from brandt_ranks.affine import a_plus_semigroup, enumerate_a_plus, support_size
from brandt_ranks.errors import WitnessVerificationError
from brandt_ranks.verify import _support_sum_bound


def _first_violation(n, table):
    """Reference loop: the first (f, g) in row-major order whose sum grows the support."""
    elems = enumerate_a_plus(n)
    sizes = [support_size(n, e) for e in elems]
    for i in range(len(elems)):
        for j in range(len(elems)):
            s = sizes[table[i][j]]
            if s > sizes[i] or s > sizes[j]:
                return elems[i], elems[j]
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_sum_bound_holds(n):
    sg = a_plus_semigroup(n)
    assert _first_violation(n, sg.rows) is None
    assert _support_sum_bound(n, sg) == f"all {sg.m ** 2} pairs respect the support bound"


def test_support_sum_bound_reports_first_failing_pair():
    sg = a_plus_semigroup(2)
    const = sg.index_of("xi(1,2)")  # full support, n*n + 1 points
    table = sg.table.copy()
    table[7, 3] = const
    table[4, 20] = const
    f, g = _first_violation(2, table.tolist())
    with pytest.raises(WitnessVerificationError) as err:
        _support_sum_bound(2, types.SimpleNamespace(table=np.asarray(table)))
    assert str(err.value) == f"support bound fails for {f!r} + {g!r}"
    assert f == enumerate_a_plus(2)[4]
