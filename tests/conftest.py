import pytest

from brandt_ranks.affine import a_plus_semigroup
from brandt_ranks.brandt import bn_elements, brandt_semigroup


@pytest.fixture(scope="session")
def b1():
    return brandt_semigroup(1)


@pytest.fixture(scope="session")
def b2():
    return brandt_semigroup(2)


@pytest.fixture(scope="session")
def b3():
    return brandt_semigroup(3)


@pytest.fixture(scope="session")
def ab1():
    return a_plus_semigroup(1)


@pytest.fixture(scope="session")
def ab2():
    return a_plus_semigroup(2)


@pytest.fixture(scope="session")
def ab3():
    return a_plus_semigroup(3)


@pytest.fixture(scope="session")
def ab4():
    return a_plus_semigroup(4)


def _phi_table(n, sigma):
    """Value table, in canonical B_n order, of the automorphism phi_sigma of
    B_n: (i, j) goes to (sigma i, sigma j) and zero to zero."""
    return tuple(None if x is None else (sigma[x[0]], sigma[x[1]]) for x in bn_elements(n))


@pytest.fixture(scope="session")
def phi_table():
    return _phi_table
