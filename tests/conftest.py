import pytest

from brandt_ranks.affine import a_plus_semigroup
from brandt_ranks.brandt import brandt_semigroup


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
