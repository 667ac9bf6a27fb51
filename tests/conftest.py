import pytest

from brw.algebra import borel_algebra, pattern_algebra
from helpers import diagonal_algebra


@pytest.fixture(scope="session")
def b2_f2():
    return borel_algebra(2, 2)


@pytest.fixture(scope="session")
def b2_f3():
    return borel_algebra(3, 2)


@pytest.fixture(scope="session")
def b2_f5():
    return borel_algebra(5, 2)


@pytest.fixture(scope="session")
def b3_f2():
    return borel_algebra(2, 3)


@pytest.fixture(scope="session")
def b3_f3():
    return borel_algebra(3, 3)


@pytest.fixture(scope="session")
def b4_f2():
    return borel_algebra(2, 4)


@pytest.fixture(scope="session")
def diag2_f3():
    return diagonal_algebra(3, 2)


@pytest.fixture(scope="session")
def pattern3_f3():
    return pattern_algebra(3, 3, [(1, 2), (1, 3)])
