import pytest

from weylorders.rootsystem import SimpleType
from weylorders.weylchar import CharPolyTable, simple_table


@pytest.fixture(scope="session")
def small_exceptional_tables():
    """G2, F4 and E6 tables (milliseconds each)."""
    return {
        str(t): simple_table(t)
        for t in (SimpleType("G", 2), SimpleType("F", 4), SimpleType("E", 6))
    }


@pytest.fixture(scope="session")
def e7_table() -> CharPolyTable:
    """The E7 table, summed over the double cosets of D5xA1 (a tenth of a second)."""
    return simple_table(SimpleType("E", 7))


@pytest.fixture(scope="session")
def e8_table() -> CharPolyTable:
    """The E8 table, summed over the 35 double cosets of A7 (seconds)."""
    return simple_table(SimpleType("E", 8))
