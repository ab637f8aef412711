import pytest

from qicsim.channel import capacity_table, scenario_moments
from qicsim.field_kernel import pairing_damped
from qicsim.scenarios import table1_scenario


@pytest.fixture(scope="session")
def table1_3():
    return table1_scenario(3)


@pytest.fixture(scope="session")
def table1_2():
    return table1_scenario(2)


@pytest.fixture(scope="session")
def moments_3(table1_3):
    return scenario_moments(table1_3)


@pytest.fixture(scope="session")
def moments_2(table1_2):
    return scenario_moments(table1_2)


@pytest.fixture(scope="session")
def captable_3(table1_3):
    return capacity_table(table1_3, base=2)


@pytest.fixture(scope="session")
def captable_2(table1_2):
    return capacity_table(table1_2, base=2)


@pytest.fixture(scope="session")
def damped_pairings(table1_3, table1_2):
    """`pairing_damped` of the table1 scenarios, computed once per session:
    every bob-bob pair (i <= j) and each bob-alice pair, keyed by
    (d, i, j) with bob indices i, j and j = "alice" for the sender."""
    out = {}
    for sc, d in ((table1_3, 3), (table1_2, 2)):
        for i, bob in enumerate(sc.bobs):
            for j in range(i, len(sc.bobs)):
                out[d, i, j] = pairing_damped(bob, sc.bobs[j], d)
            out[d, i, "alice"] = pairing_damped(bob, sc.alice, d)
    return out
