from __future__ import annotations

import pytest

from rrdlab.spheres import SphereTable, enumerate_ball


@pytest.fixture(scope="session")
def table4() -> SphereTable:
    return enumerate_ball(2, 4)


@pytest.fixture(scope="session")
def table6() -> SphereTable:
    return enumerate_ball(2, 6)


@pytest.fixture(scope="session")
def table8() -> SphereTable:
    return enumerate_ball(2, 8)


@pytest.fixture(scope="session")
def table_q3n2() -> SphereTable:
    return enumerate_ball(3, 2)


@pytest.fixture(scope="session")
def table_q4n2() -> SphereTable:
    return enumerate_ball(4, 2)


@pytest.fixture(scope="session")
def table_q3n4() -> SphereTable:
    return enumerate_ball(3, 4)
