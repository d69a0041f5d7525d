from __future__ import annotations

import os

import pytest

from rrdlab.spheres import SphereTable, enumerate_ball


@pytest.fixture(scope="session")
def table4() -> SphereTable:
    return enumerate_ball(2, 4)


# the table is byte-identical for every thread count, so the two large
# fixtures use every core the process may run on
THREADS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="session")
def table6() -> SphereTable:
    return enumerate_ball(2, 6, threads=THREADS)


@pytest.fixture(scope="session")
def table8() -> SphereTable:
    return enumerate_ball(2, 8, threads=THREADS)


@pytest.fixture(scope="session")
def table_q3n2() -> SphereTable:
    return enumerate_ball(3, 2)
