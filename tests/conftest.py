import pytest

from geodetic import cayley_ball
from geodetic import zoo

from fixtures import cyclic_with_step


@pytest.fixture(scope="session")
def free2_r4():
    spec, gens = zoo.free_group(2)
    return cayley_ball(spec, gens, 4)


@pytest.fixture(scope="session")
def free2_r5():
    spec, gens = zoo.free_group(2)
    return cayley_ball(spec, gens, 5)


@pytest.fixture(scope="session")
def z2z2_r8():
    spec, gens = zoo.z2_star_z2()
    return cayley_ball(spec, gens, 8)


@pytest.fixture(scope="session")
def z2z2_r16():
    spec, gens = zoo.z2_star_z2()
    return cayley_ball(spec, gens, 16)


@pytest.fixture(scope="session")
def z_r8():
    spec, gens = zoo.infinite_cyclic()
    return cayley_ball(spec, gens, 8)


@pytest.fixture(scope="session")
def zxz2_r7():
    spec, gens = zoo.z_cross_z2()
    return cayley_ball(spec, gens, 7)


@pytest.fixture(scope="session")
def z4_r4():
    spec, gens = cyclic_with_step(4)
    return cayley_ball(spec, gens, 4)
