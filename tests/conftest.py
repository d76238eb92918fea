import numpy as np
import pytest

from pairinglab.bv import (BvFunction1D, CantorPart, Disc, JumpPoint,
                           Piecewise1D, PiecewiseConstantBv2D)
from pairinglab.fields import field_catalog
from pairinglab.measures import SingularLadder, TestFunction1D, TestFunction2D

DOMAIN = (-2.0, 2.0)
RECT = ((-2.0, 2.0), (-2.0, 2.0))


@pytest.fixture(scope="session")
def phi_bump():
    return TestFunction1D.bump(-1.8, 1.8)


@pytest.fixture(scope="session")
def phi_plateau():
    return TestFunction1D.plateau(-1.8, -1.2, 1.2, 1.8)


@pytest.fixture(scope="session")
def phi_radial():
    return TestFunction2D.radial((0.0, 0.0), 1.2, 1.9)


@pytest.fixture(scope="session")
def u_smooth():
    return BvFunction1D(
        DOMAIN,
        ac=Piecewise1D(
            DOMAIN,
            lambda x: 0.5 + 0.4 * np.sin(2.0 * x),
            lambda x: 0.8 * np.cos(2.0 * x)))


@pytest.fixture(scope="session")
def u_jump():
    """Constant 0.2 with a single unit jump up to 1.2 at x = 0.3."""
    return BvFunction1D(DOMAIN, ac=Piecewise1D.constant(DOMAIN, 0.2),
                        jumps=(JumpPoint.from_sides(0.3, 0.2, 1.2),))


@pytest.fixture(scope="session")
def u_down_jump():
    return BvFunction1D(DOMAIN, ac=Piecewise1D.constant(DOMAIN, 1.2),
                        jumps=(JumpPoint.from_sides(0.3, 1.2, 0.2),))


@pytest.fixture(scope="session")
def u_stair():
    return BvFunction1D(DOMAIN, ac=Piecewise1D.constant(DOMAIN, 0.0),
                        jumps=(JumpPoint.from_sides(-0.5, 0.0, 1.0),
                               JumpPoint.from_sides(0.7, 1.0, 2.5)))


@pytest.fixture(scope="session")
def u_cantor():
    return BvFunction1D(DOMAIN,
                        cantor=CantorPart(1.0, SingularLadder((0.0, 1.0))))


@pytest.fixture(scope="session")
def u_mixed():
    ramp = Piecewise1D(
        (DOMAIN[0], 0.0, 1.0, DOMAIN[1]),
        lambda x: 0.8 * np.clip(x, 0.0, 1.0),
        lambda x: np.where((x > 0.0) & (x < 1.0), 0.8, 0.0))
    return BvFunction1D(DOMAIN, ac=ramp,
                        jumps=(JumpPoint.from_sides(1.3, 1.3, 2.1),),
                        cantor=CantorPart(0.5, SingularLadder((-1.5, -0.5))))


@pytest.fixture(scope="session")
def u_disc():
    return PiecewiseConstantBv2D(RECT, ((Disc((0.0, 0.0), 1.0), 1.0),))


@pytest.fixture(scope="session")
def field_const():
    return field_catalog("const", c=1.0)


@pytest.fixture(scope="session")
def field_gt():
    return field_catalog("gt")


@pytest.fixture(scope="session")
def field_xt():
    return field_catalog("xt")
