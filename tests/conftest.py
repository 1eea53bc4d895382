import contextlib
import signal

import numpy as np
import pytest

from fbe import attractor, systems


@pytest.fixture(scope="session")
def cantor_ifs():
    return systems.cantor()


@pytest.fixture(scope="session")
def interval_ifs():
    return systems.interval()


@pytest.fixture(scope="session")
def sierpinski_ifs():
    return systems.sierpinski()


@pytest.fixture(scope="session")
def koch_ifs():
    return systems.koch()


@pytest.fixture(scope="session")
def cantor_cloud(cantor_ifs):
    # cell 3^-8: 256 points, eps = 1.5 * 3^-8
    return attractor(cantor_ifs, 3.0**-8)


@pytest.fixture(scope="session")
def cantor_cloud_fine(cantor_ifs):
    # cell 3^-11: tau = 4.5 * 3^-11 < 3^-6, needed by the membership checks
    return attractor(cantor_ifs, 3.0**-11)


@pytest.fixture(scope="session")
def interval_cloud(interval_ifs):
    return attractor(interval_ifs, 2.0**-10)


@pytest.fixture(scope="session")
def interval_cloud_fine(interval_ifs):
    return attractor(interval_ifs, 2.0**-13)


@pytest.fixture(scope="session")
def sierpinski_cloud(sierpinski_ifs):
    return attractor(sierpinski_ifs, 2.0**-7)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(20240917))


class Overrun(Exception):
    """A block outlived its time limit. Not a TimeoutError: that is an
    OSError, which `fbe.cli.main` would report as a clean exit 2."""


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise Overrun in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
