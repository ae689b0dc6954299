import os

import pytest

import repzeta
from repzeta.finite_oracle import conjugacy_classes, sl2_group


@pytest.fixture(scope="session")
def sl2_groups():
    """The SL2 quotients the suite keeps coming back to, enumerated once."""
    return {m: sl2_group(m) for m in (3, 5, 9, 25, 49)}


@pytest.fixture(scope="session")
def sl2_z27():
    return sl2_group(27)


@pytest.fixture(scope="session")
def sl2_z27_classes(sl2_z27):
    return conjugacy_classes(sl2_z27)


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for child interpreters, with the repzeta under test first on their path."""
    src = os.path.dirname(os.path.dirname(repzeta.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
