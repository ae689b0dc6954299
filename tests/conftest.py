import os

import pytest

import repzeta
from repzeta import euler_global, local_sl2
from repzeta.finite_oracle import conjugacy_classes, sl2_group
from repzeta.symmetric import an_census, young_levels


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
def an_censuses():
    """The A_k censuses for k = 2..30, each read from its level of one branching sweep."""
    return {k: an_census(k, degrees) for k, degrees in young_levels(30) if k >= 2}


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for child interpreters, with the repzeta under test first on their path."""
    src = os.path.dirname(os.path.dirname(repzeta.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test.

    It returns a list that gets each call's first argument.
    """

    def install(module, name):
        seen = []
        original = getattr(module, name)

        def wrapper(*args):
            seen.append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)
        return seen

    return install


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Wraps `euler_global.evaluate_local` for the test.

    Returns a list that gets each call's (q column, exponents).
    """
    calls = []

    def evaluate(columns, exponents):
        calls.append((list(columns.q), list(exponents)))
        return local_sl2.evaluate_local(columns, exponents)

    monkeypatch.setattr(euler_global, "evaluate_local", evaluate)
    return calls
