import sys

import pytest
from hypothesis import HealthCheck, settings

from crystalk import oracle

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def small_corpora():
    """One modest corpus per rank, shared across property tests."""
    return {n: oracle.involution_corpus(n, seed=20240 + n, count=3) for n in range(1, 6)}


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(func) is a list that grows by one entry per call of
    ``func`` through any crystalk module, or class of one, that binds it."""

    def install(func):
        calls = []

        def counting(*args):
            calls.append(args)
            return func(*args)

        for name, mod in list(sys.modules.items()):
            if not name.startswith("crystalk"):
                continue
            for owner in (mod, *(v for v in vars(mod).values() if isinstance(v, type))):
                if vars(owner).get(func.__name__) is func:
                    monkeypatch.setattr(owner, func.__name__, counting)
        return calls

    return install


@pytest.fixture
def snf_calls(count_calls):
    """A list that grows by one entry per Smith normal form computed."""
    from crystalk.intlin import smith_normal_form

    return count_calls(smith_normal_form)
