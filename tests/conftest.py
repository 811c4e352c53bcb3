import os
import sys
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, settings

from crystalk import oracle

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("ci", deadline=timedelta(seconds=5), max_examples=50)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_corpora():
    """One modest corpus per rank, shared across property tests."""
    return {n: oracle.involution_corpus(n, seed=20240 + n, count=3) for n in range(1, 6)}


@pytest.fixture
def snf_calls(monkeypatch):
    """A list that grows by one entry per Smith normal form computed."""
    from crystalk.intlin import smith_normal_form

    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("crystalk") and vars(mod).get("smith_normal_form") is smith_normal_form:
            monkeypatch.setattr(mod, "smith_normal_form", counting)
    return calls
