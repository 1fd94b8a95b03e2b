import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("opmono", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("opmono")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` records the argument shape of every call to ``module.name``."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
