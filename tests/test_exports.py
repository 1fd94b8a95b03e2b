"""Every public name resolves, so a deleted definition cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import opmono

MODULES = ["opmono"] + [
    f"opmono.{info.name}" for info in pkgutil.iter_modules(opmono.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
