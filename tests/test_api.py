"""The public names of the package and of each of its modules."""

import importlib
import pkgutil

import pytest

import summarysd

MODULES = ["summarysd"] + [f"summarysd.{m.name}" for m in pkgutil.iter_modules(summarysd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
