import importlib
import pkgutil

import pytest

import maxbias

MODULES = [info.name for info in pkgutil.iter_modules(maxbias.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"maxbias.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
