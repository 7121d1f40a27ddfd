import importlib
import pkgutil

import pytest

import hyplab

MODULES = sorted(info.name for info in pkgutil.iter_modules(hyplab.__path__))


def test_every_module_is_listed():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(f"hyplab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from hyplab.{name} import *", namespace)
    assert set(exported) <= set(namespace)
