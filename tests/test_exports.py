"""Each module's ``__all__`` names only what the module defines, and star imports work.

A name left in ``__all__`` after its definition is gone breaks
``from online_unlearning.<module> import *`` and nothing else.
"""

import importlib
import pkgutil

import pytest

import online_unlearning

MODULES = ["online_unlearning"] + sorted(
    f"online_unlearning.{info.name}" for info in pkgutil.iter_modules(online_unlearning.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", [])) <= set(namespace)
