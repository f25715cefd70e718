"""Each module's ``__all__`` names exactly the public functions and classes
it defines, so a deleted or added name cannot leave a stale or missing entry."""

import importlib
import inspect
import pkgutil

import pytest

import crossfeat

MODULES = sorted(info.name for info in pkgutil.iter_modules(crossfeat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"crossfeat.{name}")
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert set(module.__all__) == defined
