import importlib
import pkgutil

import meanfield


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from meanfield.<module> import *` and misleads readers of the API
    checked = 0
    for info in pkgutil.iter_modules(meanfield.__path__):
        module = importlib.import_module(f"meanfield.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"meanfield.{info.name}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0
