"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import koopgen

MODULES = {
    name: importlib.import_module(name)
    for name in ["koopgen"] + [f"koopgen.{m.name}" for m in pkgutil.iter_modules(koopgen.__path__)]
}


@pytest.mark.parametrize("name", [n for n, m in MODULES.items() if hasattr(m, "__all__")])
def test_all_names_resolve(name):
    module = MODULES[name]
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
