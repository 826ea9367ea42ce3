"""The package's lazy exports: every name resolves to its submodule's object
on first use, and star imports and dir() see all of them."""

import importlib

import pytest

import dwell


def test_every_export_is_its_submodules_object():
    assert len(dwell.__all__) == len(set(dwell.__all__)) == 53
    for name in dwell.__all__:
        module = importlib.import_module(f"dwell.{dwell._EXPORTS[name]}")
        assert getattr(dwell, name) is getattr(module, name)
        assert vars(dwell)[name] is getattr(module, name)  # cached after first use


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dwell import *", namespace)
    assert set(dwell.__all__) <= set(namespace)
    for name in dwell.__all__:
        assert namespace[name] is getattr(dwell, name)


def test_dir_lists_every_export():
    assert set(dwell.__all__) <= set(dir(dwell))
    assert "__version__" in dir(dwell)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dwell.no_such_name
    with pytest.raises(ImportError):
        exec("from dwell import no_such_name", {})
