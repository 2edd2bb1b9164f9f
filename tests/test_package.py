"""The package namespace and its export list."""

import importlib
import inspect

import pytest

import phasefisher


def test_exports_match_the_namespace():
    # a name deleted from a module but left in __all__, or served but not
    # listed, shows up here
    public = {
        name
        for name in dir(phasefisher)
        if not name.startswith("_") and not inspect.ismodule(getattr(phasefisher, name))
    }
    assert public == set(phasefisher.__all__)
    assert len(phasefisher.__all__) == len(set(phasefisher.__all__))


def test_each_name_is_its_home_modules_object():
    wrong = []
    for name in phasefisher.__all__:
        home = importlib.import_module(f"phasefisher.{phasefisher._HOME[name]}")
        value = getattr(phasefisher, name)
        at_home = value is vars(home).get(name)
        if inspect.isclass(value) or inspect.isfunction(value):
            # defined in its home, not re-exported there
            at_home = at_home and value.__module__ == home.__name__
        if not at_home:
            wrong.append(name)
    assert wrong == []


@pytest.mark.parametrize("name", ["no_such_name", "_curves", "np"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(phasefisher, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from phasefisher import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(phasefisher.__all__)
    assert all(namespace[name] is getattr(phasefisher, name) for name in namespace)
