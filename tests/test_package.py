"""The package namespace and its export list."""

import inspect

import phasefisher


def test_exports_match_the_namespace():
    # a name deleted from a module but left in __all__, or imported but not
    # listed, shows up here
    public = {
        name
        for name, value in vars(phasefisher).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(phasefisher.__all__)
    assert len(phasefisher.__all__) == len(set(phasefisher.__all__))
