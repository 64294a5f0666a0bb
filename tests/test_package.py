import importlib

import pytest

import curvitrack


@pytest.mark.parametrize("name", curvitrack.__all__)
def test_export_resolves_to_its_module_object(name):
    module = importlib.import_module(f"curvitrack.{curvitrack._MODULE_OF[name]}")
    assert getattr(curvitrack, name) is getattr(module, name)
    assert vars(curvitrack)[name] is getattr(module, name)   # cached after first use


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        curvitrack.no_such_name
    assert not hasattr(curvitrack, "no_such_name")
