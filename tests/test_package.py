"""The package's public names are its layers' `__all__` lists, republished."""

import importlib

import sliceforge

# The layers the package republishes, in the order of its `__all__`.
LAYERS = tuple(importlib.import_module(f"sliceforge.{name}") for name in ("model", "loss", "fixedpoint", "inner", "outer", "sim"))


def test_package_all_is_the_layers_lists_in_order():
    want = ["__version__", *(name for layer in LAYERS for name in layer.__all__)]
    assert sliceforge.__all__ == want
    assert len(set(want)) == len(want)


def test_no_name_is_public_in_two_layers():
    owners = {}
    for layer in LAYERS:
        for name in layer.__all__:
            owners.setdefault(name, []).append(layer.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_each_exported_name_is_the_object_its_layer_defines():
    for layer in LAYERS:
        for name in layer.__all__:
            obj = getattr(layer, name)
            assert getattr(sliceforge, name) is obj, name
            assert getattr(obj, "__module__", layer.__name__) == layer.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sliceforge import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sliceforge.__all__)
    assert namespace["__version__"] == sliceforge.__version__
