"""The package namespace: what ``from lexmetric import *`` binds."""

import types

import lexmetric


def test_star_import_binds_exactly_all_and_no_module():
    namespace = {}
    exec("from lexmetric import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(lexmetric.__all__)
    assert len(lexmetric.__all__) == 59
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
