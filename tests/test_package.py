"""The package surface: ``ddvar.__all__`` against what the package binds."""

import inspect

import ddvar


def test_all_lists_every_public_function_and_class_once():
    names = ddvar.__all__
    assert len(names) == len(set(names))
    # every listed name resolves, so the star import works
    namespace = {}
    exec("from ddvar import *", namespace)
    assert set(names) <= namespace.keys()
    public = {
        name for name, value in vars(ddvar).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public <= set(names), sorted(public - set(names))
