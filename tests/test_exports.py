"""The package's public names are its four modules' ``__all__`` lists, re-exported once each."""

import rategraph
from rategraph import data, estimators, evaluation, graph

MODULES = (data, graph, estimators, evaluation)


def test_no_name_is_exported_twice():
    assert len(rategraph.__all__) == len(set(rategraph.__all__))


def test_names_are_the_version_and_the_modules_lists():
    assert sorted(rategraph.__all__) == sorted(["__version__", *(name for m in MODULES for name in m.__all__)])


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rategraph, name) is getattr(module, name), f"{module.__name__}.{name}"
