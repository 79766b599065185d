"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

import magpair

MODULES = ["system", "polyops", "sl2rep", "qes", "catalog", "oracle",
           "landau", "integrals", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"magpair.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []
    namespace: dict = {}
    exec(f"from magpair.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_resolve():
    assert [x for x in magpair.__all__ if not hasattr(magpair, x)] == []
    assert len(set(magpair.__all__)) == len(magpair.__all__)


def test_package_exports_the_union_of_the_library_modules():
    union = set()
    for name in MODULES:
        if name != "cli":
            union |= set(importlib.import_module(f"magpair.{name}").__all__)
    assert set(magpair.__all__) == union
