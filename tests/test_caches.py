"""Every cache in the library hands out read-only arrays.

A cached ndarray is shared by every caller of the same key, so one
caller's in-place edit would change what all later callers read.  The
caches are discovered, not listed, so a new one cannot land unguarded.
"""

import importlib
import pkgutil

import numpy as np

import magpair
from magpair.oracle import default_grid
from magpair.system import CaseTag

#: A small argument tuple for every cached function, by qualified name.
ARGUMENTS = {
    "cli._build_parser": (),
    "oracle._fd_block": (2, 1, default_grid(2, 1, 401)),
    "oracle._lapack": (),
    "oracle._start": (32,),
    "qes._branch_order": (3,),
    "qes._sector_couplings": (3, 2),
    "qes._sector_vectors": (3, 2),
    "qes._unit_points": (3, 2, CaseTag.EQUAL_LARMOR),
}


def _cached_functions():
    found = {}
    for info in pkgutil.iter_modules(magpair.__path__):
        module = importlib.import_module(f"magpair.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_every_cache_has_an_argument_listed():
    assert sorted(_cached_functions()) == sorted(ARGUMENTS)


def test_every_cached_array_is_read_only():
    for name, function in _cached_functions().items():
        args = ARGUMENTS[name]
        # a miss and a hit must both hand out read-only arrays
        for _ in range(2):
            for array in _arrays(function(*args)):
                assert not array.flags.writeable, name
