"""Golden test of the public surface: ``outangles.__all__`` is assembled from
the modules' own ``__all__`` lists, and its digest pins the exact names.

The digest was recorded when the package still listed the names by hand, so
moving the lists into the modules must leave it unchanged.
"""

from __future__ import annotations

import hashlib

import outangles as ou

PUBLIC_SHA256 = "ed575b6e890e0ae2d8f7c8de29637652e98355053c4bf83f5d7c6476d76d3e13"

MODULES = (ou.braid, ou.diagram, ou.division, ou.enumeration, ou.errors, ou.rewrite)


def test_public_surface():
    assert hashlib.sha256("\n".join(ou.__all__).encode()).hexdigest() == PUBLIC_SHA256

    # every module lists, sorted, only names it defines, and no name twice
    owner: dict[str, str] = {}
    for module in MODULES:
        assert module.__all__ == sorted(module.__all__)
        for name in module.__all__:
            assert name not in owner, f"{name} is listed by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__
            value = vars(module)[name]
            if callable(value):
                assert value.__module__ == module.__name__, name
            assert getattr(ou, name) is value
    assert sorted(owner) == ou.__all__

    ns: dict = {}
    exec("from outangles import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ou.__all__


def test_no_public_function_is_wrapped():
    # bench/tracer.py marks its own wrappers with __wrapped__ and reads it to
    # tell that a name was rebound, so a library decorator that sets it (as
    # functools does) would hide a missed rebinding
    for name in ou.__all__:
        assert not hasattr(getattr(ou, name), "__wrapped__"), name
