"""Every annotation in ``repro`` resolves.

``from __future__ import annotations`` keeps annotations as strings, so a
name an annotation uses but its module never imports only fails when
something evaluates it (``typing.get_type_hints``, ``dataclasses``
introspection, a documentation build). This walks every function, class,
method and property defined in a ``repro`` module and resolves its hints.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro


def _annotated(module) -> typing.Iterator[object]:
    """The functions and classes ``module`` defines, and each class's
    methods and property getters."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_in_the_package_resolves():
    checked, unresolved = 0, []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in _annotated(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except NameError as error:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}: {error}")
    assert checked > 500  # the walk reached the package
    assert unresolved == []
