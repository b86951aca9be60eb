"""The base of the package's immutable value classes.

A class names its fields once, in `_fields`, in order; one that only stores
them declares nothing more.  The base builds a value by position or keyword,
refuses later assignment or deletion, prints `Name(field=value, ...)`, and
compares and hashes values of one class by `_compared` (all of `_fields` when
None).  A class with defaults or checks ends its `__init__` in this one.  Only
`SimpleType` and `HItem`, hot on the matching path, write out `__init__`,
`__eq__` and `__hash__`, for speed.  A `cached_property` stores its value in
the instance `__dict__`, past `__setattr__`.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes each of {fields} once")
        vars(self).update(zip(fields, args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())
