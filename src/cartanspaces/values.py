"""The base of the package's immutable value classes.

A value class writes out its own `__init__`, which checks the arguments
and sets each field with `object.__setattr__`, and names its fields in
`_fields`.  This base refuses every later assignment or deletion, prints
`Name(field=value, ...)`, and compares and hashes two values of the same
class by the fields in `_compared` (all of `_fields` when that is None).
`SimpleType` and `HItem`, compared and hashed on the matching path, write
out their own `__eq__` and `__hash__` by the same rule.  A `cached_property`
stores its value in the instance `__dict__`, past `__setattr__`.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

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
