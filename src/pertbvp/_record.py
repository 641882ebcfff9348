"""Immutable value records: the base of pertbvp's plain value classes.

A record class lists its fields in ``__slots__``, in order; a slot whose
name starts with ``_`` (a private cache, ``__weakref__``) is not a field.
``_defaults`` maps a trailing field to its default.  A record is built from
its fields by position or keyword, refuses assignment, compares and hashes
on its type and fields, and prints as ``Name(field=value, ...)``.  The
frozen dataclasses it replaces generated the same methods in code at
import, which every CLI call paid for.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Immutable record; subclasses name their fields in ``__slots__``."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                            if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, "
                            f"got {len(args)}")
        values = dict(zip(self._fields, args))
        for field, value in kwargs.items():
            if field not in self._fields or field in values:
                raise TypeError(f"{name} got an unexpected or repeated "
                                f"field {field!r}")
            values[field] = value
        for field in self._fields:
            if field in values:
                value = values[field]
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name} missing field {field!r}")
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}"
                           for field in self._fields)
        return f"{type(self).__qualname__}({fields})"
