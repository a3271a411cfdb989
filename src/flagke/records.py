"""Immutable records, written without generated code.

A record names its fields, in order, in ``_fields`` and sets them in its own
``__init__``.  Two records are equal when they are of one class and their
fields are equal; a record hashes the tuple of its fields, and its repr
shows them, as a frozen dataclass's do.  A value that a record keeps but
does not compare, such as `model.FutakiReport`'s table, is left out of
``_fields``.  Assignment and deletion raise AttributeError, so a record sets
its fields through ``self.__dict__``, where `functools.cached_property` also
caches; a class with ``__slots__`` (`rootsys.Root`) sets them with
``object.__setattr__``.
"""

from typing import Tuple


class Record:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s" % (name, type(self).__name__))
