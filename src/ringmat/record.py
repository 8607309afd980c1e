"""A small base for plain value classes.

The library's records (reports, charpoly data, derivations, index
subsets) need field-wise equality, hashing and a readable repr, and
nothing else a dataclass generates.  Importing dataclasses costs a
command-line process more than its own work (it pulls in inspect, ast
and dis), so the records derive from Record instead.
"""

from __future__ import annotations


class Record:
    """Equality, hashing and repr over the attribute names in _fields.

    Equality holds only between instances of the same class, as for a
    dataclass.  Subclasses that are mutable set __hash__ = None; frozen
    ones derive from FrozenRecord.
    """

    _fields = ()
    _hidden = ()    # fields left out of repr

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields if name not in self._hidden)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """A Record whose fields cannot be reassigned after __init__.

    __init__ sets fields through _set; plain assignment raises
    AttributeError.  Writes that bypass __setattr__ (functools'
    cached_property stores into __dict__ directly) still work.
    """

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
