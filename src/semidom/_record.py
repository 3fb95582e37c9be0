"""The base of the package's small immutable records.

A record subclasses `Record` and names its fields, in order, in
`__slots__`. Every field is required, and a value that other fields fix
is a property, not a field. Records are built positionally or by keyword,
compare equal to records of the same class with equal fields, hash as the
tuple of their fields, print as `Name(field=value, ...)`, refuse
assignment and deletion with AttributeError, and pickle and copy by
calling the class on their fields.
A subclass may define `__post_init__` to check the new record.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, that a call with these arguments
        gives; TypeError on too many, unknown, repeated or missing ones."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            else:
                missing.append(name)
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return values

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
