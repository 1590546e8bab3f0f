"""Immutable value records: the part of ``dataclasses`` the package uses.

A ``Record`` subclass lists its fields as class annotations, in order; a
class attribute of a field's name is its default. Instances take fields
by position or keyword, run ``__post_init__`` to check them, and then
refuse any attribute set or delete. ``repr``, ``==`` and ``hash`` go by
the fields, as a frozen dataclass's do; ``eq=False`` in the class
statement keeps identity equality. ``vars()`` of an instance lists its
fields in order, and ``replace`` builds a changed copy.

Building a record class generates no code, so importing a module of
records costs little more than importing plain classes.
"""

from __future__ import annotations


class Record:
    """Base of an immutable value class whose fields are its annotations;
    ``class C(Record, eq=False)`` keeps identity equality and hashing."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        if not eq and "__eq__" not in cls.__dict__:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, "
                            f"got {len(args)}")
        given = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                                f"argument {name!r}")
            given[name] = value
        try:
            values = {name: given[name] if name in given else cls._defaults[name]
                      for name in cls._fields}
        except KeyError as err:
            raise TypeError(f"{cls.__name__}() missing argument {err.args[0]!r}") from None
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with the fields in ``changes`` replaced, checked
    again by its ``__post_init__``."""
    return type(record)(**{**vars(record), **changes})
