"""Frozen value records: the base of the package's public record types.

A subclass lists its fields as class annotations, in order, and gives a
default as a class attribute, after every field without one.  The field
names, in order, are the class's ``_fields`` and ``__match_args__``.
Defining a subclass generates its ``__init__`` once, as ``namedtuple`` does
its ``__new__``: the fields are its parameters, so Python binds a call's
arguments and ``inspect.signature`` shows them.  It stores the fields and
calls ``__post_init__``, which checks the values.  Records compare and hash
by their field values within one class, print as ``Type(field=value, ...)``
and refuse assignment and deletion.  The base imports nothing.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of a frozen value record (see the module docstring)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__annotations__:  # a subclass that declares no field keeps its parent's
            cls._fields = cls.__match_args__ = fields = tuple(cls.__annotations__)
            required = [name for name in fields if name not in vars(cls)]
            if required != list(fields[:len(required)]):  # __defaults__ bind to the last fields
                name = next(name for name, field in zip(required, fields) if name != field)
                raise TypeError(f"{cls.__qualname__}: field {name!r} has no default "
                                f"but follows a field that has one")
            stores = ", ".join(f"{name}={name}" for name in fields)
            init = eval(f"lambda self, {', '.join(fields)}: "
                        f"self.__dict__.update({stores}) or self.__post_init__()", {})
            init.__defaults__ = tuple(vars(cls)[name] for name in fields[len(required):]) or None
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
