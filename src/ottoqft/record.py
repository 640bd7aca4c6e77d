"""Frozen value records: the base of the package's public record types.

A subclass lists its fields as class annotations, in order, and gives a
default as a class attribute.  The field names, in order, are the class's
``_fields`` and ``__match_args__``.
Records compare and hash by their field values within one class, print as
``Type(field=value, ...)`` and refuse assignment and deletion; an optional
``__post_init__`` checks the values.  The base imports nothing and generates
no code when a subclass is defined: its methods are shared by every type.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of a frozen value record (see the module docstring)."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__annotations__:  # a subclass that declares no field keeps its parent's
            cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
            cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        # a call giving every field by position skips the binding, which keeps a
        # scalar MomentSet(...) near the cost of a generated per-type __init__
        if not kwargs and len(args) == len(self._fields):
            self.__dict__.update(zip(self._fields, args))
        else:
            self.__dict__.update(self._bind(args, kwargs))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """field -> value for a call with keywords or defaults, rejecting what a
        signature of the fields would reject."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}.__init__() takes {len(fields) + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}.__init__() got an unexpected keyword "
                                f"argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}.__init__() got multiple values for "
                                f"argument {name!r}")
        values = {**cls._defaults, **values, **kwargs}
        if len(values) < len(fields):
            missing = ", ".join(repr(name) for name in fields if name not in values)
            raise TypeError(f"{cls.__qualname__}.__init__() missing required arguments: {missing}")
        return values

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
