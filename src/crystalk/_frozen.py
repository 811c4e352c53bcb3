"""Base of the package's read-only slotted classes."""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Slots set once, by ``_set`` in ``__init__``, and read-only after.

    Equality (same type only), hash, repr and pickling see the slots
    named in ``_fields``, in order; a slot outside ``_fields`` can hold a
    cache.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _values: tuple  # the fields' values, read by one C-level attrgetter
    _setters: tuple  # the slots' own setters, which bypass __setattr__

    def __init_subclass__(cls) -> None:
        cls._values = property(attrgetter(*cls._fields))
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def _set(self, *values: object) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values
