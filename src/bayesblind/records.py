"""Frozen value records built without code generation: each lists its fields once,
as ``__slots__`` in constructor order, for equality, hash, repr and pickling.  A
subclass that declares no fields of its own keeps its base's."""

setfield = object.__setattr__  # for a written-out ``__init__``: input checks


class Record:
    __slots__ = _fields = ()

    def __init_subclass__(cls):  # the fields of the class that declares them
        cls._fields = cls.__dict__.get("__slots__") or cls._fields

    def __init__(self, *values):  # every field by position
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record field {name!r} is read-only")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
