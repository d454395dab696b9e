"""Frozen value records built without code generation: each lists its fields once,
as ``__slots__`` in constructor order, for equality, hash, repr and pickling."""

setfield = object.__setattr__  # for a written-out ``__init__``: checks, hot callers


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):  # by position or by name
        values += tuple(named.pop(name) for name in self.__slots__[len(values):] if name in named)
        if named or len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, values):
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record field {name!r} is read-only")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
