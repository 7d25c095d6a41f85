"""Frozen records with __slots__.

Plain value records are typing.NamedTuples.  A record that validates its
fields, leaves a field out of comparison or has no fields at all (a
NamedTuple would then be falsy) subclasses Record instead.
"""


class Record:
    """A frozen record whose fields are its class's __slots__, in order.

    The fields named in the class's _key make up ==, hash and repr, and a
    record equals only records of its own class.  __init__ stores the fields
    with _fill; any later assignment raises AttributeError.
    """

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._key)
        return f"{type(self).__name__}({body})"
