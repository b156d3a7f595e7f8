"""The base of the engine's immutable value records."""


class Frozen:
    """A record whose ``__init__`` stores its fields once, in order, through
    ``__dict__``; assigning to a field afterwards raises ``AttributeError``.
    Two records are equal, and hash alike, when they have one type and equal
    field values.

    A plain base with a hand-written ``__init__`` in each record: the
    standard library's record decorator imports ``inspect`` and ``ast`` and
    ``exec``s the methods it writes, about a quarter of ``import cdgalab``.
    No ``__slots__``, so ``copy.copy`` still works."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))
