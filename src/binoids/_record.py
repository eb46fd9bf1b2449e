"""The base of the package's immutable value classes."""

from operator import attrgetter

# How an __init__ writes a field past Record.__setattr__.  Unlike writing to
# self.__dict__, it keeps CPython's compact per-instance attribute storage,
# so reading the fields stays as fast as on a class without a __setattr__.
setfield = object.__setattr__


class Record:
    """A value compared, hashed and shown by the fields named in `_fields`.

    Each subclass writes its fields with `setfield` in its own ``__init__``;
    assigning or deleting an attribute afterwards raises AttributeError.  A
    record equals only a record of the same class.  Fields whose names start
    with "_" are compared but not shown, and caches set beside the fields
    with ``object.__setattr__`` are neither.

    >>> class Pair(Record):
    ...     _fields = ("left", "right")
    ...     def __init__(self, left, right):
    ...         setfield(self, "left", left)
    ...         setfield(self, "right", right)
    >>> Pair(1, 2), Pair(1, 2) == Pair(1, 2), Pair(1, 2) == (1, 2)
    (Pair(left=1, right=2), True, False)
    """

    _fields = ()

    def __init_subclass__(cls):
        # reads the tuple of compared fields of a record in one C call
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ["%s=%r" % (name, getattr(self, name)) for name in self._fields if name[0] != "_"]
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(shown))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
