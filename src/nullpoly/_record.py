"""Base class of the library's immutable values."""


class Record:
    """An immutable value made of the fields named in ``__slots__``.

    A subclass is declared by its ``__slots__`` alone, and ``Name(*fields)``
    sets them in that order; one that normalises its input (``Polynomial``)
    writes its own ``__init__``. Records compare and hash by the field tuple
    (equal only within one class), print as ``Name(field=value, ...)``,
    refuse attribute writes and deletes, and pickle and deep-copy by calling
    the class again with the fields.
    """

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()
