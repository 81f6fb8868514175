"""`Value`, the one base of the package's immutable value types.

The six value types, `CentredPerm`, `PinWord`, `PinSpec`, `PinDiagram`,
`Poly` and `RatGF`, are plain classes with ``__slots__`` on this base.  Each
keeps its own validating ``__init__``, which sets its fields through
``object.__setattr__``.  The base gives them the rest of the contract:

- no field can be set or deleted afterwards (`AttributeError`);
- two values are equal when they are of the same class and agree on the
  compared fields;
- the hash is the hash of the tuple of the compared fields;
- pickling and copying call the constructor again on its arguments, so a
  value read back is validated like any other.

The constructor's arguments are all the slots unless the class names them
(``args=``), and the compared fields are the arguments unless the class
names them (``compare=``)::

    class PinSpec(Value, args=("prefix", "cycle"), compare=("_canon",)):
        __slots__ = ("prefix", "cycle", "_canon")
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, args=None, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._args = args or cls.__slots__
        compare = compare or cls._args
        key = attrgetter(*compare)  # one name: the field itself, not a 1-tuple

        if len(compare) == 1:

            def __hash__(self):
                return hash((key(self),))

        else:

            def __hash__(self):
                return hash(key(self))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__hash__, cls.__eq__ = __hash__, __eq__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)
