"""Plain value classes that compare and print like dataclasses.

``@dataclass`` is cheap to write but not to import: ``dataclasses``
pulls in ``inspect``, ``ast`` and ``dis``, and every decorated class
runs ``exec`` on generated source for each of its methods, which a
one-shot compile process pays at every start-up (``docs/scaling.md``,
"Start-up").  The AST, the section descriptors and the other value
classes a compile creates derive from :class:`Record` or
:class:`FrozenRecord` instead, list their fields in ``_fields`` and
write their ``__init__`` by hand:

* ``==`` holds between objects of the same class whose fields are
  equal; against any other class it returns ``NotImplemented``;
* ``repr()`` reads ``Name(field=value, ...)`` in ``_fields`` order;
* a :class:`Record` is mutable and unhashable;
* a :class:`FrozenRecord` hashes the tuple of its fields and refuses
  attribute assignment, so its ``__init__`` sets each field with
  ``object.__setattr__``.

A class whose ``==`` reads only some of its fields, or sits on a hot
path, writes its own ``__eq__`` and ``__hash__``.  Subclasses keep
their ``__dict__`` (no ``__slots__``): ``pickle`` and ``copy`` restore
that without calling ``__setattr__``, which a frozen class with slots
would reject.
"""


class Record:
    """Mutable and unhashable; equal by ``_fields``."""

    __slots__ = ()

    #: field names in constructor order: what ``==`` and ``repr()`` read
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """Immutable and hashable; equal by ``_fields``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
