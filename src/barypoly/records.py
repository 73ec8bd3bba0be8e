"""Frozen value records: the one base class of the package's result types.

A record class names its fields, in declaration order, in ``_fields``.  An
instance takes them positionally or by name, and keeps them in its
``__dict__`` in that order whatever the call order; a missing, unknown or
repeated field is a TypeError.  ``_defaults`` maps a field that a call may
leave out to a zero-argument factory, called once per instance.  The fields
are stored one by one with ``object.__setattr__`` and read back with
``getattr``, never through ``self.__dict__``: on CPython 3.11 touching
``__dict__`` turns the instance's inline attribute values into a dict, after
which every attribute read takes about twice as long.

A field whose name starts with ``_`` is kept but is not part of the value:
``==``, ``hash`` and ``repr`` read the public fields only, and ``==`` is
NotImplemented across classes.  Assigning or deleting an attribute raises
AttributeError.  ``copy.copy`` and pickle restore the ``__dict__``.

This is what ``@dataclass(frozen=True)`` gave these classes, with the same
``repr``, but without importing ``dataclasses`` (and through it ``inspect``,
``ast`` and ``dis``) and compiling generated methods per class, which a
cold start paid on every command.
"""


_set = object.__setattr__


class Record:
    _fields = ()
    _defaults = {}
    _public = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._public = tuple(name for name in cls._fields if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for field in fields:  # by index: a zip costs more than a short loop
            _set(self, field, args[i])
            i += 1

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call that does not give exactly one
        positional value per field, in declaration order."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field]())
            else:
                raise TypeError(f"{name}() missing field {field!r}")
        for field in kwargs:
            kind = "repeated" if field in fields else "unknown"
            raise TypeError(f"{name}() got {kind} field {field!r}")
        return values

    def _values(self) -> tuple:
        """The public fields' values: the record's value."""
        return tuple([getattr(self, field) for field in self._public])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._public)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
