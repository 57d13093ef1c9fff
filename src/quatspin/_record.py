"""Frozen value records: the base of the package's immutable value types.

Importing this module imports nothing.
"""


class Record:
    """Immutable value whose fields live in the instance __dict__.

    A subclass annotates its fields in order, derived fields included, and
    its __init__ checks the arguments and writes every field into
    self.__dict__.  repr, == and hash use the fields in order, and == holds
    only within one class.  Assigning or deleting an attribute raises
    AttributeError; pickle and copy restore the __dict__ without going
    through __setattr__.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        d = self.__dict__
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={d[f]!r}" for f in self._fields) + ")")
